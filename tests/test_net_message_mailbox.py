"""Tests for message records, size estimation, and mailbox channels."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError, MailboxClosedError
from repro.net.mailbox import Mailbox
from repro.net.message import Message, payload_nbytes


def make_msg(src=0, dest=1, tag=5, payload="x", t=0.0):
    return Message(src, dest, tag, payload, payload_nbytes(payload), t, t)


class TestPayloadNbytes:
    def test_ndarray_exact(self):
        arr = np.zeros(100, dtype=np.float64)
        assert payload_nbytes(arr) == 16 + 800

    def test_scalar(self):
        assert payload_nbytes(3.14) == 24
        assert payload_nbytes(7) == 24

    def test_none_header_only(self):
        assert payload_nbytes(None) == 16

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 20

    def test_numpy_scalar(self):
        assert payload_nbytes(np.float64(1.0)) == 24

    def test_array_list(self):
        arrs = [np.zeros(10), np.zeros(5)]
        assert payload_nbytes(arrs) == 16 + 120

    def test_generic_object_pickled(self):
        assert payload_nbytes({"a": [1, 2, 3]}) > 16

    def test_unpicklable_fallback(self):
        assert payload_nbytes(lambda x: x) >= 16


class TestMessage:
    def test_rejects_negative_tag(self):
        with pytest.raises(ValueError):
            Message(0, 1, -2, None, 16, 0.0)

    def test_rejects_wildcard_endpoints(self):
        with pytest.raises(ValueError):
            Message(-1, 1, 0, None, 16, 0.0)


class TestMailbox:
    def test_exact_match(self):
        box = Mailbox(1)
        box.deposit(make_msg(src=0, tag=5))
        msg = box.receive(0, 5, timeout=1.0)
        assert msg.payload == "x"

    def test_wrong_dest_rejected(self):
        box = Mailbox(2)
        with pytest.raises(CommunicationError):
            box.deposit(make_msg(dest=1))

    def test_fifo_per_channel(self):
        box = Mailbox(1)
        box.deposit(make_msg(payload="first"))
        box.deposit(make_msg(payload="second"))
        assert box.receive(0, 5, timeout=1.0).payload == "first"
        assert box.receive(0, 5, timeout=1.0).payload == "second"

    def test_selective_receive_leaves_others(self):
        box = Mailbox(1)
        box.deposit(make_msg(src=0, tag=1, payload="a"))
        box.deposit(make_msg(src=0, tag=2, payload="b"))
        assert box.receive(0, 2, timeout=1.0).payload == "b"
        assert box.receive(0, 1, timeout=1.0).payload == "a"

    def test_timeout_raises(self):
        box = Mailbox(1)
        with pytest.raises(CommunicationError, match="timed out"):
            box.receive(0, 5, timeout=0.05)

    def test_timeout_counts_what_is_buffered_elsewhere(self):
        box = Mailbox(1)
        box.deposit(make_msg(src=0, tag=6))
        box.deposit(make_msg(src=3, tag=5))
        with pytest.raises(CommunicationError) as ei:
            box.receive(0, 5, timeout=0.05)
        assert "source=0, tag=5" in str(ei.value)
        assert "2 non-matching message(s) buffered" in str(ei.value)

    def test_pending_count(self):
        box = Mailbox(1)
        assert box.pending_count() == 0
        box.deposit(make_msg())
        box.deposit(make_msg(tag=6))
        assert box.pending_count() == 2
        box.receive(0, 6, timeout=1.0)
        assert box.pending_count() == 1

    def test_close_wakes_receiver(self):
        box = Mailbox(1)
        errors = []

        def blocked():
            try:
                box.receive(0, 5, timeout=5.0)
            except MailboxClosedError:
                errors.append("closed")

        t = threading.Thread(target=blocked)
        t.start()
        box.close()
        t.join(timeout=2.0)
        assert errors == ["closed"]

    def test_deposit_after_close_raises(self):
        box = Mailbox(1)
        box.close()
        with pytest.raises(MailboxClosedError):
            box.deposit(make_msg())

    def test_blocking_receive_gets_late_message(self):
        box = Mailbox(1)
        result = []

        def rx():
            result.append(box.receive(0, 5, timeout=5.0).payload)

        t = threading.Thread(target=rx)
        t.start()
        box.deposit(make_msg(payload="late-arrival"))
        t.join(timeout=2.0)
        assert result == ["late-arrival"]


class TestPackedArrays:
    """Per-peer message coalescing: several arrays, one wire payload."""

    def test_roundtrip_mixed_dtypes_and_shapes(self):
        from repro.net.message import pack_arrays, unpack_arrays

        arrays = [
            np.arange(7, dtype=np.float64),
            np.arange(12, dtype=np.intp).reshape(3, 4),
            np.empty(0, dtype=np.float32),
            np.array(5.0),
        ]
        out = unpack_arrays(pack_arrays(arrays))
        assert len(out) == len(arrays)
        for a, b in zip(arrays, out):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_one_message_cheaper_than_k(self):
        """The coalesced payload costs one header, not one per array."""
        from repro.net.message import pack_arrays

        arrays = [np.zeros(10), np.zeros(20), np.zeros(30)]
        packed = payload_nbytes(pack_arrays(arrays))
        separate = sum(payload_nbytes(a) for a in arrays)
        assert packed < separate

    def test_unpack_rejects_non_packed(self):
        from repro.net.message import unpack_arrays

        with pytest.raises(TypeError):
            unpack_arrays(np.zeros(3))

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**31),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=6),
    )
    def test_roundtrip_with_zero_length_segments_property(self, seed, sizes):
        """Round-trip any mix of segment lengths — including zero.

        Zero-length fields are what an empty-interval rank (standby,
        drained, or failed under elastic membership / resilience) packs;
        the offset arithmetic must survive them at any position.
        """
        from repro.net.message import pack_arrays, unpack_arrays

        rng = np.random.default_rng(seed)
        dtypes = [np.float64, np.float32, np.intp, np.uint8]
        arrays = [
            rng.uniform(-1e6, 1e6, size=n).astype(dtypes[i % len(dtypes)])
            for i, n in enumerate(sizes)
        ]
        out = unpack_arrays(pack_arrays(arrays))
        assert len(out) == len(arrays)
        for a, b in zip(arrays, out):
            assert a.dtype == b.dtype and a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_all_segments_zero_length(self):
        from repro.net.message import pack_arrays, unpack_arrays

        arrays = [np.empty(0, dtype=np.float64), np.empty(0, dtype=np.intp)]
        out = unpack_arrays(pack_arrays(arrays))
        assert [o.size for o in out] == [0, 0]
        assert [o.dtype for o in out] == [np.float64, np.intp]

    def test_packed_arrays_cross_the_network(self):
        from repro.net.cluster import uniform_cluster
        from repro.net.message import pack_arrays, unpack_arrays
        from repro.net.spmd import run_spmd

        fields = [np.arange(4, dtype=np.float64), np.ones((2, 3))]

        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, pack_arrays(fields), tag=101)
                return None
            parts = unpack_arrays(ctx.recv(0, 101))
            for a, b in zip(fields, parts):
                np.testing.assert_array_equal(a, b)
            return len(parts)

        res = run_spmd(uniform_cluster(2), fn)
        assert res.values[1] == 2

    def test_packed_send_is_one_message(self):
        from repro.net.cluster import uniform_cluster
        from repro.net.message import pack_arrays
        from repro.net.spmd import run_spmd

        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, pack_arrays([np.zeros(5), np.zeros(6)]), tag=102)
            else:
                ctx.recv(0, 102)

        res = run_spmd(uniform_cluster(2), fn, trace=True)
        assert len([e for e in res.trace if e.kind == "send"]) == 1


class TestMailboxLazyDeletion:
    """Per-channel order under interleaving and bursts.  (The class name
    predates the single-container mailbox: there is no lazy deletion left,
    only the ordering guarantee it had to preserve.)"""

    def test_fifo_per_channel_preserved(self):
        box = Mailbox(1)
        first = make_msg(src=0, tag=5)
        other = make_msg(src=2, tag=5)
        second = make_msg(src=0, tag=5)
        for m in (first, other, second):
            box.deposit(m)
        assert box.receive(2, 5) is other  # another channel drained between
        assert box.receive(0, 5) is first
        assert box.receive(0, 5) is second

    def test_burst_drain_in_arrival_order(self):
        box = Mailbox(1)
        msgs = [make_msg(src=i % 4, tag=9) for i in range(64)]
        for m in msgs:
            box.deposit(m)
        assert box.pending_count() == 64
        for src in (3, 1, 0, 2):
            drained = [box.receive(src, 9) for _ in range(16)]
            assert all(a is b for a, b in zip(drained, msgs[src::4]))
        assert box.pending_count() == 0
