"""Tests for data redistribution and remap-cost estimation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RankFailedError, RedistributionError, ResilienceError
from repro.net.cluster import uniform_cluster
from repro.net.message import Tags, pack_arrays, payload_nbytes, unpack_arrays
from repro.net.network import ETHERNET_10MBIT, PointToPointNetwork
from repro.net.spmd import run_spmd
from repro.obs import summarize
from repro.partition.arrangement import (
    Transfer,
    message_count,
    minimize_cost_redistribution,
    transfer_matrix,
)
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import (
    estimate_remap_cost,
    redistribute,
    redistribute_fields,
    transfer_plan_summary,
)
from repro.runtime.adaptive.redistribution import (
    extract_slabs,
    pack_slabs,
    place_slabs,
    slab_bounds,
    verify_slabs,
)


def do_redistribute(n, old_caps, new_caps, p, old_arr=None, new_arr=None):
    old = partition_list(n, old_caps, old_arr)
    new = partition_list(n, new_caps, new_arr)
    base = np.arange(n, dtype=np.float64) * 3.0

    def fn(ctx):
        lo, hi = old.interval(ctx.rank)
        out = redistribute(ctx, old, new, base[lo:hi].copy())
        nlo, nhi = new.interval(ctx.rank)
        np.testing.assert_array_equal(out, base[nlo:nhi])
        return out.size

    res = run_spmd(uniform_cluster(p), fn, trace=True)
    return res, old, new


class TestRedistribute:
    def test_data_lands_at_new_homes(self):
        res, old, new = do_redistribute(
            100, [0.27, 0.18, 0.34, 0.07, 0.14],
            [0.10, 0.13, 0.29, 0.24, 0.24], 5,
        )
        assert sum(res.values) == 100

    def test_with_mcr_arrangement(self):
        old_caps = [0.27, 0.18, 0.34, 0.07, 0.14]
        new_caps = [0.10, 0.13, 0.29, 0.24, 0.24]
        arr = minimize_cost_redistribution(np.arange(5), old_caps, new_caps, 100)
        do_redistribute(100, old_caps, new_caps, 5, new_arr=arr)

    def test_identity_moves_nothing(self):
        res, old, new = do_redistribute(60, np.ones(3), np.ones(3), 3)
        assert sum(summarize(res.trace).messages_by_tag.values()) == 0

    def test_message_count_matches_plan(self):
        res, old, new = do_redistribute(
            100, [0.27, 0.18, 0.34, 0.07, 0.14],
            [0.10, 0.13, 0.29, 0.24, 0.24], 5,
        )
        assert sum(summarize(res.trace).messages_by_tag.values()) == message_count(old, new)

    def test_vector_payload(self):
        old = partition_list(30, [1, 1, 1])
        new = partition_list(30, [3, 2, 1])
        base = np.random.default_rng(0).uniform(size=(30, 2))

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            out = redistribute(ctx, old, new, base[lo:hi].copy())
            nlo, nhi = new.interval(ctx.rank)
            np.testing.assert_array_equal(out, base[nlo:nhi])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_rejects_wrong_local_size(self):
        old = partition_list(10, [1, 1])
        new = partition_list(10, [3, 1])

        def fn(ctx):
            redistribute(ctx, old, new, np.zeros(2))

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    def test_empty_new_block(self):
        res, old, new = do_redistribute(10, [1.0, 1.0], [1.0, 0.0], 2)
        assert res.values == [10, 0]

    @given(
        seed=st.integers(0, 40),
        n=st.integers(4, 300),
        p=st.integers(2, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_redistribution_preserves_data(self, seed, n, p):
        rng = np.random.default_rng(seed)
        old_caps = rng.dirichlet(np.ones(p)) + 0.05
        new_caps = rng.dirichlet(np.ones(p)) + 0.05
        new_arr = rng.permutation(p)
        old = partition_list(n, old_caps)
        new = partition_list(n, new_caps, new_arr)
        base = rng.uniform(size=n)

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            out = redistribute(ctx, old, new, base[lo:hi].copy())
            nlo, nhi = new.interval(ctx.rank)
            np.testing.assert_array_equal(out, base[nlo:nhi])
            return True

        assert all(run_spmd(uniform_cluster(p), fn).values)


class TestEstimateRemapCost:
    def test_zero_when_identical(self):
        part = partition_list(100, np.ones(4))
        assert estimate_remap_cost(ETHERNET_10MBIT(), part, part, 8) == 0.0

    def test_scales_with_moved_volume(self):
        old = partition_list(10_000, [1, 1])
        small = partition_list(10_000, [1.1, 1.0])
        big = partition_list(10_000, [4.0, 1.0])
        net = ETHERNET_10MBIT()
        assert estimate_remap_cost(net, old, big, 8) > estimate_remap_cost(
            net, old, small, 8
        )

    def test_scales_with_element_size(self):
        old = partition_list(1000, [1, 1])
        new = partition_list(1000, [2, 1])
        net = ETHERNET_10MBIT()
        assert estimate_remap_cost(net, old, new, 64) > estimate_remap_cost(
            net, old, new, 8
        )

    def test_links_overlap_transfers(self):
        old = partition_list(100_000, [1, 1, 1, 1])
        new = partition_list(100_000, [4, 3, 2, 1])
        eth_cost = estimate_remap_cost(ETHERNET_10MBIT(), old, new, 8)
        links = PointToPointNetwork(
            latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4
        )
        assert estimate_remap_cost(links, old, new, 8) < eth_cost

    def test_rejects_bad_element_size(self):
        part = partition_list(10, [1, 1])
        with pytest.raises(RedistributionError):
            estimate_remap_cost(ETHERNET_10MBIT(), part, part, 0)

    def test_estimate_tracks_actual(self):
        """The analytic estimate is within 2x of the simulated cost."""
        old = partition_list(20_000, [1, 1, 1, 1])
        new = partition_list(20_000, [0.4, 0.3, 0.2, 0.1])
        est = estimate_remap_cost(PointToPointNetwork(), old, new, 8)
        base = np.zeros(20_000)

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            t0 = ctx.clock
            redistribute(ctx, old, new, base[lo:hi].copy())
            ctx.barrier()
            return ctx.clock - t0

        res = run_spmd(uniform_cluster(4), fn)
        actual = max(res.values)
        assert est == pytest.approx(actual, rel=1.0)


class TestRedistributeFields:
    """The packed multi-field exchange (ISSUE 3 tentpole)."""

    def run_fields(self, n, old, new, fields, p):
        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            outs = redistribute_fields(
                ctx, old, new, [f[lo:hi].copy() for f in fields]
            )
            return outs

        return run_spmd(uniform_cluster(p), fn, trace=True)

    def test_multi_field_lands_at_new_homes(self):
        n, p = 120, 4
        rng = np.random.default_rng(7)
        old = partition_list(n, [0.3, 0.3, 0.2, 0.2])
        new = partition_list(n, [0.1, 0.2, 0.3, 0.4], [2, 0, 3, 1])
        fields = [
            rng.uniform(size=n),
            rng.integers(0, 1000, size=n),
            rng.uniform(size=(n, 3)),
        ]
        res = self.run_fields(n, old, new, fields, p)
        for rank, outs in enumerate(res.values):
            lo, hi = new.interval(rank)
            for f, out in zip(fields, outs):
                np.testing.assert_array_equal(out, f[lo:hi])
                assert out.dtype == f.dtype

    def test_one_packed_message_per_peer(self):
        """k fields still cost one message per peer pair, not k."""
        n, p = 100, 5
        old = partition_list(n, [0.27, 0.18, 0.34, 0.07, 0.14])
        new = partition_list(n, [0.10, 0.13, 0.29, 0.24, 0.24])
        fields = [np.arange(n, dtype=np.float64), np.ones(n)]
        res = self.run_fields(n, old, new, fields, p)
        assert sum(summarize(res.trace).messages_by_tag.values()) == message_count(old, new)

    def test_identity_guard_detects_corrupt_slab(self):
        """A slab whose bounds disagree with the plan is rejected."""
        n = 10
        old = partition_list(n, [1.0, 1.0])
        new = partition_list(n, [1.2, 0.8])  # plan: rank1 -> rank0 slab
        data = np.arange(n, dtype=np.float64)

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            if ctx.rank == 1:
                # Impersonate the exchange but lie about which vertices move.
                [tr] = transfer_matrix(old, new)
                shifted = np.array([tr.lo + 1, tr.hi + 1], dtype=np.intp)
                ctx.send(
                    tr.dest,
                    pack_arrays([shifted, data[tr.lo - lo : tr.hi - lo]]),
                    Tags.REDISTRIBUTE,
                )
                return None
            return redistribute_fields(ctx, old, new, [data[lo:hi].copy()])

        with pytest.raises(RankFailedError) as err:
            run_spmd(uniform_cluster(2), fn)
        assert "slab bounds" in str(err.value)

    def test_rejects_a_field_of_another_trailing_shape(self):
        """A (count, 3) slab sent for a (count, 2) field fails the
        verify, naming the field, before anything is placed."""
        old = partition_list(10, [1.0, 1.0])
        new = partition_list(10, [1.2, 0.8])  # plan: rank1 -> rank0 slab

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            width = 3 if ctx.rank == 1 else 2
            return redistribute_fields(ctx, old, new, [np.zeros((hi - lo, width))])

        with pytest.raises(RankFailedError) as err:
            run_spmd(uniform_cluster(2), fn)
        [failure] = err.value.failures.values()
        assert isinstance(failure, RedistributionError)
        assert "field 0" in str(failure) and "(1, 3)" in str(failure)

    def test_rejects_empty_field_list(self):
        old = partition_list(10, [1, 1])

        def fn(ctx):
            redistribute_fields(ctx, old, old, [])

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    @given(
        seed=st.integers(0, 60),
        n=st.integers(6, 250),
        p=st.integers(2, 5),
        k=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bit_identical_across_reruns(self, seed, n, p, k):
        """Every field lands at its new home bit for bit, and a rerun
        charges the same virtual times."""
        rng = np.random.default_rng(seed)
        old = partition_list(n, rng.dirichlet(np.ones(p)) + 0.05)
        new = partition_list(
            n, rng.dirichlet(np.ones(p)) + 0.05, rng.permutation(p)
        )
        fields = [rng.uniform(-1e6, 1e6, size=n) for _ in range(k)]

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            return redistribute_fields(
                ctx, old, new, [f[lo:hi].copy() for f in fields]
            )

        runs = [run_spmd(uniform_cluster(p), fn) for _ in range(2)]
        for res in runs:
            for rank, outs in enumerate(res.values):
                lo, hi = new.interval(rank)
                for f, out in zip(fields, outs):
                    np.testing.assert_array_equal(out, f[lo:hi])
        # PointToPointNetwork is deterministic, so virtual clocks must agree
        # exactly: the same payloads go out in the same order.
        assert runs[0].clocks == runs[1].clocks

    def test_single_field_wrapper_matches_fields_form(self):
        n, p = 80, 3
        rng = np.random.default_rng(3)
        old = partition_list(n, [0.5, 0.3, 0.2])
        new = partition_list(n, [0.2, 0.3, 0.5])
        base = rng.uniform(size=n)

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            a = redistribute(ctx, old, new, base[lo:hi].copy())
            [b] = redistribute_fields(ctx, old, new, [base[lo:hi].copy()])
            np.testing.assert_array_equal(a, b)
            return True

        assert all(run_spmd(uniform_cluster(p), fn).values)


class TestTransferPlanSummary:
    def test_paper_example_structure(self):
        old = partition_list(100, [0.27, 0.18, 0.34, 0.07, 0.14])
        new = partition_list(100, [0.10, 0.13, 0.29, 0.24, 0.24])
        summary = transfer_plan_summary(old, new, num_fields=2)
        assert summary["packed_messages"] == message_count(old, new)
        assert summary["moved_elements"] == sum(
            tr.count for tr in transfer_matrix(old, new)
        )
        # Every packed message is the bounds header plus both fields.
        for key, nbytes in summary["packed_message_nbytes"].items():
            src, dst = key.split("->")
            slabs = [
                tr for tr in transfer_matrix(old, new)
                if tr.source == int(src) and tr.dest == int(dst)
            ]
            count = sum(tr.count for tr in slabs)
            assert nbytes == payload_nbytes(pack_arrays([
                np.empty(2 * len(slabs), dtype=np.intp),
                np.empty(count), np.empty(count),
            ]))

    def test_identity_partition_is_empty(self):
        part = partition_list(50, np.ones(4))
        summary = transfer_plan_summary(part, part)
        assert summary["transfers"] == []
        assert summary["packed_messages"] == 0
        assert summary["moved_elements"] == 0


class TestSlabHelpers:
    """The packed slab wire format the remap, recovery and checkpoint
    exchanges share, exercised without a cluster."""

    N = 30
    OLD = partition_list(N, [1.0, 1.0, 1.0])
    NEW = partition_list(N, [1.5, 1.0, 0.5])  # keeps most, moves two slabs

    def _fields(self):
        base = np.arange(self.N, dtype=np.float64)
        return [base * 2.0, np.stack([base, -base], axis=1).astype(np.int64)]

    def _group(self, source, dest):
        return [
            tr for tr in transfer_matrix(self.OLD, self.NEW)
            if tr.source == source and tr.dest == dest
        ]

    def _first_group(self):
        return next(
            (tr.source, tr.dest, self._group(tr.source, tr.dest))
            for tr in transfer_matrix(self.OLD, self.NEW)
        )

    def test_extract_concatenates_slabs(self):
        source, _, slabs = self._first_group()
        lo, hi = self.OLD.interval(source)
        fields = self._fields()
        out = extract_slabs([f[lo:hi] for f in fields], slabs, lo)
        for got, f in zip(out, fields):
            want = np.concatenate([f[tr.lo : tr.hi] for tr in slabs])
            np.testing.assert_array_equal(got, want)

    def test_multi_slab_group_round_trips(self):
        # A dead owner's replica ships several disjoint slabs in one message.
        slabs = [Transfer(0, 1, 2, 4), Transfer(0, 1, 6, 9)]
        block = np.arange(10, dtype=np.float64) + 0.5
        parts = unpack_arrays(pack_slabs([block], slabs, 0))
        np.testing.assert_array_equal(parts[0], [2, 4, 6, 9])
        np.testing.assert_array_equal(parts[1], block[[2, 3, 6, 7, 8]])
        out = np.zeros(8)
        verify_slabs(1, "rank 0", parts, slabs, 1, [out])
        place_slabs([out], slabs, parts[1:], 2)
        np.testing.assert_array_equal(out, [2.5, 3.5, 0, 0, 6.5, 7.5, 8.5, 0])

    def test_pack_carries_bounds_first(self):
        source, _, slabs = self._first_group()
        lo, hi = self.OLD.interval(source)
        fields = self._fields()
        parts = unpack_arrays(
            pack_slabs([f[lo:hi] for f in fields], slabs, lo)
        )
        assert len(parts) == 1 + len(fields)
        assert parts[0].dtype == np.intp
        np.testing.assert_array_equal(
            parts[0], [b for tr in slabs for b in (tr.lo, tr.hi)]
        )

    def test_round_trip_rebuilds_new_blocks(self):
        fields = self._fields()
        old_owner, _ = self.OLD.dereference(np.arange(self.N))
        outs = {}
        for r in range(3):  # elements that stay put are already in place
            lo, hi = self.NEW.interval(r)
            stays = old_owner[lo:hi] == r
            outs[r] = [np.where(
                stays.reshape((-1,) + (1,) * (f.ndim - 1)), f[lo:hi], 0
            ).astype(f.dtype) for f in fields]
        pairs = {(tr.source, tr.dest) for tr in transfer_matrix(self.OLD, self.NEW)}
        for source, dest in sorted(pairs):
            slabs = self._group(source, dest)
            lo, hi = self.OLD.interval(source)
            packed = pack_slabs([f[lo:hi] for f in fields], slabs, lo)
            parts = unpack_arrays(packed)
            verify_slabs(dest, f"rank {source}", parts, slabs, len(fields),
                         outs[dest])
            place_slabs(outs[dest], slabs, parts[1:],
                        self.NEW.interval(dest)[0])
        for r in range(3):
            lo, hi = self.NEW.interval(r)
            for out, f in zip(outs[r], fields):
                np.testing.assert_array_equal(out, f[lo:hi])

    def _verify(self, parts, slabs, outs):
        verify_slabs(1, "rank 0", parts, slabs, len(outs), outs)

    def test_verify_rejects_wrong_segment_count(self):
        _, _, slabs = self._first_group()
        outs = [np.zeros(5)]
        with pytest.raises(RedistributionError, match="segments"):
            self._verify([np.arange(3)], slabs, outs)

    def test_verify_rejects_per_element_identities(self):
        _, _, slabs = self._first_group()
        count = sum(tr.count for tr in slabs)
        identity = np.concatenate([np.arange(tr.lo, tr.hi) for tr in slabs])
        parts = [identity.astype(np.intp), np.zeros(count)]
        with pytest.raises(RedistributionError, match="slab bounds"):
            self._verify(parts, slabs, [np.zeros(count)])

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b + np.array([0, 0, 1, 1]),  # a slab shifted by one
            lambda b: b[[2, 3, 0, 1]],  # two slabs swapped
            lambda b: b[:2],  # a slab missing
        ],
        ids=["shifted", "swapped", "missing"],
    )
    def test_verify_rejects_corrupt_bounds(self, corrupt):
        slabs = [Transfer(0, 1, 2, 4), Transfer(0, 1, 6, 9)]
        parts = [corrupt(slab_bounds(slabs)), np.zeros(5)]
        with pytest.raises(RedistributionError, match="slab bounds"):
            self._verify(parts, slabs, [np.zeros(5)])

    def test_verify_rejects_wrong_dtype(self):
        _, _, slabs = self._first_group()
        count = sum(tr.count for tr in slabs)
        parts = [slab_bounds(slabs), np.zeros(count, dtype=np.float32)]
        with pytest.raises(RedistributionError, match="does not match"):
            self._verify(parts, slabs, [np.zeros(count)])

    def test_verify_rejects_short_field(self):
        _, _, slabs = self._first_group()
        count = sum(tr.count for tr in slabs)
        parts = [slab_bounds(slabs), np.zeros(count - 1)]
        with pytest.raises(RedistributionError, match="does not match"):
            self._verify(parts, slabs, [np.zeros(count)])

    def test_verify_raises_the_given_error_class(self):
        _, _, slabs = self._first_group()
        with pytest.raises(ResilienceError, match="segments"):
            verify_slabs(1, "rank 0", [], slabs, 1, [np.zeros(1)],
                         error_cls=ResilienceError)
