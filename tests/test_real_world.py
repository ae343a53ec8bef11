"""Real-process execution world: transport, differential contract, recovery.

Everything here is marked ``real`` (see pytest.ini): selected by default,
skippable with ``-m "not real"`` for the fastest laptop loop, and run alone
by CI's real-smoke job.  Rank functions are module-level so they work under
any multiprocessing start method.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import CommunicationError, ConfigurationError, RankFailedError
from repro.net.cluster import uniform_cluster
from repro.net.framing import (
    KIND_ARRAY,
    KIND_PACKED,
    KIND_PICKLE,
    FrameReader,
    decode_payload,
    encode_payload,
    frame_parts,
)
from repro.net.message import PackedArrays, pack_arrays, unpack_arrays
from repro.net.spmd import run_spmd
from repro.runtime.program import ProgramConfig, run_program

pytestmark = pytest.mark.real


# ------------------------------------------------------------------ #
# framing layer
# ------------------------------------------------------------------ #


def _read_to_eof(sock):
    """Every frame on *sock* until its EOF, through one FrameReader."""
    reader = FrameReader()
    frames = []
    while True:
        buf = reader.buffer()
        n = sock.recv_into(buf)
        if n == 0:
            reader.eof()
            return frames
        frames += reader.advance(n)


class TestFraming:
    def _roundtrip(self, payload, tag=101):
        a, b = socket.socketpair()
        try:
            kind, meta, body = encode_payload(payload)
            a.sendmsg(frame_parts(3, tag, kind, meta, body))
            a.shutdown(socket.SHUT_WR)
            (frame,) = _read_to_eof(b)
        finally:
            a.close()
            b.close()
        assert frame.source == 3 and frame.tag == tag and frame.kind == kind
        return decode_payload(frame.kind, frame.meta, frame.body)

    def test_array_roundtrip(self):
        arr = np.arange(1000, dtype=np.float64).reshape(50, 20)
        out = self._roundtrip(arr)
        assert out.dtype == arr.dtype and np.array_equal(out, arr)

    def test_array_roundtrip_is_writable(self):
        out = self._roundtrip(np.ones(8))
        out[0] = 7.0  # sim payloads are writable; real ones must match
        assert out[0] == 7.0

    def test_packed_roundtrip(self):
        packed = pack_arrays(
            [np.arange(5, dtype=np.int64), np.linspace(0, 1, 7)]
        )
        out = self._roundtrip(packed)
        assert isinstance(out, PackedArrays)
        assert out.index == packed.index
        assert np.array_equal(out.buffer, packed.buffer)

    def test_pickle_fallback_roundtrip(self):
        payload = {"a": 1, "b": (2.5, "x"), "mask": [True, False]}
        assert self._roundtrip(payload) == payload

    def test_kind_selection(self):
        assert encode_payload(np.ones(3))[0] == KIND_ARRAY
        assert encode_payload(pack_arrays([np.ones(3)]))[0] == KIND_PACKED
        assert encode_payload({"k": 1})[0] == KIND_PICKLE

    def test_eof_between_frames_is_clean(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert _read_to_eof(b) == []
        finally:
            b.close()

    def test_desync_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"not a frame header at all....")
            a.shutdown(socket.SHUT_WR)
            with pytest.raises(CommunicationError, match="magic"):
                _read_to_eof(b)
        finally:
            a.close()
            b.close()


# ------------------------------------------------------------------ #
# real SPMD runs
# ------------------------------------------------------------------ #


def _ring_and_collectives(ctx):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    ctx.send(right, np.arange(4, dtype=np.float64) + ctx.rank, tag=200)
    got = ctx.recv(left, 200)
    total = sum(ctx.allgather(float(got.sum())))
    gathered = ctx.allgather(ctx.rank * 10)
    ctx.barrier()
    return (os.getpid(), total, gathered, ctx.clock)


def _shared_surface_probe(ctx):
    ctx.compute(100 * 1.0e-6, label="probe")
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    ctx.send(right, pack_arrays([np.arange(3.0) + ctx.rank, np.ones(2)]), tag=210)
    a, b = unpack_arrays(ctx.recv(left, 210))
    return ctx.allgather(float(a.sum() + b.sum()))


def _bcast_counts_probe(ctx):
    """Per-rank (messages_sent, ..., bytes_recv) after two broadcasts."""
    ctx.bcast(np.arange(10.0) if ctx.rank == 0 else None)
    ctx.bcast({"round": 1, "weights": [0.5, 0.25, 0.25]} if ctx.rank == 0 else None)
    c = ctx.metrics.snapshot()["counters"]
    return tuple(
        c.get(f"net.{name}", 0)
        for name in ("messages_sent", "messages_recv", "bytes_sent", "bytes_recv")
    )


def _multicast_then_barrier(ctx):
    if ctx.rank == 0:
        ctx.multicast(range(ctx.size), np.arange(10.0), tag=220)
    else:
        ctx.recv(0, 220)
    ctx.barrier()
    snap = ctx.metrics.snapshot()
    return snap["counters"]["net.barriers"], snap["histograms"]["net.barrier_wait"]["count"]


def _clock_monotone_probe(ctx):
    clocks = []
    for _ in range(3):
        clocks.append(ctx.clock)
        ctx.barrier()
        clocks.append(ctx.clock)
    assert clocks == sorted(clocks), "latched clock moved backwards"
    return clocks[-1]


def _deadlock_on_rank0(ctx):
    if ctx.rank == 0:
        return ctx.recv(1, tag=300)  # rank 1 never sends on this tag
    ctx.send(0, "wrong channel", tag=301)
    return None


def _boom_on_rank2(ctx):
    ctx.barrier()
    if ctx.rank == 2:
        raise ValueError("intentional rank failure")
    # Other ranks block; the error cascade must wake them.
    return ctx.recv(2, tag=400)


def _sigkill_on_rank1(ctx):
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return ctx.rank


def _sigstop_on_rank1(ctx):
    ctx.barrier()
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGSTOP)
    ctx.barrier()  # rank 0 times out waiting for rank 1
    return ctx.rank


def _stuffing_floats():
    """float64 count of a payload of at least 4x (SO_SNDBUF + SO_RCVBUF)
    of a fresh loopback TCP connection, and of at least 16 MiB: both
    buffers grow from those values as the connection carries data."""
    with socket.create_server(("127.0.0.1", 0)) as srv:
        with socket.create_connection(srv.getsockname()[:2]) as c:
            held = c.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            held += c.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    return max(4 * held, 16 << 20) // 8


def _large_send_before_receive(ctx, n):
    """Every rank sends *n* floats to its right neighbour, then receives
    from its left: no rank reads before its own send has gone out."""
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    ctx.send(right, np.full(n, float(ctx.rank)), tag=250)
    got = ctx.recv(left, 250)
    assert got.shape == (n,) and np.all(got == float(left))
    # The rank drives its own sockets: no reader threads.
    assert threading.enumerate() == [threading.main_thread()]
    return ctx.rank


def _barrier_storm(ctx, rounds, seed):
    rng = random.Random(seed * 100 + ctx.rank)
    entries, exits = [], []
    for _ in range(rounds):
        time.sleep(rng.uniform(0.0, 5e-4))
        entries.append(ctx.clock)
        ctx.barrier()
        exits.append(ctx.clock)
    return entries, exits


def _sigstop_then_large_send(ctx, n, stamp):
    ctx.barrier()
    if ctx.rank == 1:
        os.kill(os.getpid(), signal.SIGSTOP)
    with open(stamp, "w") as f:  # the monotonic clock is system-wide
        f.write(repr(time.monotonic()))
    ctx.send(1, np.ones(n), tag=260)  # more than rank 1's buffers hold
    return ctx.rank


class TestRealSPMD:
    def test_runs_on_distinct_processes(self):
        res = run_spmd(
            uniform_cluster(4), _ring_and_collectives,
            world="real", recv_timeout=30,
        )
        pids = {v[0] for v in res.values}
        assert len(pids) == 4
        assert os.getpid() not in pids
        left_sums = [v[1] for v in res.values]
        expected = sum(4 * r + 6 for r in range(4))  # sum over all rings
        assert left_sums == [expected] * 4
        assert all(v[2] == [0, 10, 20, 30] for v in res.values)

    def test_barrier_agrees_clocks(self):
        res = run_spmd(
            uniform_cluster(4), _ring_and_collectives,
            world="real", recv_timeout=30,
        )
        # The rank fn ends right after a barrier: every rank must have
        # adopted the identical agreed clock.
        clocks = [v[3] for v in res.values]
        assert len(set(clocks)) == 1
        assert clocks[0] > 0.0

    def test_clock_monotone_across_barriers(self):
        run_spmd(
            uniform_cluster(3), _clock_monotone_probe,
            world="real", recv_timeout=30,
        )

    def test_recv_timeout_names_blocked_receive(self):
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                uniform_cluster(2), _deadlock_on_rank0,
                world="real", recv_timeout=1.0,
            )
        failure = ei.value.failures[0]
        msg = str(failure)
        assert "rank 0" in msg
        assert "source=1, tag=300" in msg
        assert "1 non-matching message(s) buffered" in msg
        assert "recv-timeout" in msg or "RECV_TIMEOUT" in msg

    def test_killed_worker_is_reported_as_killed(self):
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                uniform_cluster(3), _sigkill_on_rank1,
                world="real", recv_timeout=10,
            )
        failure = ei.value.failures[1]
        assert isinstance(failure, CommunicationError)
        msg = str(failure)
        assert "rank 1" in msg
        assert "died without reporting" in msg
        assert "exit code -9" in msg and "SIGKILL" in msg
        assert multiprocessing.active_children() == []

    def test_stopped_worker_is_killed_and_named(self):
        """A stopped worker neither reports nor exits: once a peer has
        failed, the parent kills it at once and names it, without waiting
        out recv_timeout + grace."""
        recv_timeout = 1.0
        start = time.monotonic()
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                uniform_cluster(3), _sigstop_on_rank1,
                world="real", recv_timeout=recv_timeout,
            )
        assert time.monotonic() - start < recv_timeout + 3.0
        failure = ei.value.failures[1]
        assert isinstance(failure, CommunicationError)
        msg = str(failure)
        # Ranks 0 and 2 both time out in the barrier; either may report
        # first.  The stopped rank is killed on the wake that brings the
        # first failure.
        named = re.fullmatch(
            r"rank 1: unresponsive for ([\d.]+) s after rank [02] failed "
            r"\(process stopped\)",
            msg,
        )
        assert named and float(named[1]) < recv_timeout
        assert multiprocessing.active_children() == []

    def test_large_send_to_stopped_peer_fails_and_names_it(self, tmp_path):
        """A send to a stopped peer raises within recv_timeout of its
        start, however many chunks the peer's kernel still takes, instead
        of blocking forever on a full socket."""
        recv_timeout = 1.0
        stamp = tmp_path / "send_start"
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                uniform_cluster(2), _sigstop_then_large_send,
                _stuffing_floats(), str(stamp), world="real",
                recv_timeout=recv_timeout,
            )
        # From the send's start to the parent's diagnosis: one deadline,
        # not one per chunk taken (about 2 x recv_timeout).
        assert time.monotonic() - float(stamp.read_text()) < recv_timeout + 0.5
        failure = ei.value.failures[0]
        assert isinstance(failure, CommunicationError)
        assert "rank 0: send to rank 1 (tag 260) not done within 1.0s" in str(
            failure
        )
        named = re.fullmatch(
            r"rank 1: unresponsive for ([\d.]+) s after rank 0 failed "
            r"\(process stopped\)",
            str(ei.value.failures[1]),
        )
        assert named and float(named[1]) < recv_timeout
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("size", [2, 3])
    def test_large_sends_before_receives_complete(self, size):
        res = run_spmd(
            uniform_cluster(size), _large_send_before_receive,
            _stuffing_floats(), world="real", recv_timeout=30,
        )
        assert res.values == list(range(size))

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_back_to_back_barriers_agree(self, size):
        rounds = 200
        res = run_spmd(
            uniform_cluster(size), _barrier_storm, rounds, size,
            world="real", recv_timeout=30,
        )
        entries = np.array([v[0] for v in res.values])  # (rank, round)
        exits = np.array([v[1] for v in res.values])
        # Identical exit clocks on every rank (a message taken from the
        # wrong round would split them), each >= every entry clock.
        assert (exits == exits[0]).all()
        assert (exits[0] >= entries.max(axis=0)).all()
        assert (np.diff(exits[0]) > 0).all()

    def test_rank_failure_cascades(self):
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                uniform_cluster(4), _boom_on_rank2,
                world="real", recv_timeout=30,
            )
        primary = ei.value.failures
        assert 2 in primary
        assert isinstance(primary[2], ValueError)

    def test_world_validation(self):
        with pytest.raises(ConfigurationError, match="world"):
            run_spmd(uniform_cluster(2), _ring_and_collectives, world="cloud")

    def test_trace_ships_spans_from_real_workers(self):
        res = run_spmd(
            uniform_cluster(2), _ring_and_collectives,
            world="real", recv_timeout=30, trace=True,
        )
        events = res.trace.events()
        kinds = {e.kind for e in events}
        assert {"send", "recv", "barrier"} <= kinds
        # Both workers' buffers made it back to the parent merge.
        assert {e.rank for e in events} == {0, 1}

    def test_flat_event_kinds_match_across_worlds(self):
        """The shared operations (compute, packed send/recv, a
        collective) trace the same flat events in the same per-rank
        order in both worlds; only the times differ."""

        def flat_kinds(world):
            res = run_spmd(
                uniform_cluster(2), _shared_surface_probe,
                world=world, recv_timeout=30, trace=True,
            )
            per_rank = {}
            for rank in range(2):
                events = sorted(
                    (e for e in res.trace.events()
                     if e.rank == rank and e.span_id < 0),
                    key=lambda e: e.seq,
                )
                per_rank[rank] = [e.kind for e in events]
            return res.values, per_rank

        sim_values, sim_kinds = flat_kinds("sim")
        real_values, real_kinds = flat_kinds("real")
        assert sim_values == real_values
        for rank in range(2):
            # The bootstrap round that aligns a real worker's clock epoch
            # is not a program barrier: it traces nothing.
            assert real_kinds[rank] == sim_kinds[rank]
            assert sim_kinds[rank][:3] == ["compute", "send", "recv"]

    def test_real_flat_events_tile_the_timeline(self):
        """Every flat event starts at the clock the previous one latched,
        so a real rank's events cover its timeline without gaps."""
        res = run_spmd(
            uniform_cluster(3), _ring_and_collectives,
            world="real", recv_timeout=30, trace=True,
        )
        for rank in range(3):
            events = sorted(
                (e for e in res.trace.events()
                 if e.rank == rank and e.span_id < 0),
                key=lambda e: e.seq,
            )
            assert len(events) > 5
            for before, after in zip(events, events[1:]):
                assert after.t_start == before.t_end

    @pytest.mark.parametrize("size", [1, 3])
    def test_multicast_and_barrier_trace_alike_across_worlds(self, size):
        """A multicast is one event and one count, and a barrier is traced
        and timed, in both worlds and on any number of ranks."""

        def shape(world):
            res = run_spmd(
                uniform_cluster(size), _multicast_then_barrier,
                world=world, recv_timeout=30, trace=True,
            )
            flat = sorted(
                ((e.rank, e.seq, e.kind, e.peer, e.nbytes, e.label)
                 for e in res.trace.events() if e.span_id < 0),
            )
            return res.values, flat

        sim, real = shape("sim"), shape("real")
        assert sim == real
        values, flat = sim
        assert values == [(1, 1)] * size
        sends = [e for e in flat if e[2] == "send"]
        assert [e[3:] for e in sends] == ([(-1, 96, f"x{size - 1}")] if size > 1 else [])

    def test_trace_capacity_caps_real_buffer(self):
        res = run_spmd(
            uniform_cluster(2), _ring_and_collectives,
            world="real", recv_timeout=30, trace=True, trace_capacity=2,
        )
        # Each worker keeps at most 2 events; the merged log counts what
        # each side dropped.
        assert len(res.trace.events()) <= 4
        assert res.trace.dropped_events > 0


# ------------------------------------------------------------------ #
# sim-vs-real differential contract
# ------------------------------------------------------------------ #


class TestDifferential:
    def test_program_values_bit_identical(self, tiny_paper_mesh):
        y0 = np.random.default_rng(11).uniform(0, 100, 500)
        cluster = uniform_cluster(4)
        sim = run_program(
            tiny_paper_mesh, cluster,
            ProgramConfig(iterations=12), y0=y0,
        )
        real = run_program(
            tiny_paper_mesh, cluster,
            ProgramConfig(
                iterations=12, world="real", recv_timeout=30,
            ),
            y0=y0,
        )
        assert sim.differences(real, virtual=False) == []
        # One meaning per counter: messages and bytes are counted per
        # send/multicast call by payload_nbytes, and the real world's
        # clock-epoch alignment before the rank function is not a program
        # barrier.
        counters = [r.metrics["counters"] for r in (sim, real)]
        assert counters[0] == counters[1]
        assert counters[0]["net.barriers"] > 0
        assert counters[0]["net.bytes_sent"] == counters[0]["net.bytes_recv"]

    def test_bcast_counts_match_across_worlds(self):
        """A broadcast is one message of ``payload_nbytes`` bytes at the
        root in both worlds, though the real world writes one frame per
        receiver; each receiver counts what it took."""
        res = {
            world: run_spmd(
                uniform_cluster(3), _bcast_counts_probe,
                world=world, recv_timeout=30,
            )
            for world in ("sim", "real")
        }
        assert res["sim"].values == res["real"].values
        root, *leaves = res["sim"].values
        nbytes = root[2]
        assert root == (2, 0, nbytes, 0)  # two broadcasts, one count each
        assert leaves == [(0, 2, 0, nbytes)] * 2

    def test_unannounced_failure_recovery_real_world(self, tiny_paper_mesh):
        y0 = np.random.default_rng(5).uniform(0, 100, 500)
        cluster = uniform_cluster(4)
        # Membership times are wall seconds in the real world: fail rank 1
        # 20 ms in, early enough that 150 iterations always reach it.
        common = dict(
            iterations=150,
            membership="fail:1@0.02",
            checkpoint="interval:3",
            initial_capabilities="equal",
        )
        real = run_program(
            tiny_paper_mesh, cluster,
            ProgramConfig(world="real", recv_timeout=30, **common),
            y0=y0,
        )
        assert real.num_rollbacks >= 1
        assert real.membership_events == 1
        # The sim world sees the same event at virtual t=0.02; recovery and
        # re-execution must leave the final field bit-identical.
        sim = run_program(
            tiny_paper_mesh, cluster, ProgramConfig(**common), y0=y0
        )
        assert sim.differences(real, virtual=False) == []

    def test_config_world_validation(self):
        with pytest.raises(ConfigurationError, match="world"):
            ProgramConfig(world="really")
        with pytest.raises(ConfigurationError, match="trace_capacity"):
            ProgramConfig(trace=True, trace_capacity=0)
        with pytest.raises(ConfigurationError, match="recv_timeout"):
            ProgramConfig(recv_timeout=0.0)

    def test_span_structure_matches_across_worlds(self, tiny_paper_mesh):
        """The span hierarchy is world-independent: same kinds, same
        nesting, same order on every rank — only the clocks differ."""
        y0 = np.random.default_rng(7).uniform(0, 100, 500)
        cluster = uniform_cluster(2)
        common = dict(iterations=6, checkpoint="interval:2", trace=True)
        sim = run_program(
            tiny_paper_mesh, cluster, ProgramConfig(**common), y0=y0
        )
        real = run_program(
            tiny_paper_mesh, cluster,
            ProgramConfig(world="real", recv_timeout=30, **common),
            y0=y0,
        )

        def span_shape(report):
            events = [e for e in report.trace.events() if e.span_id >= 0]
            shape = {}
            for rank in range(cluster.size):
                spans = sorted(
                    (e for e in events if e.rank == rank),
                    key=lambda e: e.seq,
                )
                kind_of = {e.span_id: e.kind for e in spans}
                shape[rank] = [
                    (e.kind, kind_of.get(e.parent_id)) for e in spans
                ]
            return shape

        sim_shape = span_shape(sim)
        assert sim_shape == span_shape(real)
        kinds = {k for spans in sim_shape.values() for k, _ in spans}
        assert {"program", "epoch", "executor", "inspector", "checkpoint"} <= kinds
        # Nesting: epochs under the program span, executors under epochs.
        for spans in sim_shape.values():
            assert ("epoch", "program") in spans
            assert ("executor", "epoch") in spans


def _checkpoint_probe(ctx, n):
    from repro.partition.intervals import partition_list
    from repro.runtime.resilience import take_checkpoint

    part = partition_list(n, np.ones(ctx.size))
    lo, hi = part.interval(ctx.rank)
    local = np.arange(lo, hi, dtype=np.float64)
    cp = take_checkpoint(
        ctx, part, (local,), np.ones(ctx.size, dtype=bool),
        next_iteration=0, epoch=0,
    )
    return sorted(cp.replicas)


class TestRealResilienceProtocol:
    def test_checkpoint_ring_over_sockets(self):
        res = run_spmd(
            uniform_cluster(4), _checkpoint_probe, 400,
            world="real", recv_timeout=30,
        )
        # Each rank holds the replica of its ring predecessor.
        assert res.values == [[3], [0], [1], [2]]
