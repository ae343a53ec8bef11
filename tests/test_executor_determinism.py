"""Determinism of executor send/recv ordering (ISSUE 2 satellite).

``gather``/``scatter`` iterate schedule dictionaries — these tests pin three
properties:

* sends are issued in ascending peer order regardless of dict insertion
  order (``sorted(...)`` is load-bearing, not incidental);
* received contributions are **applied** in ascending peer order, not
  message-arrival order — so ``scatter`` accumulation is
  bit-deterministic even though floating-point addition does not commute
  across thread-scheduling-dependent arrival orders;
* repeated runs produce bit-identical buffers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import perturbed_grid_mesh
from repro.net.cluster import heterogeneous_cluster, uniform_cluster
from repro.net.message import Tags
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.executor import gather, scatter
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import build_schedule_sort2


@pytest.fixture(scope="module")
def workload():
    graph = perturbed_grid_mesh(12, 12, seed=9).graph
    part = partition_list(graph.num_vertices, [0.4, 0.25, 0.2, 0.15])
    scheds = [build_schedule_sort2(graph, part, r) for r in range(4)]
    y = np.random.default_rng(9).uniform(-1e8, 1e8, graph.num_vertices)
    return graph, part, scheds, y


def _reversed_dicts(sched: CommSchedule) -> CommSchedule:
    """The same schedule with reversed dict insertion order."""
    return CommSchedule(
        rank=sched.rank,
        partition=sched.partition,
        send_lists={k: sched.send_lists[k].copy()
                    for k in sorted(sched.send_lists, reverse=True)},
        recv_lists={k: sched.recv_lists[k].copy()
                    for k in sorted(sched.recv_lists, reverse=True)},
        ghost_globals=sched.ghost_globals.copy(),
    )


def _expected_scatter_add(part, scheds, y):
    """Serial oracle: contributions applied in ascending peer order."""
    expected = []
    for r, sched in enumerate(scheds):
        lo, hi = part.interval(r)
        local = y[lo:hi].copy()
        for s in sorted(sched.send_lists):
            if not sched.send_lists[s].size:
                continue
            pos = scheds[s].recv_lists[r]
            payload = y[scheds[s].ghost_globals[pos]]
            np.add.at(local, sched.send_lists[s], payload)
        expected.append(local)
    return expected


class TestOrderingDeterminism:
    def test_sends_issued_in_ascending_peer_order(self, workload):
        _, part, scheds, y = workload

        def fn(ctx):
            sched = _reversed_dicts(scheds[ctx.rank])
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            local = np.zeros(hi - lo)
            scatter(ctx, sched, ghost, local)
            return True

        res = run_spmd(uniform_cluster(4), fn, trace=True)
        for r in range(4):
            for tag in (Tags.EXECUTOR_GATHER, Tags.EXECUTOR_SCATTER):
                peers = [e.peer for e in res.trace
                         if e.kind == "send" and e.rank == r and e.tag == tag]
                assert peers == sorted(peers), (r, tag, peers)
                assert len(peers) == len(set(peers))  # one message per peer

    def test_scatter_add_applies_in_ascending_peer_order(self, workload):
        _, part, scheds, y = workload
        expected = _expected_scatter_add(part, scheds, y)

        def fn(ctx):
            sched = scheds[ctx.rank]
            lo, hi = part.interval(ctx.rank)
            local = y[lo:hi].copy()
            ghost = y[sched.ghost_globals]  # as filled by a correct gather
            scatter(ctx, sched, ghost, local)
            return local

        # Repeat: thread scheduling (hence arrival order) varies, results
        # must not.  Bitwise comparison against the ascending-order oracle.
        for _ in range(5):
            res = run_spmd(uniform_cluster(4), fn)
            for r in range(4):
                np.testing.assert_array_equal(res.values[r], expected[r])

    def test_insertion_order_cannot_change_results(self, workload):
        _, part, scheds, y = workload

        def run(make_sched):
            def fn(ctx):
                sched = make_sched(scheds[ctx.rank])
                lo, hi = part.interval(ctx.rank)
                local = y[lo:hi].copy()
                ghost = gather(ctx, sched, local)
                scatter(ctx, sched, ghost, local)
                return ghost, local

            return run_spmd(uniform_cluster(4), fn)

        res_fwd = run(lambda s: s)
        res_rev = run(_reversed_dicts)
        for (ga, la), (gb, lb) in zip(res_fwd.values, res_rev.values):
            np.testing.assert_array_equal(ga, gb)
            np.testing.assert_array_equal(la, lb)


def test_scatter_add_deterministic_on_heterogeneous_cluster(workload):
    """Speed skew reorders arrivals; accumulation order must not follow."""
    _, part, scheds, y = workload
    expected = _expected_scatter_add(part, scheds, y)

    def fn(ctx):
        sched = scheds[ctx.rank]
        lo, hi = part.interval(ctx.rank)
        local = y[lo:hi].copy()
        ghost = y[sched.ghost_globals]
        scatter(ctx, sched, ghost, local)
        return local

    cluster = heterogeneous_cluster([1.0, 0.3, 0.9, 0.5])
    for _ in range(3):
        res = run_spmd(cluster, fn)
        for r in range(4):
            np.testing.assert_array_equal(res.values[r], expected[r])
