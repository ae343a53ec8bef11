"""Tests for communication schedules and the three builders (Table 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_runtime import recv_globals, send_globals, validate_pair
from repro.errors import ScheduleError
from repro.graph.generators import grid_graph, perturbed_grid_mesh
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.obs import summarize
from repro.partition.intervals import partition_list
from repro.partition.rcb import RCBOrdering
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    InspectorCostModel,
    build_schedule_simple,
    build_schedule_sort1,
    build_schedule_sort2,
    local_references,
)


@pytest.fixture(scope="module")
def ordered_mesh():
    g = perturbed_grid_mesh(12, 12, seed=3).graph
    return g.permute(RCBOrdering()(g))


def build_all_sorted(graph, part):
    return [
        build_schedule_sort1(graph, part, r)
        for r in range(part.num_processors)
    ]


class TestCommScheduleStructure:
    def test_ghost_accessors(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))
        sched = build_schedule_sort1(ordered_mesh, part, 0)
        assert sched.ghost_size == sched.ghost_globals.size
        assert sched.num_send_messages >= 1
        assert sched.num_recv_messages >= 1
        assert sched.send_volume == sum(
            a.size for a in sched.send_lists.values()
        )

    def test_send_recv_globals(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(2))
        s0 = build_schedule_sort1(ordered_mesh, part, 0)
        s1 = build_schedule_sort1(ordered_mesh, part, 1)
        np.testing.assert_array_equal(send_globals(s0, 1), recv_globals(s1, 0))
        np.testing.assert_array_equal(send_globals(s1, 0), recv_globals(s0, 1))

    def test_validate_pair_passes(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))
        scheds = build_all_sorted(ordered_mesh, part)
        for a in scheds:
            for b in scheds:
                if a.rank != b.rank:
                    validate_pair(a, b)

    def test_validate_pair_detects_mismatch(self):
        part = partition_list(4, np.ones(2))
        good = CommSchedule(
            rank=0,
            partition=part,
            send_lists={1: np.array([1])},
            recv_lists={1: np.array([0])},
            ghost_globals=np.array([2]),
        )
        bad = CommSchedule(
            rank=1,
            partition=part,
            send_lists={0: np.array([0])},
            recv_lists={0: np.array([0])},
            ghost_globals=np.array([0]),  # expects global 0, not 1
        )
        with pytest.raises(ScheduleError):
            validate_pair(good, bad)

    def test_rejects_self_send(self):
        part = partition_list(4, np.ones(2))
        with pytest.raises(ScheduleError):
            CommSchedule(rank=0, partition=part, send_lists={0: np.array([0])})

    def test_rejects_local_index_out_of_block(self):
        part = partition_list(4, np.ones(2))
        with pytest.raises(ScheduleError):
            CommSchedule(rank=0, partition=part, send_lists={1: np.array([7])})

    def test_rejects_unfilled_ghost_slot(self):
        part = partition_list(4, np.ones(2))
        with pytest.raises(ScheduleError, match="never filled"):
            CommSchedule(
                rank=0,
                partition=part,
                recv_lists={1: np.array([0])},
                ghost_globals=np.array([2, 3]),
            )

    def test_rejects_double_filled_slot(self):
        part = partition_list(6, np.ones(3))
        with pytest.raises(ScheduleError, match="two sources"):
            CommSchedule(
                rank=0,
                partition=part,
                recv_lists={1: np.array([0]), 2: np.array([0])},
                ghost_globals=np.array([2]),
            )


class TestLocalReferences:
    def test_counts_match_degrees(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(2))
        src, nbr = local_references(ordered_mesh, part, 0)
        lo, hi = part.interval(0)
        assert src.size == nbr.size
        assert src.size == int(ordered_mesh.degrees[lo:hi].sum())
        assert np.all((src >= lo) & (src < hi))

    def test_empty_block(self):
        g = grid_graph(3, 3)
        part = partition_list(9, [1.0, 0.0, 1.0])
        src, nbr = local_references(g, part, 1)
        assert src.size == 0 and nbr.size == 0


class TestSortedBuilders:
    def test_sort1_sort2_identical_schedules(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, [0.5, 0.3, 0.2])
        for r in range(3):
            s1 = build_schedule_sort1(ordered_mesh, part, r)
            s2 = build_schedule_sort2(ordered_mesh, part, r)
            np.testing.assert_array_equal(s1.ghost_globals, s2.ghost_globals)
            assert s1.send_lists.keys() == s2.send_lists.keys()
            for d in s1.send_lists:
                np.testing.assert_array_equal(s1.send_lists[d], s2.send_lists[d])

    def test_segments_sorted_by_home_local_reference(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(4))
        sched = build_schedule_sort1(ordered_mesh, part, 2)
        for src in sched.recv_lists:
            g = recv_globals(sched, src)
            assert np.all(np.diff(g) > 0)  # ascending == ascending local ref
        for dest in sched.send_lists:
            assert np.all(np.diff(sched.send_lists[dest]) > 0)

    def test_ghosts_are_exactly_offproc_neighbors(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))
        sched = build_schedule_sort1(ordered_mesh, part, 1)
        lo, hi = part.interval(1)
        _, nbr = local_references(ordered_mesh, part, 1)
        expected = np.unique(nbr[(nbr < lo) | (nbr >= hi)])
        np.testing.assert_array_equal(sched.ghost_globals, expected)

    def test_single_processor_no_traffic(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, [1.0])
        sched = build_schedule_sort1(ordered_mesh, part, 0)
        assert sched.ghost_size == 0
        assert not sched.send_lists

    def test_zero_communication_build(self, ordered_mesh):
        """sort1/sort2 build schedules without any messages (the symmetry
        optimization of Sec. 3.2)."""
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))

        def fn(ctx):
            build_schedule_sort1(ordered_mesh, part, ctx.rank, ctx=ctx)
            build_schedule_sort2(ordered_mesh, part, ctx.rank, ctx=ctx)

        res = run_spmd(uniform_cluster(3), fn, trace=True)
        assert sum(summarize(res.trace).messages_by_tag.values()) == 0

    def test_sort2_charges_less_than_sort1(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))

        def fn(ctx):
            t0 = ctx.clock
            build_schedule_sort1(ordered_mesh, part, ctx.rank, ctx=ctx)
            t1 = ctx.clock
            build_schedule_sort2(ordered_mesh, part, ctx.rank, ctx=ctx)
            return (t1 - t0, ctx.clock - t1)

        res = run_spmd(uniform_cluster(3), fn)
        for c1, c2 in res.values:
            assert c2 < c1

    def test_cost_model_scaling(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(2))
        cheap = InspectorCostModel(sec_per_ref=1e-9, sec_per_sort_op=1e-9,
                                   sec_per_linear_op=1e-9, sec_per_translate=1e-9)

        def fn(ctx):
            build_schedule_sort1(ordered_mesh, part, ctx.rank, ctx=ctx,
                                 cost_model=cheap)
            return ctx.clock

        res = run_spmd(uniform_cluster(2), fn)
        assert max(res.values) < 1e-3


class TestSimpleBuilder:
    def test_schedule_equivalent_to_sorted(self, ordered_mesh):
        """Simple strategy produces the same logical schedule (same data
        moves) as the sorted strategies, just in request order."""
        part = partition_list(ordered_mesh.num_vertices, [0.4, 0.35, 0.25])

        def fn(ctx):
            return build_schedule_simple(ordered_mesh, part, ctx=ctx)

        res = run_spmd(uniform_cluster(3), fn)
        scheds = res.values
        for a in scheds:
            for b in scheds:
                if a.rank != b.rank:
                    validate_pair(a, b)
        # Ghost *sets* agree with the sorted builders.
        for r in range(3):
            sorted_sched = build_schedule_sort1(ordered_mesh, part, r)
            np.testing.assert_array_equal(
                np.sort(scheds[r].ghost_globals), sorted_sched.ghost_globals
            )

    def test_simple_requires_communication(self, ordered_mesh):
        part = partition_list(ordered_mesh.num_vertices, np.ones(3))

        def fn(ctx):
            build_schedule_simple(ordered_mesh, part, ctx=ctx)

        res = run_spmd(uniform_cluster(3), fn, trace=True)
        assert sum(summarize(res.trace).messages_by_tag.values()) > 0

    def test_simple_needs_ctx(self, ordered_mesh):
        from repro.runtime.inspector import run_inspector

        part = partition_list(ordered_mesh.num_vertices, np.ones(2))
        with pytest.raises(ScheduleError):
            run_inspector(ordered_mesh, part, 0, strategy="simple")


class TestPairwiseConsistencyProperty:
    @given(
        seed=st.integers(0, 50),
        p=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_pairs_consistent_on_random_meshes(self, seed, p):
        g = perturbed_grid_mesh(7, 7, seed=seed).graph
        g = g.permute(RCBOrdering()(g))
        rng = np.random.default_rng(seed)
        caps = rng.dirichlet(np.ones(p)) + 0.05
        part = partition_list(g.num_vertices, caps)
        scheds = build_all_sorted(g, part)
        for a in scheds:
            for b in scheds:
                if a.rank != b.rank:
                    validate_pair(a, b)
        # Union of ghosts+locals covers every referenced index.
        for r in range(p):
            lo, hi = part.interval(r)
            _, nbr = local_references(g, part, r)
            off = np.unique(nbr[(nbr < lo) | (nbr >= hi)])
            np.testing.assert_array_equal(scheds[r].ghost_globals, off)
