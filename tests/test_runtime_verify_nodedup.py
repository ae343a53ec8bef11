"""Tests for global schedule verification and the no-dedup builder."""

from __future__ import annotations

import numpy as np
import pytest

from oracles_runtime import check_global_consistency
from repro.errors import ScheduleError
from repro.graph.generators import perturbed_grid_mesh
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.partition.rcb import RCBOrdering
from repro.runtime.executor import gather
from repro.runtime.kernels import build_kernel_plan, run_sequential
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    build_schedule_no_dedup,
    build_schedule_sort1,
    build_schedule_sort2,
)


@pytest.fixture(scope="module")
def mesh():
    g = perturbed_grid_mesh(12, 12, seed=6).graph
    return g.permute(RCBOrdering()(g))


@pytest.fixture(scope="module")
def part(mesh):
    return partition_list(mesh.num_vertices, [0.4, 0.35, 0.25])


class TestCheckGlobalConsistency:
    def test_accepts_valid_sorted_schedules(self, mesh, part):
        scheds = [build_schedule_sort1(mesh, part, r) for r in range(3)]
        report = check_global_consistency(scheds, mesh)
        assert report.ok
        assert report.num_ranks == 3
        assert report.total_ghost_slots > 0
        assert report.total_send_entries == report.total_ghost_slots
        assert 0 < report.max_ghost_fraction < 1.0

    def test_accepts_no_dedup_schedules(self, mesh, part):
        scheds = [build_schedule_no_dedup(mesh, part, r) for r in range(3)]
        report = check_global_consistency(scheds, mesh)
        assert report.ok

    def test_detects_tampered_send_list(self, mesh, part):
        scheds = [build_schedule_sort1(mesh, part, r) for r in range(3)]
        bad = scheds[0]
        dest = next(iter(bad.send_lists))
        tampered = dict(bad.send_lists)
        tampered[dest] = tampered[dest][:-1]  # drop one element
        scheds[0] = CommSchedule(
            rank=0, partition=part, send_lists=tampered,
            recv_lists=bad.recv_lists, ghost_globals=bad.ghost_globals,
        )
        with pytest.raises(ScheduleError, match="mismatch"):
            check_global_consistency(scheds, mesh)

    def test_detects_missing_coverage(self, mesh, part):
        scheds = [build_schedule_sort1(mesh, part, r) for r in range(3)]
        # Empty out rank 1's schedule entirely: its references go uncovered.
        scheds[1] = CommSchedule(rank=1, partition=part)
        with pytest.raises(ScheduleError):
            check_global_consistency(scheds, mesh)

    def test_nonstrict_collects_issues(self, mesh, part):
        scheds = [build_schedule_sort1(mesh, part, r) for r in range(3)]
        scheds[1] = CommSchedule(rank=1, partition=part)
        report = check_global_consistency(scheds, mesh, strict=False)
        assert not report.ok
        assert len(report.issues) >= 2  # mismatches + coverage

    def test_detects_rank_order(self, mesh, part):
        scheds = [build_schedule_sort1(mesh, part, r) for r in range(3)]
        swapped = [scheds[1], scheds[0], scheds[2]]
        with pytest.raises(ScheduleError, match="claims rank"):
            check_global_consistency(swapped)

    def test_rejects_empty_input(self):
        with pytest.raises(ScheduleError):
            check_global_consistency([])


class TestNoDedupBuilder:
    def test_ghosts_have_duplicates(self, mesh, part):
        naive = build_schedule_no_dedup(mesh, part, 1)
        dedup = build_schedule_sort2(mesh, part, 1)
        assert naive.ghost_size > dedup.ghost_size
        np.testing.assert_array_equal(
            np.unique(naive.ghost_globals), dedup.ghost_globals
        )

    def test_slot_count_equals_offproc_references(self, mesh, part):
        from repro.runtime.schedule_builders import local_references

        for r in range(3):
            naive = build_schedule_no_dedup(mesh, part, r)
            lo, hi = part.interval(r)
            _, nbr = local_references(mesh, part, r)
            off = nbr[(nbr < lo) | (nbr >= hi)]
            assert naive.ghost_size == off.size

    def test_gather_delivers_correct_values(self, mesh, part):
        y = np.random.default_rng(0).uniform(size=mesh.num_vertices)

        def fn(ctx):
            sched = build_schedule_no_dedup(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(ghost, y[sched.ghost_globals])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_kernel_still_correct(self, mesh, part):
        """The fat schedule feeds the kernel identical results."""
        y = np.random.default_rng(1).uniform(size=mesh.num_vertices)
        expected = run_sequential(mesh, y, 1)

        def fn(ctx):
            sched = build_schedule_no_dedup(mesh, part, ctx.rank)
            plan = build_kernel_plan(mesh, part, sched)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            out = plan.sweep(y[lo:hi], ghost)
            np.testing.assert_allclose(out, expected[lo:hi], rtol=1e-12)
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_send_volume_exceeds_dedup(self, mesh, part):
        naive_vol = sum(
            build_schedule_no_dedup(mesh, part, r).send_volume for r in range(3)
        )
        dedup_vol = sum(
            build_schedule_sort2(mesh, part, r).send_volume for r in range(3)
        )
        assert naive_vol > dedup_vol
