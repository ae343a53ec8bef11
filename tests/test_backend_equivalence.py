"""Differential tests: the ``reference`` and ``vectorized`` backends must
produce **bit-identical** translation tables, schedules, kernel plans, and
gather/scatter results — and identical virtual time — on randomized meshes,
partitions, and capability vectors.

These tests are the contract that lets the vectorized hot paths evolve
freely: any divergence from the scalar paper-faithful implementation is a
bug in one of the two.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles_runtime import dereference_oracle
from repro.graph.generators import perturbed_grid_mesh, random_geometric_graph
from repro.net.cluster import heterogeneous_cluster, uniform_cluster
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.backend import BACKENDS, resolve_backend, use_backend
from repro.runtime.executor import gather, scatter
from repro.runtime.kernels import build_kernel_plan
from repro.runtime.program import ProgramConfig, run_program
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    build_schedule_no_dedup,
    build_schedule_simple,
    build_schedule_sort1,
    build_schedule_sort2,
)
from repro.runtime.translation import DistributedTranslationTable

MAX_P = 4


def random_workload(seed: int):
    """A random (graph, partition, p) triple driven by one seed.

    Alternates mesh families; capability vectors are random (so block sizes
    are uneven), and the arrangement is a random permutation (so rank order
    differs from block order).
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, MAX_P + 1))
    if seed % 2:
        side = int(rng.integers(5, 11))
        graph = perturbed_grid_mesh(side, side, seed=seed).graph
    else:
        n = int(rng.integers(40, 140))
        graph = random_geometric_graph(n, seed=seed)
    caps = rng.uniform(0.2, 1.0, p)
    arrangement = rng.permutation(p)
    part = partition_list(graph.num_vertices, caps, arrangement)
    return graph, part, p, rng


def assert_schedules_identical(a: CommSchedule, b: CommSchedule) -> None:
    assert a.rank == b.rank
    assert sorted(a.send_lists) == sorted(b.send_lists)
    for dest in a.send_lists:
        np.testing.assert_array_equal(a.send_lists[dest], b.send_lists[dest])
    assert sorted(a.recv_lists) == sorted(b.recv_lists)
    for src in a.recv_lists:
        np.testing.assert_array_equal(a.recv_lists[src], b.recv_lists[src])
    np.testing.assert_array_equal(a.ghost_globals, b.ghost_globals)


class TestTranslationTables:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_interval_table_dereference(self, seed):
        graph, part, p, rng = random_workload(seed)
        gi = rng.integers(0, part.num_elements, size=50)
        ro, rl = dereference_oracle(part, gi)
        vo, vl = part.dereference(gi)
        np.testing.assert_array_equal(ro, vo)
        np.testing.assert_array_equal(rl, vl)

    @pytest.mark.parametrize("seed", range(6))
    def test_distributed_table_collective(self, seed):
        _, part, p, rng = random_workload(seed)
        n = part.num_elements
        queries = [rng.integers(0, n, size=int(rng.integers(0, 30)))
                   for _ in range(p)]

        def run(backend):
            def fn(ctx):
                table = DistributedTranslationTable(part, ctx.rank)
                return table.dereference_collective(
                    ctx, queries[ctx.rank], backend=backend
                )

            return run_spmd(uniform_cluster(p), fn)

        res_ref, res_vec = run("reference"), run("vectorized")
        for (ro, rl), (vo, vl) in zip(res_ref.values, res_vec.values):
            np.testing.assert_array_equal(ro, vo)
            np.testing.assert_array_equal(rl, vl)
        # Virtual-time parity: backends issue identical charges; the wide
        # tolerance absorbs network-contention ordering, which varies with
        # host thread scheduling even within one backend on these
        # microsecond-scale runs.
        assert res_ref.makespan == pytest.approx(res_vec.makespan, rel=0.25)


class TestSchedules:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_sorted_builders_identical(self, seed):
        graph, part, p, _ = random_workload(seed)
        for rank in range(p):
            for builder in (build_schedule_sort1, build_schedule_sort2,
                            build_schedule_no_dedup):
                a = builder(graph, part, rank, backend="reference")
                b = builder(graph, part, rank, backend="vectorized")
                assert_schedules_identical(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_simple_builder_identical(self, seed):
        graph, part, p, _ = random_workload(seed)

        def run(backend):
            def fn(ctx):
                return build_schedule_simple(
                    graph, part, ctx=ctx, backend=backend
                )

            return run_spmd(uniform_cluster(p), fn)

        res_ref, res_vec = run("reference"), run("vectorized")
        for a, b in zip(res_ref.values, res_vec.values):
            assert_schedules_identical(a, b)
        assert res_ref.makespan == pytest.approx(res_vec.makespan, rel=0.25)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_kernel_plans_identical(self, seed):
        graph, part, p, _ = random_workload(seed)
        for rank in range(p):
            sched = build_schedule_sort2(graph, part, rank)
            a = build_kernel_plan(graph, part, sched, backend="reference")
            b = build_kernel_plan(graph, part, sched, backend="vectorized")
            np.testing.assert_array_equal(a.slots, b.slots)
            np.testing.assert_array_equal(a.indptr, b.indptr)
            assert a.n_ghost == b.n_ghost


class TestExecutor:
    @pytest.mark.parametrize("seed", range(8))
    def test_gather_scatter_bit_identical(self, seed):
        graph, part, p, rng = random_workload(seed)
        n = graph.num_vertices
        y = rng.uniform(-1e6, 1e6, n)

        def run(backend):
            def fn(ctx):
                sched = build_schedule_sort2(
                    graph, part, ctx.rank, backend=backend
                )
                lo, hi = part.interval(ctx.rank)
                local = y[lo:hi].copy()
                ghost = gather(ctx, sched, local, backend=backend)
                scatter(ctx, sched, ghost, local, op="add", backend=backend)
                return ghost, local

            return run_spmd(uniform_cluster(p), fn)

        res_ref, res_vec = run("reference"), run("vectorized")
        for (gr, lr), (gv, lv) in zip(res_ref.values, res_vec.values):
            # Bitwise equality, not allclose: both backends must apply
            # contributions in exactly the same order.
            np.testing.assert_array_equal(gr, gv)
            np.testing.assert_array_equal(lr, lv)
        # recv_expected charges receives in virtual-arrival order, so on
        # the deterministic point-to-point network the clocks must agree
        # exactly — host thread scheduling cannot leak into virtual time.
        assert res_ref.clocks == res_vec.clocks


class TestEndToEnd:
    @pytest.mark.parametrize("strategy", ["sort2", "simple"])
    def test_program_identical_across_backends(self, strategy):
        graph = perturbed_grid_mesh(9, 9, seed=3).graph
        y0 = np.random.default_rng(3).uniform(0, 100, graph.num_vertices)
        cluster = heterogeneous_cluster([1.0, 0.7, 0.5])
        reports = {}
        for backend in BACKENDS:
            reports[backend] = run_program(
                graph,
                cluster,
                ProgramConfig(iterations=6, strategy=strategy, backend=backend),
                y0=y0,
            )
        # Exact, not approximate: every receive is charged in virtual-
        # arrival order, so whole-program virtual time is bit-identical
        # across backends on deterministic networks.
        assert reports["reference"].differences(
            reports["vectorized"], virtual=True
        ) == []

    def test_use_backend_context(self):
        assert resolve_backend(None) in BACKENDS
        with use_backend("reference"):
            assert resolve_backend(None) == "reference"
            with use_backend("vectorized"):
                assert resolve_backend(None) == "vectorized"
            assert resolve_backend(None) == "reference"

    def test_unknown_backend_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            resolve_backend("simd")
        with pytest.raises(ConfigurationError):
            ProgramConfig(backend="simd")
