"""Every numpy hot path against its scalar oracle, function by function.

The runtime has one implementation of each Phase B-D primitive.  Each test
here feeds one of them — the translation tables, the schedule builders,
the kernel-plan translation, the executor's gather/scatter and the
redistribution slab helpers — and the per-element loops of
``oracles_runtime`` the same randomized inputs (meshes, uneven capability
vectors, permuted arrangements) and requires bit-identical output, so a
divergence is reported at the function where it starts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles_runtime import (
    dereference_oracle,
    gather_oracle,
    iota_loop,
    kernel_slots_loop,
    scatter_oracle,
    schedule_oracle,
    simple_schedules_oracle,
    slab_pack_loop,
    slab_unpack_loop,
)
from repro.graph.generators import perturbed_grid_mesh, random_geometric_graph
from repro.net.cluster import uniform_cluster
from repro.net.message import unpack_arrays
from repro.net.spmd import run_spmd
from repro.partition.arrangement import Transfer, transfer_matrix
from repro.partition.intervals import partition_list
from repro.runtime.adaptive.redistribution import (
    extract_slabs,
    pack_slabs,
    place_slabs,
)
from repro.runtime.executor import gather, scatter
from repro.runtime.kernels import build_kernel_plan
from repro.runtime.schedule_builders import (
    build_schedule_no_dedup,
    build_schedule_simple,
    build_schedule_sort1,
    build_schedule_sort2,
)
from repro.runtime.translation import DistributedTranslationTable

MAX_P = 4

LOCAL_BUILDERS = {
    "sort1": build_schedule_sort1,
    "sort2": build_schedule_sort2,
    "no-dedup": build_schedule_no_dedup,
}

#: (trailing shape, dtype) of the field arrays the runtime moves.
FIELDS = [((), np.float64), ((3,), np.float64), ((), np.int64)]
FIELD_IDS = ["scalar-f8", "vector-f8", "scalar-i8"]


def random_workload(seed: int):
    """A random (graph, partition, p, rng) driven by one seed.

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


def simple_schedules(graph, part, p):
    def fn(ctx):
        return build_schedule_simple(graph, part, ctx=ctx)

    return run_spmd(uniform_cluster(p), fn).values


class TestTranslation:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_interval_table_dereference(self, seed):
        graph, part, p, rng = random_workload(seed)
        gi = rng.integers(0, part.num_elements, size=50)
        ro, rl = dereference_oracle(part, gi)
        vo, vl = part.dereference(gi)
        np.testing.assert_array_equal(ro, vo)
        np.testing.assert_array_equal(rl, vl)

    @pytest.mark.parametrize("seed", range(4))
    def test_table_block_lookup_matches_oracle(self, seed):
        _, part, p, rng = random_workload(seed)
        n = part.num_elements
        block = -(-n // p)
        for rank in range(p):
            lo, hi = min(rank * block, n), min((rank + 1) * block, n)
            queries = rng.integers(lo, hi, size=20) if hi > lo else []
            got = DistributedTranslationTable(part, rank).lookup_local(queries)
            want = dereference_oracle(part, np.asarray(queries, dtype=np.intp))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_distributed_table_collective(self, seed):
        _, part, p, rng = random_workload(seed)
        n = part.num_elements
        queries = [rng.integers(0, n, size=int(rng.integers(0, 30)))
                   for _ in range(p)]

        def fn(ctx):
            table = DistributedTranslationTable(part, ctx.rank)
            return table.dereference_collective(ctx, queries[ctx.rank])

        res = run_spmd(uniform_cluster(p), fn)
        for (owner, local), q in zip(res.values, queries):
            want_owner, want_local = dereference_oracle(part, q)
            np.testing.assert_array_equal(owner, want_owner)
            np.testing.assert_array_equal(local, want_local)


class TestSchedules:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_local_builders_match_loops(self, seed):
        graph, part, p, _ = random_workload(seed)
        for rank in range(p):
            for strategy, builder in LOCAL_BUILDERS.items():
                got = builder(graph, part, rank)
                assert got == schedule_oracle(graph, part, rank, strategy), (
                    strategy, rank
                )

    @pytest.mark.parametrize("seed", range(6))
    def test_simple_builder_matches_loops(self, seed):
        graph, part, p, _ = random_workload(seed)
        want = simple_schedules_oracle(graph, part, p)
        for got, expected in zip(simple_schedules(graph, part, p), want):
            assert got == expected, got.rank

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_kernel_plans_match_loop(self, seed):
        graph, part, p, _ = random_workload(seed)
        for rank in range(p):
            lo, hi = part.interval(rank)
            nbr = graph.indices[graph.indptr[lo] : graph.indptr[hi]]
            sched = build_schedule_sort2(graph, part, rank)
            plan = build_kernel_plan(graph, part, sched)
            np.testing.assert_array_equal(
                plan.slots, kernel_slots_loop(nbr, lo, hi, sched.ghost_globals)
            )
            assert plan.n_ghost == sched.ghost_size

    @pytest.mark.parametrize("seed", range(4))
    def test_request_ordered_kernel_plans_match_loop(self, seed):
        graph, part, p, _ = random_workload(seed)
        for sched in simple_schedules(graph, part, p):
            lo, hi = part.interval(sched.rank)
            nbr = graph.indices[graph.indptr[lo] : graph.indptr[hi]]
            np.testing.assert_array_equal(
                build_kernel_plan(graph, part, sched).slots,
                kernel_slots_loop(nbr, lo, hi, sched.ghost_globals),
            )


class TestExecutor:
    """``gather`` and ``scatter`` against the pack/unpack/combine loops.

    The no-dedup schedule sends one entry per cross edge, so a scatter
    "add" receives duplicate indices within one peer's payload: every
    contribution must land, in index order.
    """

    @pytest.mark.parametrize("strategy", ["sort2", "no-dedup", "simple"])
    @pytest.mark.parametrize("op", ["add", "replace"])
    @pytest.mark.parametrize("seed", range(4))
    def test_gather_and_scatter_match_loops(self, seed, op, strategy):
        graph, part, p, rng = random_workload(seed)
        y = rng.uniform(-1e6, 1e6, graph.num_vertices)
        if strategy == "simple":
            schedules = simple_schedules_oracle(graph, part, p)
        else:
            schedules = [
                schedule_oracle(graph, part, r, strategy) for r in range(p)
            ]
        blocks = [y[slice(*part.interval(r))].copy() for r in range(p)]

        def fn(ctx):
            sched = schedules[ctx.rank]
            local = blocks[ctx.rank].copy()
            ghost = gather(ctx, sched, local)
            contributions = ghost * 0.5 + 1.0
            scatter(ctx, sched, contributions, local, op=op)
            return ghost, contributions, local

        res = run_spmd(uniform_cluster(p), fn)
        ghosts = [v[0] for v in res.values]
        for got, want in zip(ghosts, gather_oracle(schedules, blocks)):
            np.testing.assert_array_equal(got, want)
        contributions = [v[1] for v in res.values]
        want_blocks = scatter_oracle(schedules, contributions, blocks, op)
        for (_, _, got), want in zip(res.values, want_blocks):
            # Bitwise, not allclose: contributions apply in the same order.
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_gather_moves_vector_fields_like_the_loops(self, shape, dtype):
        graph, part, p, rng = random_workload(3)
        n = graph.num_vertices
        y = (rng.uniform(-5, 5, size=(n,) + shape) * 7).astype(dtype)
        schedules = [schedule_oracle(graph, part, r, "sort2") for r in range(p)]
        blocks = [y[slice(*part.interval(r))] for r in range(p)]

        def fn(ctx):
            return gather(ctx, schedules[ctx.rank], blocks[ctx.rank])

        res = run_spmd(uniform_cluster(p), fn)
        for got, want in zip(res.values, gather_oracle(schedules, blocks)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestRedistribution:
    """The packed slab helpers of every Phase D exchange (remap, recovery,
    checkpoint) against the slab loops, over real transfer plans."""

    @staticmethod
    def plans(seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, MAX_P + 1))
        n = int(rng.integers(30, 120))
        old = partition_list(n, rng.uniform(0.2, 1.0, p), rng.permutation(p))
        new = partition_list(n, rng.uniform(0.2, 1.0, p), rng.permutation(p))
        return old, new, p, n, rng

    @staticmethod
    def groups(old, new):
        """The plan's slabs per (source, dest), in plan order."""
        out: dict[tuple[int, int], list[Transfer]] = {}
        for tr in transfer_matrix(old, new):
            out.setdefault((tr.source, tr.dest), []).append(tr)
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_extract_and_pack_match_slab_loops(self, seed):
        old, new, p, n, rng = self.plans(seed)
        fields = [rng.uniform(-1, 1, n), rng.integers(0, 99, (n, 2))]
        for (source, _), slabs in self.groups(old, new).items():
            lo, hi = old.interval(source)
            blocks = [f[lo:hi] for f in fields]
            want = [
                np.concatenate(
                    [slab_pack_loop(b, tr.lo - lo, tr.hi - lo) for tr in slabs]
                )
                for b in blocks
            ]
            for got, expected in zip(extract_slabs(blocks, slabs, lo), want):
                np.testing.assert_array_equal(got, expected)
            identity, *parts = unpack_arrays(pack_slabs(blocks, slabs, lo))
            np.testing.assert_array_equal(
                identity,
                np.concatenate([iota_loop(tr.lo, tr.hi) for tr in slabs]),
            )
            for got, expected in zip(parts, want):
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_place_matches_slab_unpack_loop(self, seed):
        old, new, p, n, rng = self.plans(seed)
        fields = [rng.uniform(-1, 1, n), rng.integers(0, 99, (n, 2))]
        for (source, dest), slabs in self.groups(old, new).items():
            src_lo = old.interval(source)[0]
            new_lo, new_hi = new.interval(dest)
            parts = extract_slabs(
                [f[slice(*old.interval(source))] for f in fields], slabs, src_lo
            )
            got = [np.zeros((new_hi - new_lo,) + f.shape[1:], f.dtype)
                   for f in fields]
            want = [g.copy() for g in got]
            place_slabs(got, slabs, parts, new_lo)
            for out, part in zip(want, parts):
                offset = 0
                for tr in slabs:
                    slab_unpack_loop(
                        out, tr.lo - new_lo, part[offset : offset + tr.count]
                    )
                    offset += tr.count
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
