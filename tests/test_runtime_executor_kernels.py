"""Tests for executor gather/scatter and the Fig. 8 kernel."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_kernels import (
    BincountRowSegments, sequential_kernel_oracle, sweep_reference,
)
from repro.errors import ConfigurationError, RankFailedError, ScheduleError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    grid_graph,
    paper_mesh,
    perturbed_grid_mesh,
    random_geometric_graph,
)
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.partition.ordering import IdentityOrdering
from repro.partition.rcb import RCBOrdering
from repro.runtime.executor import gather, scatter
from repro.runtime.incremental import IncrementalInspector
from repro.runtime.inspector import run_inspector
from repro.runtime import kernels
from repro.runtime.kernels import (
    KernelCostModel,
    RowOperator,
    build_kernel_plan,
    run_sequential,
    sorted_ghost_slots,
)
from repro.runtime.program import ProgramConfig, run_program
from repro.runtime.schedule_builders import build_schedule_sort1


@pytest.fixture(scope="module")
def mesh():
    g = perturbed_grid_mesh(10, 10, seed=2).graph
    return g.permute(RCBOrdering()(g))


class TestGatherScatter:
    def test_gather_fetches_correct_values(self, mesh):
        n = mesh.num_vertices
        part = partition_list(n, np.ones(3))
        y = np.arange(n, dtype=np.float64) * 2.0

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(ghost, y[sched.ghost_globals])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_gather_vector_payloads(self, mesh):
        """Gather works for (n, k) per-element data, not just scalars."""
        n = mesh.num_vertices
        part = partition_list(n, np.ones(2))
        y = np.random.default_rng(0).uniform(size=(n, 3))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(ghost, y[sched.ghost_globals])
            return True

        assert all(run_spmd(uniform_cluster(2), fn).values)

    def test_gather_wrong_local_size(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            gather(ctx, sched, np.zeros(3))  # wrong size

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    def test_scatter_add_accumulates(self, mesh):
        """scatter after gather implements the symmetric
        accumulate: each boundary element receives the sum of the ghost
        contributions of every rank that references it."""
        n = mesh.num_vertices
        part = partition_list(n, np.ones(3))

        def fn(ctx):
            sched = build_schedule_sort1(mesh, part, ctx.rank)
            lo, hi = part.interval(ctx.rank)
            local = np.zeros(hi - lo)
            ghost = np.ones(sched.ghost_size)  # contribute 1 per reference
            scatter(ctx, sched, ghost, local)
            return lo, local

        res = run_spmd(uniform_cluster(3), fn)
        total = np.zeros(n)
        for lo, local in res.values:
            total[lo : lo + local.size] = local
        # Element g receives one contribution per *rank* that references it.
        expected = np.zeros(n)
        for r in range(3):
            sched = build_schedule_sort1(mesh, part, r)
            expected[sched.ghost_globals] += 1.0
        np.testing.assert_array_equal(total, expected)


class TestSequentialKernel:
    def test_matches_literal_reference(self):
        g = perturbed_grid_mesh(6, 6, seed=1).graph
        y = np.random.default_rng(0).uniform(size=g.num_vertices)
        np.testing.assert_array_equal(
            run_sequential(g, y, 1), sequential_kernel_oracle(g, y)
        )

    def test_isolated_vertex_keeps_value(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        y = np.array([1.0, 3.0, 7.0])
        out = run_sequential(g, y, 1)
        assert out[2] == 7.0
        assert out[0] == 3.0 and out[1] == 1.0

    def test_constant_fixed_point(self):
        g = grid_graph(5, 5)
        y = np.full(25, 4.2)
        np.testing.assert_allclose(run_sequential(g, y, 1), y)

    def test_smooths_toward_mean(self):
        g = grid_graph(10, 10)
        rng = np.random.default_rng(1)
        y = rng.uniform(0, 100, 100)
        out = run_sequential(g, y, 50)
        assert out.std() < y.std() / 2

    def test_shape_validation(self):
        g = grid_graph(2, 2)
        with pytest.raises(Exception):
            run_sequential(g, np.zeros(5), 1)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_vectorized_equals_reference_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        m = int(rng.integers(0, n * 2))
        edges = rng.integers(0, n, size=(m, 2))
        g = CSRGraph.from_edges(n, edges)
        y = rng.uniform(-10, 10, n)
        np.testing.assert_array_equal(
            run_sequential(g, y, 1), sequential_kernel_oracle(g, y)
        )


class TestKernelPlan:
    def test_plan_sweep_matches_global(self, mesh):
        n = mesh.num_vertices
        part = partition_list(n, [0.5, 0.3, 0.2])
        y = np.random.default_rng(3).uniform(size=n)
        expected = run_sequential(mesh, y, 1)

        def fn(ctx):
            insp = run_inspector(mesh, part, ctx.rank, strategy="sort2")
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, insp.schedule, y[lo:hi])
            out = insp.kernel_plan.sweep(y[lo:hi], ghost)
            np.testing.assert_array_equal(out, expected[lo:hi])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)

    def test_plan_sweep_matches_its_reference(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 0)
        plan = build_kernel_plan(mesh, part, sched)
        lo, hi = part.interval(0)
        rng = np.random.default_rng(4)
        local = rng.uniform(size=hi - lo)
        ghost = rng.uniform(size=sched.ghost_size)
        np.testing.assert_array_equal(
            plan.sweep(local, ghost), sweep_reference(plan, local, ghost)
        )

    @pytest.mark.parametrize("extra", [1, -1])
    def test_sweep_rejects_wrong_local_length(self, mesh, extra):
        """A block one element too long would read slot n_local from its
        own tail instead of ghost[0]: refuse it, naming both lengths."""
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 1)
        plan = build_kernel_plan(mesh, part, sched)
        local = np.zeros(plan.n_local + extra)
        with pytest.raises(ScheduleError) as exc:
            plan.sweep(local, np.zeros(sched.ghost_size))
        msg = str(exc.value)
        assert "rank 1" in msg
        assert str(local.size) in msg and str(plan.n_local) in msg

    @pytest.mark.parametrize("extra", [1, -1])
    def test_sweep_rejects_wrong_ghost_length(self, mesh, extra):
        """A short ghost buffer would be read past its end and a long one
        silently accepted: refuse both, naming the rank and both lengths."""
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 1)
        plan = build_kernel_plan(mesh, part, sched)
        assert plan.n_ghost == sched.ghost_size > 0
        ghost = np.zeros(sched.ghost_size + extra)
        with pytest.raises(ScheduleError) as exc:
            plan.sweep(np.zeros(plan.n_local), ghost)
        msg = str(exc.value)
        assert "rank 1" in msg
        assert str(ghost.size) in msg and str(plan.n_ghost) in msg

    @pytest.mark.parametrize("where", ["below", "above"])
    def test_plan_rejects_slots_out_of_range(self, mesh, where):
        """The operator reads without bounds checks, so the plan checks
        every slot against ``[0, n_local + n_ghost)`` once, at build."""
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 1)
        plan = build_kernel_plan(mesh, part, sched)
        slots = plan.slots.copy()
        slots[-1] = -1 if where == "below" else plan.n_local + plan.n_ghost
        with pytest.raises(ScheduleError, match=r"rank 1: slots must lie in"):
            dataclasses.replace(plan, slots=slots)

    def test_plan_rejects_a_bad_row_pointer(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 0)
        plan = build_kernel_plan(mesh, part, sched)
        bad = [
            plan.indptr[:-1],  # one row short
            plan.indptr + 1,  # does not start at 0
            np.append(plan.indptr[:-1], plan.n_references + 1),  # overruns
            np.concatenate(([0, plan.n_references], plan.indptr[2:])),  # decreasing
        ]
        for indptr in bad:
            with pytest.raises(ScheduleError, match="rank 0: indptr"):
                dataclasses.replace(plan, indptr=indptr)

    def test_plan_covers_all_local_degrees(self, mesh):
        part = partition_list(mesh.num_vertices, np.ones(4))
        for r in range(4):
            sched = build_schedule_sort1(mesh, part, r)
            plan = build_kernel_plan(mesh, part, sched)
            lo, hi = part.interval(r)
            np.testing.assert_array_equal(
                np.diff(plan.indptr), mesh.degrees[lo:hi]
            )
            assert plan.n_references == int(mesh.degrees[lo:hi].sum())

    def test_plan_with_request_order_ghosts(self, mesh):
        """Kernel plans work with the simple strategy's unsorted ghosts."""
        from repro.runtime.schedule_builders import build_schedule_simple

        n = mesh.num_vertices
        part = partition_list(n, np.ones(2))
        y = np.random.default_rng(5).uniform(size=n)
        expected = run_sequential(mesh, y, 1)

        def fn(ctx):
            sched = build_schedule_simple(mesh, part, ctx=ctx)
            plan = build_kernel_plan(mesh, part, sched)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, sched, y[lo:hi])
            np.testing.assert_array_equal(
                plan.sweep(y[lo:hi], ghost), expected[lo:hi]
            )
            return True

        assert all(run_spmd(uniform_cluster(2), fn).values)

    def test_cost_model_calibration(self):
        """Default constants put the paper's workload near Table 4's
        97.61 s / 500 iterations on a speed-1.0 machine."""
        kc = KernelCostModel()
        per_iter = kc.sweep_seconds(2 * 44_929, 30_269)
        assert 500 * per_iter == pytest.approx(97.61, rel=0.2)


def _isolated_graph() -> CSRGraph:
    """12 vertices; 3, 5 and 11 have no neighbors.  Split in two blocks
    of six, 5 is the *last* vertex of block 0 and 11 the last of block 1
    (and of the graph), so a sum array sized by the highest referenced
    row instead of ``n_local`` comes out short."""
    edges = [(0, 1), (1, 2), (0, 7), (1, 8), (2, 6), (4, 9), (6, 7), (9, 10)]
    return CSRGraph.from_edges(12, edges)


def _hub_graph() -> CSRGraph:
    g = random_geometric_graph(400, seed=6)
    # A reduction that unrolls or pairs up a row's terms diverges from
    # the loop only on rows longer than its unroll width.
    assert g.degrees.max() >= 9
    return g


def _star_graph(hub_degree: int = 10_000) -> CSRGraph:
    """Vertex 0 adjacent to every other: one row far longer than the
    number of rows that reach its length (the column layout's tail)."""
    return CSRGraph.from_edges(
        hub_degree + 1, [(0, v) for v in range(1, hub_degree + 1)]
    )


def _random_hub_graph(rng: np.random.Generator) -> CSRGraph:
    """Random sparse edges plus a few hubs; some vertices stay isolated
    and every row's neighbors are shuffled (symmetry ignores order)."""
    n = int(rng.integers(1, 120))
    edges = [rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))]
    for hub in rng.integers(0, n, size=int(rng.integers(0, 4))):
        others = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        edges.append(np.stack([np.full_like(others, hub), others], axis=1))
    g = CSRGraph.from_edges(n, np.concatenate(edges))
    indices = g.indices.copy()
    for v in range(n):
        rng.shuffle(indices[g.indptr[v] : g.indptr[v + 1]])
    return CSRGraph(g.indptr, indices)


def _special_values(rng: np.random.Generator, size: int, share: float) -> np.ndarray:
    """Values over 17 decades (so the summation order shows in the last
    bits) with a *share* of −0.0, ±inf and signed NaNs with payloads."""
    y = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-8, 9, size)
    special = rng.random(size) < share
    kind = rng.integers(0, 4, size)
    payload = rng.integers(1, 2**51, size, dtype=np.uint64)
    sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    nan = (np.uint64(0x7FF8000000000000) | payload | sign).view(np.float64)
    y = np.where(special & (kind == 0), -0.0, y)
    y = np.where(special & (kind == 1), np.inf, y)
    y = np.where(special & (kind == 2), -np.inf, y)
    return np.where(special & (kind == 3), nan, y)


def _nan_meets_nan(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows where two different NaN bit patterns can meet in one add.

    IEEE 754 leaves which payload survives to the implementation, and
    numpy's scalar add, its array add and its size-1 in-place add pick
    different operands — so only these rows are compared by NaN-ness."""
    with np.errstate(invalid="ignore"):
        generated = np.float64(np.inf) + np.float64(-np.inf)
    out = np.zeros(len(counts), dtype=bool)
    k = 0
    for i, c in enumerate(counts):
        w = weights[k : k + c]
        k += c
        patterns = set(w[np.isnan(w)].view(np.uint64).tolist())
        if np.isposinf(w).any() and np.isneginf(w).any():
            patterns.add(int(generated.view(np.uint64)))
        out[i] = len(patterns) > 1
    return out


def _assert_bitwise_equal(
    got: np.ndarray, want: np.ndarray, nan_meets_nan: np.ndarray | None = None
) -> None:
    assert got.shape == want.shape
    same = slice(None) if nan_meets_nan is None else ~nan_meets_nan
    np.testing.assert_array_equal(
        got[same].view(np.uint64), want[same].view(np.uint64)
    )
    if nan_meets_nan is not None:
        assert np.isnan(got[nan_meets_nan]).all()
        assert np.isnan(want[nan_meets_nan]).all()


class TestSummationOrderContract:
    """The kernel is the literal Fig. 8 loop bit for bit: every vectorized
    sweep accumulates a row's references in array order from 0.0."""

    GRAPHS = {
        "paper_mesh": lambda: paper_mesh(600, seed=1),
        "degree>=9": _hub_graph,
        "isolated": _isolated_graph,
        "star": _star_graph,
    }
    # Speeds per rank: three uneven blocks, two even ones (the isolated
    # graph's block boundary), an empty-interval rank (n_local = 0), and
    # a single rank that owns everything and has no ghosts.
    SPLITS = {
        "3 ranks": [0.5, 0.3, 0.2],
        "2 ranks": [1.0, 1.0],
        "empty rank": [0.6, 0.0, 0.4],
        "1 rank": [1.0],
    }

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_sequential_kernel_equals_the_loop(self, graph):
        g = self.GRAPHS[graph]()
        y = np.random.default_rng(8).uniform(-50.0, 50.0, g.num_vertices)
        np.testing.assert_array_equal(
            run_sequential(g, y, 1), sequential_kernel_oracle(g, y)
        )

    @pytest.mark.parametrize("split", SPLITS)
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_sweep_equals_the_loop(self, graph, split):
        g = self.GRAPHS[graph]()
        n = g.num_vertices
        part = partition_list(n, self.SPLITS[split])
        y = np.random.default_rng(9).uniform(-50.0, 50.0, n)
        whole = sequential_kernel_oracle(g, y)
        for r in range(part.num_processors):
            sched = build_schedule_sort1(g, part, r)
            plan = build_kernel_plan(g, part, sched)
            lo, hi = part.interval(r)
            local, ghost = y[lo:hi], y[sched.ghost_globals]
            out = plan.sweep(local, ghost)
            assert out.shape == (hi - lo,)
            np.testing.assert_array_equal(
                out, sweep_reference(plan, local, ghost)
            )
            np.testing.assert_array_equal(out, whole[lo:hi])
            if split == "1 rank":
                assert ghost.size == 0
        if split == "empty rank":
            assert part.size(1) == 0

    def test_plan_builds_its_operator_once(self, mesh, monkeypatch):
        """Nothing that depends only on the plan is redone per sweep."""
        built = []
        csr_matrix = kernels.csr_matrix
        monkeypatch.setattr(
            kernels, "csr_matrix",
            lambda *args, **kw: (built.append(1), csr_matrix(*args, **kw))[1],
        )
        part = partition_list(mesh.num_vertices, np.ones(2))
        sched = build_schedule_sort1(mesh, part, 0)
        plan = build_kernel_plan(mesh, part, sched)
        assert not built  # lazy: building a plan derives nothing
        y = np.random.default_rng(1).uniform(size=mesh.num_vertices)
        lo, hi = part.interval(0)
        for _ in range(3):
            plan.sweep(y[lo:hi], y[sched.ghost_globals])
        assert len(built) == 1

    def test_patched_plan_sweeps_like_a_fresh_one(self):
        """The patch path builds a new KernelPlan from the old one's
        arrays; its operator must be its own, not the (already swept)
        old plan's."""
        g = paper_mesh(600, seed=1)
        g = g.permute(RCBOrdering()(g))
        n = g.num_vertices
        y = np.random.default_rng(10).uniform(-50.0, 50.0, n)
        old = partition_list(n, [0.4, 0.3, 0.3])
        new = partition_list(n, [0.3, 0.45, 0.25])
        for r in range(3):
            inc = IncrementalInspector(g, old, r, strategy="sort2")
            lo, hi = old.interval(r)
            inc.result.kernel_plan.sweep(
                y[lo:hi], y[inc.result.schedule.ghost_globals]
            )
            got = inc.rebuild(new, force="patch")
            assert inc.last_mode == "patched"
            want = run_inspector(g, new, r, strategy="sort2")
            lo, hi = new.interval(r)
            ghost = y[want.schedule.ghost_globals]
            out = got.kernel_plan.sweep(y[lo:hi], ghost)
            np.testing.assert_array_equal(
                out, want.kernel_plan.sweep(y[lo:hi], ghost)
            )
            np.testing.assert_array_equal(
                out, sweep_reference(got.kernel_plan, y[lo:hi], ghost)
            )

    def test_run_sequential_is_the_loop_iterated(self):
        g = paper_mesh(300, seed=2)
        y = np.random.default_rng(11).uniform(0.0, 100.0, g.num_vertices)
        expected = y
        for _ in range(4):
            expected = sequential_kernel_oracle(g, expected)
        np.testing.assert_array_equal(run_sequential(g, y, 4), expected)

    def test_run_sequential_rejects_negative_iterations(self):
        g = paper_mesh(300, seed=2)
        y = np.random.default_rng(11).uniform(0.0, 100.0, g.num_vertices)
        with pytest.raises(ConfigurationError, match="got -3"):
            run_sequential(g, y, -3)
        same = run_sequential(g, y, 0)  # the identity, as a copy
        np.testing.assert_array_equal(same, y)
        assert not np.shares_memory(same, y)

    def test_parallel_run_equals_run_sequential_on_same_numbering(self):
        """Under IdentityOrdering every rank sums each row in the graph's
        own neighbor order, so 4 ranks reproduce the oracle bit for bit
        (a reordering permutes each row's summation order: ~1e-14)."""
        g = paper_mesh(800, seed=21)
        y0 = np.random.default_rng(0).uniform(0.0, 100.0, g.num_vertices)
        rep = run_program(
            g, uniform_cluster(4),
            ProgramConfig(iterations=6, ordering=IdentityOrdering()), y0=y0,
        )
        np.testing.assert_array_equal(rep.values, run_sequential(g, y0, 6))


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _mixed_counts(rng: np.random.Generator, n: int) -> np.ndarray:
    counts = rng.integers(0, 4, n) * (rng.random(n) < 0.8)
    counts[rng.random(n) < 0.1] = rng.integers(10, 200)
    return counts


def _empty_runs(rng: np.random.Generator, n: int) -> np.ndarray:
    counts = rng.integers(1, 8, n)
    for start in rng.integers(0, max(n, 1), 3):
        counts[start : start + int(rng.integers(1, 10))] = 0
    return counts


def _hubs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rows of 255 or more references share the operator's last group."""
    counts = rng.integers(0, 8, n)
    counts[rng.random(n) < 0.15] = rng.integers(250, 300)
    return counts


class TestRowOperator:
    """The CSR row operator against the loop and against the ``bincount``
    segmented sum (``oracles_kernels``), bit for bit."""

    COUNT_SHAPES = {
        "mixed": _mixed_counts,
        "empty runs": _empty_runs,
        "hubs": _hubs,
        "one length": lambda rng, n: np.full(n, int(rng.integers(0, 9))),
        "already grouped": lambda rng, n: np.sort(_hubs(rng, n)),
    }

    @given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.05, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_sequential_kernel_bitwise_property(self, seed, share):
        rng = np.random.default_rng(seed)
        g = _random_hub_graph(rng)
        y = _special_values(rng, g.num_vertices, share)
        nan_meets_nan = _nan_meets_nan(g.degrees, y[g.indices])
        with np.errstate(invalid="ignore"):
            got = run_sequential(g, y, 1)
            loop = sequential_kernel_oracle(g, y)
            oracle = BincountRowSegments(g.degrees).means(y[g.indices], y)
        _assert_bitwise_equal(got, loop, nan_meets_nan)
        _assert_bitwise_equal(got, oracle, nan_meets_nan)

    @given(
        seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.0, 0.3]),
        shape=st.sampled_from(list(COUNT_SHAPES)),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_counts_and_index_property(self, seed, share, shape):
        """Rows need not come from a graph: arbitrary counts (hubs, runs
        of empty rows) and an arbitrary index, with and without it.  The
        matrix holds them grouped by length; results come back in row
        order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        counts = self.COUNT_SHAPES[shape](rng, n)
        values = _special_values(rng, int(rng.integers(1, 50)), share)
        index = rng.integers(0, values.size, int(counts.sum()))
        keep = _special_values(rng, n, share)
        weights = values[index]
        nan_meets_nan = _nan_meets_nan(counts, weights)
        oracle = BincountRowSegments(counts)
        indptr = _indptr(counts)
        rows = RowOperator(indptr, index, values.size)
        lengths = np.diff(rows.matrix.indptr)
        assert (np.diff(np.minimum(lengths, 255)) >= 0).all()
        np.testing.assert_array_equal(np.sort(lengths), np.sort(counts))
        with np.errstate(invalid="ignore"):
            # The matrix's own row sums, before the divide.
            sums = (rows.matrix @ values).take(rows.inverse)
            means = rows.means(values, keep)
            _assert_bitwise_equal(sums, oracle.sums(weights), nan_meets_nan)
            _assert_bitwise_equal(
                means, oracle.means(weights, keep), nan_meets_nan
            )
            _assert_bitwise_equal(
                RowOperator(indptr, np.arange(index.size), index.size).means(
                    weights, keep
                ),
                means, nan_meets_nan,
            )
            # The literal loop, row by row from 0.0.
            loop = keep.copy()
            k = 0
            for i, c in enumerate(counts):
                t = 0.0
                for _ in range(c):
                    t += weights[k]
                    k += 1
                if c:
                    loop[i] = t / c
        _assert_bitwise_equal(means, loop, nan_meets_nan)

    @pytest.mark.parametrize(
        "counts", [[2, 0, 1, 3], [0, 0, 0], [1, 1, 1], []], ids=str
    )
    def test_means_returns_a_fresh_array(self, counts):
        """The result aliases neither input, also when *values* is *keep*
        (``run_sequential``) and when every row is empty."""
        counts = np.array(counts, dtype=np.intp)
        n = counts.size
        rows = RowOperator(_indptr(counts), np.arange(counts.sum()) % max(n, 1), n)
        y = np.arange(n, dtype=np.float64) + 1.0
        keep = y.copy()
        for values in (y, keep):
            out = rows.means(values, keep)
            assert not np.shares_memory(out, values)
            assert not np.shares_memory(out, keep)
            out[:] = -1.0
            np.testing.assert_array_equal(keep, y)

    @pytest.mark.parametrize("share", [0.0, 0.3])
    def test_degree_10000_hub_equals_the_loop(self, share):
        """One row of 10,000 references is one row of the matrix: its
        sum still runs in array order from 0.0, special values too."""
        g = _star_graph()
        assert g.degrees.max() == 10_000
        y = _special_values(np.random.default_rng(12), g.num_vertices, share)
        nan_meets_nan = _nan_meets_nan(g.degrees, y[g.indices])
        with np.errstate(invalid="ignore"):
            got = run_sequential(g, y, 1)
            loop = sequential_kernel_oracle(g, y)
        _assert_bitwise_equal(got, loop, nan_meets_nan)
        part = partition_list(g.num_vertices, [0.3, 0.7])
        for r in range(2):
            sched = build_schedule_sort1(g, part, r)
            plan = build_kernel_plan(g, part, sched)
            lo, hi = part.interval(r)
            with np.errstate(invalid="ignore"):
                out = plan.sweep(y[lo:hi], y[sched.ghost_globals])
            _assert_bitwise_equal(out, loop[lo:hi], nan_meets_nan[lo:hi])

    def test_empty_interval_plan(self):
        g = paper_mesh(300, seed=2)
        part = partition_list(g.num_vertices, [0.5, 0.0, 0.5])
        sched = build_schedule_sort1(g, part, 1)
        plan = build_kernel_plan(g, part, sched)
        assert plan.n_local == 0
        assert plan.rows.matrix.shape == (0, sched.ghost_size)
        assert plan.rows.matrix.nnz == 0
        out = plan.sweep(np.empty(0), np.empty(sched.ghost_size))
        assert out.shape == (0,)
        empty = np.zeros(0, dtype=np.intp)
        assert RowOperator(_indptr(empty), empty, 0).means(
            np.empty(0), np.empty(0)
        ).shape == (0,)


class TestSortedGhostSlots:
    def test_slots_follow_the_local_block(self):
        ghost = np.array([3, 8, 21], dtype=np.intp)
        slots = sorted_ghost_slots(ghost, np.array([21, 3, 21, 8]), 10)
        np.testing.assert_array_equal(slots, [12, 10, 12, 11])

    def test_missing_reference_gives_none(self):
        ghost = np.array([3, 8, 21], dtype=np.intp)
        assert sorted_ghost_slots(ghost, np.array([3, 9]), 10) is None
        assert sorted_ghost_slots(ghost, np.array([40]), 10) is None

    def test_unsorted_buffer_gives_none(self):
        ghost = np.array([21, 3, 8], dtype=np.intp)
        assert sorted_ghost_slots(ghost, np.array([3, 8, 21]), 10) is None

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.intp)
        assert sorted_ghost_slots(empty, empty, 4).size == 0
        assert sorted_ghost_slots(empty, np.array([1]), 4) is None


class TestKernelPlanEmptyIntervals:
    """Direct hypothesis coverage of the PR-4 empty-interval fix: ranks
    that own nothing (standby, drained, or failed) must get a well-formed
    empty plan, and the surviving ranks' sweeps must still reassemble the
    sequential result."""

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 2**31),
        p=st.integers(2, 6),
        empties=st.integers(1, 3),
    )
    def test_empty_interval_ranks_property(self, seed, p, empties):
        rng = np.random.default_rng(seed)
        g = perturbed_grid_mesh(
            int(rng.integers(5, 11)), int(rng.integers(5, 11)), seed=seed
        ).graph
        graph = g.permute(RCBOrdering()(g))
        n = graph.num_vertices
        caps = rng.uniform(0.2, 1.0, size=p)
        empty_ranks = rng.choice(p, size=min(empties, p - 1), replace=False)
        caps[empty_ranks] = 0.0
        part = partition_list(n, caps / caps.sum())
        y = rng.uniform(0.0, 100.0, size=n)
        expected = run_sequential(graph, y, 1)

        def fn(ctx):
            insp = run_inspector(graph, part, ctx.rank, strategy="sort2",
                                 ctx=ctx)
            plan = insp.kernel_plan
            lo, hi = part.interval(ctx.rank)
            assert plan.n_local == hi - lo
            if hi == lo:
                # The empty plan must be structurally sound, not a crash:
                # no slots, one row pointer, and a sweep over nothing.
                assert plan.slots.size == 0
                assert plan.indptr.tolist() == [0]
            ghost = gather(ctx, insp.schedule, y[lo:hi].copy())
            out = plan.sweep(y[lo:hi].copy(), ghost)
            ctx.barrier()
            np.testing.assert_array_equal(out, expected[lo:hi])
            return out.size

        res = run_spmd(uniform_cluster(p), fn)
        assert sum(res.values) == n

    def test_all_data_on_one_rank(self):
        g = perturbed_grid_mesh(6, 6, seed=0).graph
        graph = g.permute(RCBOrdering()(g))
        n = graph.num_vertices
        part = partition_list(n, [1.0, 0.0, 0.0])
        y = np.arange(n, dtype=np.float64)
        expected = run_sequential(graph, y, 1)

        def fn(ctx):
            insp = run_inspector(graph, part, ctx.rank, strategy="sort2",
                                 ctx=ctx)
            lo, hi = part.interval(ctx.rank)
            ghost = gather(ctx, insp.schedule, y[lo:hi].copy())
            out = insp.kernel_plan.sweep(y[lo:hi].copy(), ghost)
            ctx.barrier()
            np.testing.assert_array_equal(out, expected[lo:hi])
            return True

        assert all(run_spmd(uniform_cluster(3), fn).values)


class TestPlanMemory:
    """A plan holds 8 bytes per reference: int32 slots, int32 matrix
    columns, and matrix data that is a view of one vector of ones."""

    @staticmethod
    def _plans(g, old, new):
        """Every rank's full build for *new*, then its patch from *old*."""
        plans = []
        for r in range(new.num_processors):
            plans.append(run_inspector(g, new, r, strategy="sort2").kernel_plan)
            inc = IncrementalInspector(g, old, r, strategy="sort2")
            plans.append(inc.rebuild(new, force="patch").kernel_plan)
        return plans

    @pytest.fixture(scope="class")
    def walk(self):
        g = paper_mesh(600, seed=1)
        g = g.permute(RCBOrdering()(g))
        n = g.num_vertices
        old = partition_list(n, [0.4, 0.3, 0.3])
        new = partition_list(n, [0.3, 0.45, 0.25])
        y = np.random.default_rng(13).uniform(-50.0, 50.0, n)
        return g, old, new, y

    def test_eight_bytes_per_reference(self, walk):
        g, old, new, _ = walk
        for plan in self._plans(g, old, new):
            assert plan.slots.dtype == np.int32
            assert plan.n_references == plan.slots.size > 0
            assert (
                plan.slots.nbytes + plan.rows.matrix.indices.nbytes
                == 8 * plan.n_references
            )

    def test_operators_share_one_read_only_vector_of_ones(self, walk):
        g, old, new, _ = walk
        # The whole graph's operator first: no later one grows the vector.
        ops = [RowOperator(g.indptr, g.indices, g.num_vertices)]
        ops += [plan.rows for plan in self._plans(g, old, new)]
        ones = ops[0].matrix.data
        for op in ops:
            data = op.matrix.data
            assert np.shares_memory(data, ones)
            assert not data.flags.writeable
            assert data.size == op.matrix.nnz and (data == 1.0).all()
        with pytest.raises(ValueError, match="read-only"):
            ones[0] = 2.0

    def test_intp_branch_sweeps_like_the_int32_branch(self, walk, monkeypatch):
        """Above int32 the slots and the operator's index arrays are intp;
        the sweep is the same bit for bit."""
        g, old, new, y = walk
        narrow = self._plans(g, old, new)
        monkeypatch.setattr(kernels, "_INT32_MAX", 16)
        wide = self._plans(g, old, new)
        for a, b in zip(narrow, wide):
            assert b.slots.dtype == np.intp
            assert b.rows.matrix.indices.dtype == np.intp
            assert b.rows.matrix.indptr.dtype == np.intp
            assert a != b  # the layout is part of the value
            np.testing.assert_array_equal(a.slots, b.slots)
            lo, hi = new.interval(a.rank)
            ghost = np.random.default_rng(a.rank).uniform(size=a.n_ghost)
            np.testing.assert_array_equal(
                a.sweep(y[lo:hi], ghost), b.sweep(y[lo:hi], ghost)
            )
        # Full build and patch agree in the wide layout too.
        for full, patched in zip(wide[::2], wide[1::2]):
            assert full == patched
