"""Level-synchronous bisection vs the box-at-a-time oracles.

``rcb_order`` must return the oracle's permutation exactly whenever the
``coords + jitter`` keys are distinct, and split equal keys by vertex id
when they are not.  ``inertial_order`` shares the driver and is held to
the oracle's bisection rule and partition quality.  From
``ONE_THREAD_BELOW_VERTICES`` up the driver splits the tree's subtrees
across threads; every permutation must equal the serial driver's.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np
import pytest

from oracles_graph import grid_mesh_3d
from oracles_partition import (
    inertial_order_oracle,
    principal_axis,
    principal_axis_oracle,
    rcb_order_oracle,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh
from repro.graph.metrics import edge_cut
from repro.net.spmd import one_cpu
from repro.partition import bisection
from repro.partition.bisection import (
    ONE_THREAD_BELOW_VERTICES,
    bisection_order,
    stable_order,
    stable_ranks,
    tiebreak_jitter,
)
from repro.partition.inertial import inertial_order
from repro.partition.rcb import rcb_order

SIZES = (0, 1, 2, 3, 17, 1_000, 30_269)


#: Random coordinates, or the same ones rounded onto a 17-point lattice
#: per axis, so that raw coordinates tie massively (the jitter still
#: keeps the keys distinct).
LAYOUTS = ("random", "lattice")


def cloud(n: int, dim: int, seed: int, *, box=None, layout="random") -> CSRGraph:
    """n random points (orderings read only the coordinates)."""
    coords = np.random.default_rng(seed).random((n, dim))
    if layout == "lattice":
        coords = np.round(coords * 16) / 16
    if box is not None:
        coords = coords * np.asarray(box, dtype=float)
    return CSRGraph.from_edges(n, [], coords=coords)


def assert_matches_oracle(graph: CSRGraph) -> None:
    np.testing.assert_array_equal(rcb_order(graph), rcb_order_oracle(graph))


class TestRCBMatchesOracle:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("n", SIZES)
    def test_random_clouds(self, n, dim, seed, layout):
        assert_matches_oracle(cloud(n, dim, seed, layout=layout))

    def test_paper_mesh(self):
        assert_matches_oracle(paper_mesh(30_269))

    @pytest.mark.parametrize(
        "graph",
        (grid_graph(16, 16), grid_graph(37, 5), grid_mesh_3d(5, 6, 7).graph),
        ids=("grid16x16", "grid37x5", "grid5x6x7"),
    )
    def test_structured_grids_exact_coordinate_ties(self, graph):
        # Equal raw coordinates; the jitter keeps the keys distinct.
        assert_matches_oracle(graph)

    @pytest.mark.parametrize("box", ((100.0, 1.0), (1.0, 100.0), (1.0, 100.0, 1.0)))
    def test_anisotropic_boxes(self, box):
        graph = cloud(2_000, len(box), 3, box=box)
        assert_matches_oracle(graph)
        # The widest-axis rule keeps cutting the long side first.
        first_half = graph.coords[rcb_order(graph)[:1_000]]
        long_axis = int(np.argmax(box))
        assert first_half[:, long_axis].max() < 0.51 * max(box)

    def test_all_duplicate_coordinates_at_origin(self):
        # ptp == 0 floors the jitter scale at 1e-30: keys stay distinct.
        graph = CSRGraph.from_edges(50, [], coords=np.zeros((50, 2)))
        assert_matches_oracle(graph)


class TestTieSemantics:
    """Equal keys: stable by vertex id, still a bijection, still s//2 | s-s//2."""

    def test_all_duplicates_away_from_origin_keep_id_order(self):
        # The 1e-39 jitter vanishes next to 3.0: every key ties, so every
        # split is by vertex id alone.
        graph = CSRGraph.from_edges(37, [], coords=np.full((37, 2), 3.0))
        np.testing.assert_array_equal(rcb_order(graph), np.arange(37))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_jitter_absorbed_by_huge_coordinates(self, dim):
        # Four distinct values per axis at 1e9: the 3e-9 jitter is below
        # the 1.2e-7 spacing of doubles there, so keys tie massively.
        rng = np.random.default_rng(5)
        coords = 1e9 + rng.integers(0, 4, size=(501, dim)).astype(float)
        graph = CSRGraph.from_edges(501, [], coords=coords)
        assert np.unique(coords[:, 0] + tiebreak_jitter(coords)).size <= 4
        order = rcb_order(graph)
        np.testing.assert_array_equal(np.sort(order), np.arange(501))
        np.testing.assert_array_equal(
            order, rcb_order_oracle(graph, stable_ties=True)
        )

    def test_stable_oracle_equals_shipped_oracle_without_ties(self):
        graph = cloud(1_000, 2, 11)
        np.testing.assert_array_equal(
            rcb_order_oracle(graph, stable_ties=True), rcb_order_oracle(graph)
        )

    def test_stable_ranks_break_ties_by_index(self):
        np.testing.assert_array_equal(
            stable_ranks(np.array([2.0, 1.0, 2.0, 1.0, 0.5])), [3, 1, 4, 2, 0]
        )

    @pytest.mark.parametrize(
        "keys",
        (
            np.array([2.0, 1.0, 2.0, 1.0, 0.5]),
            np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
            np.array([np.nan, 1.0, np.nan, -2.0, 0.5]),
            np.array([3.0, np.nan, -0.0, 3.0, 0.0, np.inf, -np.inf]),
            np.random.default_rng(2).integers(0, 9, 1_000).astype(float),
            np.random.default_rng(3).choice([0.0, -0.0, 1.0], 1_000),
            np.random.default_rng(4).choice([np.nan, 1.0, 2.0, 3.0], 1_000),
            np.random.default_rng(5).random(1_000),
            np.array([7.0]),
            np.array([]),
        ),
        ids=("ties", "signed-zeros", "nan", "mixed", "many-ties",
             "many-signed-zeros", "many-nan", "distinct", "one", "empty"),
    )
    def test_fast_path_equals_stable_sort(self, keys):
        # The default argsort is kept only when its sorted keys strictly
        # increase; anything else falls back to the stable sort.
        expected = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(stable_order(keys), expected)
        ranks = np.empty(keys.size, dtype=np.intp)
        ranks[expected] = np.arange(keys.size)
        np.testing.assert_array_equal(stable_ranks(keys), ranks)


class TestDriver:
    @pytest.mark.parametrize("n", (2, 3, 17, 1_000, 1_024, 1_025))
    def test_one_pass_per_tree_level(self, n):
        calls = []

        def level_keys(perm, starts, seg, depth):
            sizes = np.diff(starts, append=n)
            # Every box of one depth is there, sizes within one of each other.
            assert sizes.sum() == n and sizes.max() - sizes.min() <= 1
            np.testing.assert_array_equal(seg, np.repeat(np.arange(starts.size), sizes))
            calls.append(depth)
            return perm

        order = bisection_order(n, level_keys)
        np.testing.assert_array_equal(order, np.arange(n))
        assert calls == list(range(math.ceil(math.log2(n))))

    def test_lower_half_takes_smaller_keys(self):
        order = bisection_order(5, lambda perm, starts, seg, depth: 4 - perm)
        np.testing.assert_array_equal(order, [4, 3, 2, 1, 0])

    def test_contract_is_stated(self):
        assert "distinct integers in ``[0, K)``" in bisection_order.__doc__

    @pytest.mark.parametrize("n", (1, 2, 17, 1_000))
    def test_fixed_key_map_over_a_wider_range(self, n):
        # K = 3n: key 2n + (n - 1 - v) always belongs to vertex v.
        vertex_of = np.full(3 * n, -1, dtype=np.intp)
        vertex_of[2 * n + n - 1 - np.arange(n)] = np.arange(n)
        order = bisection_order(
            n, lambda perm, starts, seg, depth: 3 * n - 1 - perm, vertex_of
        )
        np.testing.assert_array_equal(order, np.arange(n)[::-1])


class TestInertial:
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("n", SIZES[:-1])
    def test_bijection(self, n, dim):
        order = inertial_order(cloud(n, dim, 1))
        np.testing.assert_array_equal(np.sort(order), np.arange(n))

    def test_all_duplicate_coordinates(self):
        graph = CSRGraph.from_edges(33, [], coords=np.full((33, 3), 2.0))
        np.testing.assert_array_equal(np.sort(inertial_order(graph)), np.arange(33))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_principal_axis_matches_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for count in (3, 10, 500):
            points = rng.normal(size=(count, dim)) * rng.uniform(0.1, 5.0, dim)
            np.testing.assert_allclose(
                principal_axis(points), principal_axis_oracle(points), atol=1e-9
            )

    def test_edge_cut_within_two_percent_of_oracle(self):
        graph = paper_mesh(30_269)
        n = graph.num_vertices
        new, old = inertial_order(graph), inertial_order_oracle(graph)
        np.testing.assert_array_equal(np.sort(new), np.arange(n))
        for parts in (4, 16, 64):
            block = np.arange(n) * parts // n
            cuts = []
            for order in (new, old):
                labels = np.empty(n, dtype=np.intp)
                labels[order] = block
                cuts.append(edge_cut(graph, labels))
            assert abs(cuts[0] - cuts[1]) <= 0.02 * cuts[1], (parts, cuts)


#: The two bisection orderings the driver serves.
METHODS = {
    "rcb": rcb_order,
    "inertial": inertial_order,
}

#: Just below, at and just above the constant.
AROUND = (ONE_THREAD_BELOW_VERTICES - 1, ONE_THREAD_BELOW_VERTICES,
          ONE_THREAD_BELOW_VERTICES + 1)


@functools.lru_cache(maxsize=None)
def split_cloud(n: int, dim: int, layout: str = "random") -> CSRGraph:
    return cloud(n, dim, n + dim, layout=layout)


@functools.lru_cache(maxsize=None)
def serial_order(method: str, n: int, dim: int, layout: str) -> np.ndarray:
    saved = bisection._host_cpus
    bisection._host_cpus = lambda: 1
    try:
        return METHODS[method](split_cloud(n, dim, layout))
    finally:
        bisection._host_cpus = saved


def force_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(bisection, "_host_cpus", lambda: cpus)


class TestSubtreeThreads:
    """The split changes where each level runs, never the permutation."""

    @pytest.mark.parametrize("cpus", (1, 2, 3, 4))
    @pytest.mark.parametrize("n", AROUND, ids=("below", "at", "above"))
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("method", METHODS)
    def test_equals_serial_driver(self, monkeypatch, method, dim, layout, n, cpus):
        force_cpus(monkeypatch, cpus)
        np.testing.assert_array_equal(
            METHODS[method](split_cloud(n, dim, layout)),
            serial_order(method, n, dim, layout),
        )

    @pytest.mark.parametrize("dim", (2, 3))
    def test_rcb_equals_oracle_above_the_constant(self, monkeypatch, dim):
        force_cpus(monkeypatch, 4)
        graph = split_cloud(AROUND[-1], dim)
        assert_matches_oracle(graph)

    def test_split_runs_on_other_threads_and_joins_them(self, monkeypatch):
        force_cpus(monkeypatch, 4)
        before = threading.active_count()
        callers = set()

        def level_keys(perm, starts, seg, depth):
            callers.add((threading.get_ident(), depth >= 2))
            return np.argsort(np.argsort(perm))

        n = ONE_THREAD_BELOW_VERTICES
        np.testing.assert_array_equal(bisection_order(n, level_keys), np.arange(n))
        # Two levels on the caller, then four subtrees over four threads.
        assert {ident for ident, below in callers if not below} == {
            threading.get_ident()
        }
        assert len({ident for ident, below in callers if below}) > 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("subtree", (0, 1), ids=("caller", "worker"))
    def test_an_exception_in_a_subtree_surfaces(self, monkeypatch, subtree):
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        n = ONE_THREAD_BELOW_VERTICES

        def level_keys(perm, starts, seg, depth):
            if depth == 3 and (perm[0] >= n // 2) == subtree:
                raise ValueError(f"subtree {subtree} failed")
            return np.argsort(np.argsort(perm))

        with pytest.raises(ValueError, match=f"subtree {subtree} failed"):
            bisection_order(n, level_keys)
        assert threading.active_count() == before

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
    )
    def test_one_cpu_mask_stays_serial(self):
        callers = set()

        def level_keys(perm, starts, seg, depth):
            callers.add(threading.get_ident())
            return np.argsort(np.argsort(perm))

        with one_cpu():
            assert bisection.threads_for(ONE_THREAD_BELOW_VERTICES) == 1
            bisection_order(ONE_THREAD_BELOW_VERTICES, level_keys)
        assert callers == {threading.get_ident()}

    def test_below_the_constant_stays_serial(self, monkeypatch):
        force_cpus(monkeypatch, 4)
        assert bisection.threads_for(ONE_THREAD_BELOW_VERTICES - 1) == 1
        assert bisection.threads_for(ONE_THREAD_BELOW_VERTICES) == 4

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(bisection.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(bisection.os, "cpu_count", lambda: 3)
        assert bisection._host_cpus() == 3
