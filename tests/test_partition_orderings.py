"""Tests for the 1-D locality orderings (RCB, inertial, RSB, SFC)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_partition import hilbert_keys_2d_oracle, principal_axis
from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh, perturbed_grid_mesh
from repro.graph.metrics import mean_edge_span
from repro.partition.inertial import InertialOrdering, inertial_order
from repro.partition.ordering import (
    IdentityOrdering,
    RandomOrdering,
    inverse,
    positions_from_order,
)
from repro.partition.rcb import RCBOrdering, rcb_order
from repro.partition.sfc import (
    HilbertOrdering,
    MortonOrdering,
    hilbert_keys_2d,
    morton_keys,
    quantize_coords,
    sfc_order,
)
from repro.partition.spectral import (
    SpectralOrdering,
    fiedler_vector,
    rsb_order,
)

ALL_METHODS = [
    RCBOrdering(),
    InertialOrdering(),
    SpectralOrdering(leaf_size=32),
    HilbertOrdering(),
    MortonOrdering(),
    IdentityOrdering(),
    RandomOrdering(seed=1),
]


@pytest.fixture(scope="module")
def mesh_graph():
    return perturbed_grid_mesh(15, 15, seed=8).graph


class TestOrderingBasics:
    def test_inverse_roundtrip(self):
        perm = np.array([2, 0, 3, 1])
        inv = inverse(perm)
        np.testing.assert_array_equal(perm[inv], np.arange(4))
        np.testing.assert_array_equal(inv[perm], np.arange(4))

    def test_positions_from_order(self):
        order = np.array([3, 1, 0, 2])  # vertex 3 first on the line
        perm = positions_from_order(order)
        assert perm[3] == 0 and perm[1] == 1 and perm[0] == 2 and perm[2] == 3

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_every_method_returns_permutation(self, mesh_graph, method):
        perm = method(mesh_graph)
        n = mesh_graph.num_vertices
        assert perm.shape == (n,)
        assert np.array_equal(np.sort(perm), np.arange(n))

    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), HilbertOrdering(), MortonOrdering(),
         SpectralOrdering(leaf_size=32)],
        ids=lambda m: m.name,
    )
    def test_locality_methods_beat_random(self, mesh_graph, method):
        span = mean_edge_span(mesh_graph, method(mesh_graph))
        rand = mean_edge_span(mesh_graph, RandomOrdering(seed=0)(mesh_graph))
        assert span < rand / 3.0

    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), SpectralOrdering(leaf_size=32),
         HilbertOrdering(), MortonOrdering()],
        ids=lambda m: m.name,
    )
    def test_deterministic(self, mesh_graph, method):
        np.testing.assert_array_equal(method(mesh_graph), method(mesh_graph))

    def test_coordinate_methods_need_coords(self):
        abstract = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        for method in (RCBOrdering(), InertialOrdering(), HilbertOrdering()):
            with pytest.raises(OrderingError):
                method(abstract)

    @pytest.mark.parametrize(
        "bad", (np.nan, np.inf, -np.inf), ids=("nan", "inf", "-inf")
    )
    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), HilbertOrdering(), MortonOrdering()],
        ids=lambda m: m.name,
    )
    def test_coordinate_methods_reject_non_finite_coords(self, method, bad):
        # One bad value made RCB and inertial return the identity (every
        # jittered key NaN) and the SFCs an arbitrary order.
        graph = paper_mesh(2_000, seed=3)
        coords = graph.coords.copy()
        coords[1_234, 0] = bad
        graph = CSRGraph(graph.indptr, graph.indices, coords=coords)
        with pytest.raises(OrderingError, match=rf"vertex 1234 has {bad} on axis 0"):
            method(graph)

    def test_spectral_works_without_coords(self):
        abstract = CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        perm = SpectralOrdering(leaf_size=8)(abstract)
        # A path's spectral order must be monotone along the path.
        seq = perm.tolist()
        assert seq == sorted(seq) or seq == sorted(seq, reverse=True)


class TestRCB:
    def test_median_split_sizes(self):
        g = grid_graph(4, 4)
        order = rcb_order(g)
        assert order.size == 16
        # First half of the order lies in one half-plane of the wide axis.
        xs = g.coords[order[:8], 0]
        assert xs.max() <= g.coords[order[8:], 0].min() + 1e-9

    def test_handles_duplicate_coordinates(self):
        coords = np.zeros((6, 2))
        g = CSRGraph.from_edges(6, [(i, i + 1) for i in range(5)], coords=coords)
        perm = RCBOrdering()(g)
        assert np.array_equal(np.sort(perm), np.arange(6))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [], coords=np.zeros((0, 2)))
        assert rcb_order(g).size == 0

    def test_single_vertex(self):
        g = CSRGraph.from_edges(1, [], coords=np.zeros((1, 2)))
        np.testing.assert_array_equal(rcb_order(g), [0])


class TestInertial:
    def test_principal_axis_obvious_direction(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.1], [20.0, -0.1], [30.0, 0.0]])
        axis = principal_axis(pts)
        assert abs(axis[0]) > 0.99

    def test_principal_axis_degenerate(self):
        axis = principal_axis(np.zeros((5, 2)))
        np.testing.assert_allclose(axis, [1.0, 0.0])

    def test_rotated_domain_adapts(self):
        # A thin strip at 45 degrees: inertial splits along the strip.
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 20, 200)
        pts = np.stack([t + rng.normal(0, 0.1, 200), t + rng.normal(0, 0.1, 200)], axis=1)
        edges = [(i, i + 1) for i in range(199)]
        g = CSRGraph.from_edges(200, edges, coords=pts)
        order = inertial_order(g)
        proj = (pts[order] @ np.array([1.0, 1.0])) / np.sqrt(2)
        # First half of the order projects below the second half.
        assert np.median(proj[:100]) < np.median(proj[100:])


class TestSpectral:
    def test_fiedler_path_monotone(self):
        g = CSRGraph.from_edges(10, [(i, i + 1) for i in range(9)])
        from repro.graph.ops import to_scipy

        vec = fiedler_vector(to_scipy(g), rng=np.random.default_rng(0))
        diffs = np.diff(vec)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_fiedler_rejects_single_vertex(self):
        from repro.graph.ops import to_scipy

        g = CSRGraph.from_edges(1, [])
        with pytest.raises(OrderingError):
            fiedler_vector(to_scipy(g), rng=np.random.default_rng(0))

    def test_rsb_handles_disconnected(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        order = rsb_order(g, leaf_size=4)
        assert np.array_equal(np.sort(order), np.arange(6))
        pos = inverse(positions_from_order(order))
        del pos
        # Components stay contiguous on the line.
        positions = positions_from_order(order)
        comp0 = sorted(positions[[0, 1, 2]])
        comp1 = sorted(positions[[3, 4, 5]])
        assert comp0 == [0, 1, 2] or comp0 == [3, 4, 5]
        assert comp1 != comp0

    def test_rsb_leaf_size_validation(self):
        with pytest.raises(OrderingError):
            rsb_order(grid_graph(3, 3), leaf_size=1)


class TestSFC:
    def test_quantize_range(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
        q = quantize_coords(coords, 4)
        assert q.min() >= 0 and q.max() <= 15

    def test_quantize_rejects_bad_bits(self):
        with pytest.raises(OrderingError):
            quantize_coords(np.zeros((2, 2)), 0)
        with pytest.raises(OrderingError):
            quantize_coords(np.zeros((2, 2)), 25)

    def test_quantize_degenerate_axis(self):
        coords = np.array([[0.0, 5.0], [1.0, 5.0]])
        q = quantize_coords(coords, 4)
        assert q[:, 1].max() == 0  # constant axis maps to 0

    def test_morton_2d_known_values(self):
        # Grid cell (x=1, y=0) -> key 1; (0,1) -> 2; (1,1) -> 3.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        keys = morton_keys(coords, bits=1)
        np.testing.assert_array_equal(keys, [0, 1, 2, 3])

    def test_hilbert_2x2_is_curve(self):
        coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        keys = hilbert_keys_2d(coords, bits=1)
        np.testing.assert_array_equal(keys, [0, 1, 2, 3])

    def test_hilbert_adjacency_property(self):
        # Consecutive Hilbert positions are neighboring grid cells.
        bits = 3
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        keys = hilbert_keys_2d(coords, bits=bits)
        order = np.argsort(keys)
        pts = coords[order]
        steps = np.abs(np.diff(pts, axis=0)).sum(axis=1)
        np.testing.assert_allclose(steps, 1.0)  # unit Manhattan steps

    def test_morton_has_jumps_hilbert_does_not(self):
        bits = 4
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        h = coords[np.argsort(hilbert_keys_2d(coords, bits=bits))]
        m = coords[np.argsort(morton_keys(coords, bits=bits))]
        h_steps = np.abs(np.diff(h, axis=0)).sum(axis=1)
        m_steps = np.abs(np.diff(m, axis=0)).sum(axis=1)
        assert h_steps.max() == 1.0
        assert m_steps.max() > 1.0

    def test_morton_3d(self):
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        keys = morton_keys(coords, bits=2)
        assert keys[0] < keys[1]

    def test_hilbert_rejects_3d(self):
        with pytest.raises(OrderingError):
            hilbert_keys_2d(np.zeros((2, 3)), 16)

    def test_sfc_order_bad_curve(self):
        with pytest.raises(OrderingError):
            sfc_order(grid_graph(2, 2), curve="peano")

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_hilbert_is_bijection_on_grid(self, bits):
        side = 2**bits
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
        keys = hilbert_keys_2d(coords, bits=bits)
        assert np.unique(keys).size == side * side
        assert keys.max() == side * side - 1

    @pytest.mark.parametrize("bits", range(1, 22))
    def test_hilbert_table_walk_equals_per_bit_oracle(self, bits):
        # Every width: 4-bit steps left-pad the others, which changes the
        # state the walk starts in.
        coords = np.random.default_rng(bits).random((4000, 2))
        keys = hilbert_keys_2d(coords, bits=bits)
        oracle = hilbert_keys_2d_oracle(coords, bits=bits)
        assert keys.dtype == oracle.dtype == np.uint64
        np.testing.assert_array_equal(keys, oracle)

    @pytest.mark.parametrize(
        "coords",
        [
            np.array([[0.3, 0.7]]),  # one point
            np.full((5, 2), 2.5),  # all points equal
            np.column_stack([np.linspace(0, 1, 9), np.zeros(9)]),  # y constant
            np.column_stack([np.ones(9), np.linspace(-3, 4, 9)]),  # x constant
        ],
    )
    def test_hilbert_degenerate_inputs_equal_oracle(self, coords):
        for bits in (1, 5, 16, 21):
            np.testing.assert_array_equal(
                hilbert_keys_2d(coords, bits=bits),
                hilbert_keys_2d_oracle(coords, bits=bits),
            )

    def test_hilbert_ordering_of_paper_mesh_equals_oracle(self):
        graph = paper_mesh(30269, seed=3)
        order = np.argsort(hilbert_keys_2d_oracle(graph.coords), kind="stable")
        np.testing.assert_array_equal(
            HilbertOrdering()(graph), positions_from_order(order.astype(np.intp))
        )
