"""Tests for the CSR graph structure (+ property tests on construction)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_graph import grid_mesh_3d
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh


def triangle() -> CSRGraph:
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_from_edges_basic(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        np.testing.assert_array_equal(g.degrees, [2, 2, 2])

    def test_from_edges_drops_duplicates(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_drops_self_loops(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges(4, [])
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_rejects_asymmetric(self):
        # 0->1 stored but not 1->0.
        with pytest.raises(GraphError, match="symmetric"):
            CSRGraph(indptr=np.array([0, 1, 1]), indices=np.array([1]))

    def test_rejects_self_loop_in_csr(self):
        with pytest.raises(GraphError, match="self-loops"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0]))

    def test_rejects_bad_indptr(self):
        with pytest.raises(GraphError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0]))
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([1, 0]))

    def test_rejects_indptr_indices_mismatch(self):
        with pytest.raises(GraphError, match="disagrees"):
            CSRGraph(indptr=np.array([0, 5]), indices=np.array([1]))

    def test_coords_validation(self):
        coords = np.zeros((3, 2))
        g = CSRGraph.from_edges(3, [(0, 1)], coords=coords)
        assert g.dim == 2
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1)], coords=np.zeros((2, 2)))
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1)], coords=np.zeros((3, 5)))

    def test_weights_validation(self):
        g = CSRGraph.from_edges(2, [(0, 1)], vertex_weights=[1.0, 2.0])
        np.testing.assert_array_equal(g.weights(), [1.0, 2.0])
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 1)], vertex_weights=[-1.0, 2.0])
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 1)], vertex_weights=[1.0])

    def test_default_weights_uniform(self):
        np.testing.assert_array_equal(triangle().weights(), np.ones(3))


class TestAccessors:
    def test_neighbors(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        np.testing.assert_array_equal(np.sort(g.neighbors(0)), [1, 2, 3])
        np.testing.assert_array_equal(g.neighbors(1), [0])

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphError):
            triangle().neighbors(9)

    def test_edge_array_canonical(self):
        edges = triangle().edge_array()
        assert edges.shape == (3, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        # Sorted lexicographically.
        assert np.array_equal(edges, np.array([[0, 1], [0, 2], [1, 2]]))

    def test_iter_edges(self):
        assert list(triangle().iter_edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_repr(self):
        assert "n=3" in repr(triangle())


class TestPermute:
    def test_permute_identity(self):
        g = triangle()
        g2 = g.permute([0, 1, 2])
        assert np.array_equal(g2.edge_array(), g.edge_array())

    def test_permute_relabels_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        g2 = g.permute([2, 0, 1])  # 0->2, 1->0
        assert list(g2.iter_edges()) == [(0, 2)]

    def test_permute_carries_coords(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], coords=coords)
        g2 = g.permute([2, 0, 1])
        # new vertex 2 is old vertex 0.
        np.testing.assert_array_equal(g2.coords[2], coords[0])

    def test_permute_carries_weights(self):
        g = CSRGraph.from_edges(2, [(0, 1)], vertex_weights=[5.0, 7.0])
        g2 = g.permute([1, 0])
        np.testing.assert_array_equal(g2.vertex_weights, [7.0, 5.0])

    def test_permute_rejects_invalid(self):
        with pytest.raises(ValueError):
            triangle().permute([0, 0, 1])

    @pytest.mark.parametrize("make", (
        lambda: paper_mesh(700, seed=3),
        lambda: grid_graph(9, 4),
        lambda: grid_mesh_3d(3, 4, 5).graph,
        lambda: CSRGraph.from_edges(6, [(0, 5), (2, 3)], vertex_weights=np.arange(6.0)),
        lambda: CSRGraph.from_edges(4, []),
        lambda: CSRGraph.from_edges(0, []),
    ))
    def test_permute_equals_rebuild_from_relabelled_edges(self, make):
        # permute() sorts the relabelled CSR entries directly and skips
        # validation; the result must be the graph from_edges would build.
        g = make()
        n = g.num_vertices
        perm = np.random.default_rng(n).permutation(n)
        inv = np.argsort(perm)
        want = CSRGraph.from_edges(
            n,
            perm[g.edge_array()],
            coords=None if g.coords is None else g.coords[inv],
            vertex_weights=(
                None if g.vertex_weights is None else g.vertex_weights[inv]
            ),
        )
        got = g.permute(perm)
        for name in ("indptr", "indices", "coords", "vertex_weights"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        # ... and a valid one: the validating constructor accepts it.
        CSRGraph(got.indptr, got.indices, got.coords, got.vertex_weights)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_permute_preserves_structure(self, data):
        n = data.draw(st.integers(2, 12))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(possible), max_size=20, unique=True)
        )
        g = CSRGraph.from_edges(n, edges)
        perm = np.array(data.draw(st.permutations(list(range(n)))))
        g2 = g.permute(perm)
        assert g2.num_edges == g.num_edges
        # degree multiset invariant under relabeling
        assert sorted(g2.degrees.tolist()) == sorted(g.degrees.tolist())
        # each original edge maps to a permuted edge
        original = {(min(u, v), max(u, v)) for u, v in g.iter_edges()}
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in original
        }
        assert mapped == {(u, v) for u, v in g2.iter_edges()}

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_from_edges_symmetric_property(self, data):
        n = data.draw(st.integers(1, 15))
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=30,
            )
        )
        g = CSRGraph.from_edges(n, edges)
        # Symmetry: u in adj(v) iff v in adj(u); validated at construction,
        # double-check via explicit membership.
        for u, v in g.iter_edges():
            assert u in g.neighbors(v)
            assert v in g.neighbors(u)
