"""Tests for the CSR graph structure (+ property tests on construction)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_graph import (
    check_symmetric_oracle,
    edge_array_oracle,
    from_edges_oracle,
    grid_mesh_3d,
    induced_subgraph_oracle,
    largest_component_oracle,
)
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh
from repro.graph.ops import largest_component


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


class TestAccessors:
    def test_neighbors(self):
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        row = lambda v: g.indices[g.indptr[v] : g.indptr[v + 1]]
        np.testing.assert_array_equal(np.sort(row(0)), [1, 2, 3])
        np.testing.assert_array_equal(row(1), [0])

    def test_edge_array_lists_each_edge_once(self):
        # Duplicates, both orientations and self-loops collapse to one row.
        g = CSRGraph.from_edges(3, [(1, 0), (0, 1), (2, 1), (2, 2), (0, 2)])
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.num_edges == 3

    def test_edge_array_canonical(self):
        edges = triangle().edge_array()
        assert edges.shape == (3, 2)
        assert np.all(edges[:, 0] < edges[:, 1])
        # Sorted lexicographically.
        assert np.array_equal(edges, np.array([[0, 1], [0, 2], [1, 2]]))

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
        assert g2.edge_array().tolist() == [[0, 2]]

    def test_permute_carries_coords(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], coords=coords)
        g2 = g.permute([2, 0, 1])
        # new vertex 2 is old vertex 0.
        np.testing.assert_array_equal(g2.coords[2], coords[0])

    def test_permute_rejects_invalid(self):
        with pytest.raises(ValueError):
            triangle().permute([0, 0, 1])

    @pytest.mark.parametrize("make", (
        lambda: paper_mesh(700, seed=3),
        lambda: grid_graph(9, 4),
        lambda: grid_mesh_3d(3, 4, 5).graph,
        lambda: CSRGraph.from_edges(6, [(0, 5), (2, 3)]),
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
        )
        got = g.permute(perm)
        for name in ("indptr", "indices", "coords"):
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        # ... and a valid one: the validating constructor accepts it.
        CSRGraph(got.indptr, got.indices, got.coords)

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
        original = {(u, v) for u, v in g.edge_array().tolist()}
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in original
        }
        assert mapped == {(u, v) for u, v in g2.edge_array().tolist()}

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
        for u, v in g.edge_array():
            assert u in g.indices[g.indptr[v] : g.indptr[v + 1]]
            assert v in g.indices[g.indptr[u] : g.indptr[u + 1]]


# --------------------------------------------------------------------------
# Every CSR is built from sorted scalar keys src * n + dst; the bodies this
# replaced (tests/oracles_graph.py) are the differential oracles.


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    for name in ("indptr", "indices", "coords"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)


@st.composite
def edge_lists(draw, min_n=0):
    """(n, edges): duplicates, self-loops and both orientations included;
    vertices no edge touches stay isolated."""
    n = draw(st.integers(min_n, 12))
    if n == 0:
        return 0, []
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40
    ))
    flipped = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, edges + [(v, u) for u, v in flipped]


@st.composite
def attributes(draw, n):
    """Optional coords for an *n*-vertex graph."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng.uniform(size=(n, 2)) if draw(st.booleans()) else None


@st.composite
def raw_csrs(draw, symmetric=True):
    """(indptr, indices) of a CSR built directly, not through from_edges:
    rows sorted or shuffled, entries possibly repeated.  Unless
    *symmetric*, one mutation may add a self-loop, drop an entry or
    redirect one (the graph is then usually invalid)."""
    n, edges = draw(edge_lists(min_n=1))
    arr = np.array([(u, v) for u, v in edges if u != v], dtype=np.intp).reshape(-1, 2)
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mutation = "none" if symmetric else draw(
        st.sampled_from(["none", "self-loop", "drop", "redirect"])
    )
    if mutation == "self-loop":
        v = int(rng.integers(n))
        src, dst = np.append(src, v), np.append(dst, v)
    elif mutation == "drop" and src.size:
        keep = np.arange(src.size) != rng.integers(src.size)
        src, dst = src[keep], dst[keep]
    elif mutation == "redirect" and src.size:
        dst = dst.copy()
        dst[rng.integers(src.size)] = rng.integers(n)
    if draw(st.booleans()):
        order = np.lexsort((dst, src))
    else:
        shuffle = rng.permutation(src.size)
        order = shuffle[np.argsort(src[shuffle], kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


class TestScalarKeyConstruction:
    @given(edge_lists(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_edges_matches_oracle(self, case, data):
        n, edges = case
        coords = data.draw(attributes(n))
        assert_same_graph(
            CSRGraph.from_edges(n, edges, coords=coords),
            from_edges_oracle(n, edges, coords=coords),
        )

    @given(raw_csrs())
    @settings(max_examples=150, deadline=None)
    def test_edge_array_matches_oracle_on_raw_rows(self, raw):
        g = CSRGraph(*raw)
        got, want = g.edge_array(), edge_array_oracle(g)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @given(edge_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_largest_component_matches_oracle(self, case, data):
        n, edges = case
        coords = data.draw(attributes(n))
        g = CSRGraph.from_edges(n, edges, coords=coords)
        assert_same_graph(largest_component(g), largest_component_oracle(g))

    @given(raw_csrs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subgraph_matches_oracle_on_raw_rows(self, raw, data):
        indptr, indices = raw
        n = indptr.size - 1
        coords = data.draw(attributes(n))
        g = CSRGraph(indptr, indices, coords=coords)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assert_same_graph(g.subgraph(keep), induced_subgraph_oracle(g, keep))
        assert_same_graph(largest_component(g), largest_component_oracle(g))

    @pytest.mark.parametrize("n, edges", [
        # two triangles: the one holding vertex 0 wins the tie
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        # the same, listed and numbered so the tie's winner comes second
        (7, [(4, 5), (5, 6), (4, 6), (1, 2), (2, 3), (1, 3)]),
        # equal paths interleaved by vertex id, isolated vertices between
        (9, [(1, 3), (3, 5), (2, 4), (4, 6)]),
        # a larger component after a tie of smaller ones and isolated ids
        (10, [(0, 1), (2, 3), (5, 6), (6, 7), (7, 9)]),
        # isolated vertices only: every component ties at one vertex
        (4, []),
    ])
    def test_largest_component_tie_goes_to_the_lowest_vertex(self, n, edges):
        g = CSRGraph.from_edges(
            n, edges, coords=np.arange(2.0 * n).reshape(n, 2)
        )
        assert_same_graph(largest_component(g), largest_component_oracle(g))

    @given(raw_csrs(symmetric=False))
    @settings(max_examples=300, deadline=None)
    def test_rejections_match_oracle(self, raw):
        def verdict(check):
            try:
                check()
            except GraphError as exc:
                return str(exc)
            return None

        want = verdict(lambda: check_symmetric_oracle(*raw))
        assert verdict(lambda: CSRGraph(*raw)) == want

    @pytest.mark.parametrize("indptr, indices, match", [
        ([0, 1, 1], [1], "symmetric"),               # 0->1 without 1->0
        ([0, 2, 3, 4], [2, 1, 0, 1], "symmetric"),   # unsorted row, 2->0 missing
        ([0, 2, 3, 4], [2, 1, 0, 2], "self-loops"),  # unsorted row, 2->2
        ([0, 2, 2], [1, 1], "symmetric"),            # repeated 0->1, no 1->0
    ])
    def test_rejects_sorted_or_unsorted_rows(self, indptr, indices, match):
        with pytest.raises(GraphError, match=match):
            CSRGraph(np.array(indptr), np.array(indices))
        with pytest.raises(GraphError, match=match):
            check_symmetric_oracle(np.array(indptr), np.array(indices))
