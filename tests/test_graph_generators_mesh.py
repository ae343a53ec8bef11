"""Tests for mesh structures and graph/mesh generators."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from oracles_graph import (
    grid_graph_oracle,
    grid_mesh_3d,
    mesh_graph_oracle,
    paper_mesh_oracle,
    thin_to_edge_count_oracle,
)

import repro.graph.generators as generators
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    PAPER_MESH_EDGES,
    PAPER_MESH_VERTICES,
    delaunay_mesh,
    grid_graph,
    paper_mesh,
    perturbed_grid_mesh,
    random_geometric_graph,
    thin_to_edge_count,
)
from repro.graph.mesh import Mesh
from repro.graph.ops import connected_components


def assert_same_graph(new: CSRGraph, old: CSRGraph) -> None:
    """Byte-identical CSR: same arrays, same dtypes."""
    for field in ("indptr", "indices", "coords"):
        a, b = getattr(new, field), getattr(old, field)
        np.testing.assert_array_equal(a, b)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype, field


class TestMesh:
    def test_basic(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh(pts, np.array([[0, 1, 2]]))
        assert m.num_points == 3
        assert m.num_cells == 1
        assert m.num_edges == 3
        assert m.dim == 2

    def test_graph_carries_coords(self):
        m = perturbed_grid_mesh(3, 3, seed=0)
        assert m.graph.coords is not None
        np.testing.assert_array_equal(m.graph.coords, m.points)

    def test_rejects_bad_cells(self):
        pts = np.zeros((3, 2))
        with pytest.raises(GraphError):
            Mesh(pts, np.array([[0, 1, 9]]))
        with pytest.raises(GraphError):
            Mesh(pts, np.array([[0, 1]]))  # wrong arity for 2-D

    def test_rejects_bad_points(self):
        with pytest.raises(GraphError):
            Mesh(np.zeros((3, 5)), np.zeros((1, 6), dtype=int))

    def test_graph_cached(self):
        m = perturbed_grid_mesh(3, 3, seed=0)
        assert m.graph is m.graph

    @pytest.mark.parametrize("build", [
        lambda: perturbed_grid_mesh(13, 11, seed=4),
        lambda: grid_mesh_3d(4, 3, 5, jitter=0.2, seed=1),
        # A degenerate cell (repeated vertex) adds no self-loop; a shared
        # edge is stored once.
        lambda: Mesh(np.eye(4, 2), np.array([[0, 1, 1], [0, 1, 2], [1, 2, 3]])),
        lambda: Mesh(np.zeros((3, 2)), np.empty((0, 3), dtype=int)),
    ])
    def test_graph_equals_oracle(self, build):
        mesh = build()
        assert_same_graph(mesh.graph, mesh_graph_oracle(mesh))


class TestGridGenerators:
    def test_grid_graph_edge_count(self):
        g = grid_graph(4, 5)
        assert g.num_vertices == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # vert rows x horiz + ...

    def test_grid_graph_degree_profile(self):
        g = grid_graph(3, 3)
        degs = sorted(g.degrees.tolist())
        assert degs == [2, 2, 2, 2, 3, 3, 3, 3, 4]

    def test_grid_graph_single_vertex(self):
        g = grid_graph(1, 1)
        assert g.num_vertices == 1 and g.num_edges == 0

    def test_grid_graph_rejects_zero(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestUnstructuredGenerators:
    def test_delaunay_connected(self):
        rng = np.random.default_rng(0)
        m = delaunay_mesh(rng.uniform(size=(50, 2)))
        assert connected_components(m.graph)[0] == 1

    def test_delaunay_rejects_too_few(self):
        with pytest.raises(GraphError):
            delaunay_mesh(np.zeros((2, 2)))

    def test_delaunay_rejects_3d(self):
        with pytest.raises(GraphError):
            delaunay_mesh(np.zeros((10, 3)))

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],  # collinear
        [[1.0, 2.0]] * 4,  # coincident
    ])
    def test_delaunay_rejects_flat_input(self, points):
        """Qhull's error on a flat cloud surfaces as a GraphError."""
        with pytest.raises(GraphError, match="degenerate"):
            delaunay_mesh(np.array(points))

    def test_perturbed_grid_reproducible(self):
        a = perturbed_grid_mesh(10, 10, seed=5)
        b = perturbed_grid_mesh(10, 10, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_perturbed_grid_seed_changes_mesh(self):
        a = perturbed_grid_mesh(10, 10, seed=5)
        b = perturbed_grid_mesh(10, 10, seed=6)
        assert not np.array_equal(a.points, b.points)

    def test_random_geometric_connected(self):
        g = random_geometric_graph(300, seed=2)
        assert connected_components(g)[0] == 1
        assert g.coords is not None

    def test_random_geometric_3d(self):
        g = random_geometric_graph(200, seed=3, dim=3)
        assert g.coords.shape[1] == 3

    def test_random_geometric_rejects_bad_dim(self):
        with pytest.raises(GraphError):
            random_geometric_graph(50, dim=4)


class TestThinning:
    def test_thin_exact_count(self):
        g = perturbed_grid_mesh(12, 12, seed=1).graph
        target = g.num_vertices + 50
        thinned = thin_to_edge_count(g, target, seed=0)
        assert thinned.num_edges == target

    def test_thin_preserves_connectivity(self):
        g = perturbed_grid_mesh(12, 12, seed=1).graph
        thinned = thin_to_edge_count(g, g.num_vertices - 1, seed=0)
        assert connected_components(thinned)[0] == 1

    def test_thin_noop_at_current_count(self):
        g = grid_graph(5, 5)
        assert thin_to_edge_count(g, g.num_edges) is g

    def test_thin_rejects_increase(self):
        g = grid_graph(5, 5)
        with pytest.raises(GraphError):
            thin_to_edge_count(g, g.num_edges + 1)

    def test_thin_rejects_below_tree(self):
        g = grid_graph(5, 5)
        with pytest.raises(GraphError):
            thin_to_edge_count(g, g.num_vertices - 2)

    def test_thin_rejects_disconnected(self):
        """Two disjoint triangles have no spanning tree to keep."""
        pts = np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], float)
        g = Mesh(pts, np.array([[0, 1, 2], [3, 4, 5]])).graph
        with pytest.raises(GraphError, match="2 connected components"):
            thin_to_edge_count(g, 5)
        assert thin_to_edge_count(g, g.num_edges) is g  # nothing removed

    def test_thin_all_ties_equals_oracle(self):
        """Every edge of a unit grid ties: scipy's stable tie order and
        the argsort over the non-tree edges must pick the same edges."""
        g = grid_graph(20, 20)
        assert_same_graph(
            thin_to_edge_count(g, 500), thin_to_edge_count_oracle(g, 500)
        )

    @pytest.mark.parametrize("n", [64, 200, 1000, 2000, 30_269])
    def test_paper_mesh_equals_oracle_thinning(self, n):
        """One sort of simplex-edge keys, upper-triangle thinning and the
        spanning tree as connectivity check build the very mesh the
        edge-list path did."""
        assert_same_graph(paper_mesh(n, seed=3), paper_mesh_oracle(n, seed=3))

    def test_thin_without_coords_equals_oracle(self):
        """The coordinate-free branch (seeded random lengths)."""
        edges = perturbed_grid_mesh(9, 9, seed=2).graph.edge_array()
        g = CSRGraph.from_edges(81, edges)
        new = thin_to_edge_count(g, 100, seed=5)
        old = thin_to_edge_count_oracle(g, 100, seed=5)
        np.testing.assert_array_equal(new.indptr, old.indptr)
        np.testing.assert_array_equal(new.indices, old.indices)

    def test_thin_keeps_short_edges(self):
        g = perturbed_grid_mesh(10, 10, seed=4).graph
        thinned = thin_to_edge_count(g, g.num_vertices + 20, seed=0)
        def mean_len(gr):
            e = gr.edge_array()
            return np.linalg.norm(gr.coords[e[:, 0]] - gr.coords[e[:, 1]], axis=1).mean()
        assert mean_len(thinned) <= mean_len(g) + 1e-9


class TestPaperMesh:
    def test_edge_ratio_matches_paper(self):
        g = paper_mesh(3000, seed=1)
        ratio = g.num_edges / g.num_vertices
        paper_ratio = PAPER_MESH_EDGES / PAPER_MESH_VERTICES
        assert abs(ratio - paper_ratio) < 0.05

    def test_connected(self):
        g = paper_mesh(1500, seed=2)
        assert connected_components(g)[0] == 1

    def test_has_coordinates(self):
        assert paper_mesh(600, seed=3).coords is not None

    def test_reproducible(self):
        a, b = paper_mesh(800, seed=9), paper_mesh(800, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_rejects_tiny(self):
        with pytest.raises(GraphError):
            paper_mesh(4)

    @pytest.mark.parametrize("n", range(16, 400, 5))
    def test_equals_oracle(self, n):
        """The job service's sizes (64-320): square sides and trimmed."""
        for seed in range(8):
            assert_same_graph(paper_mesh(n, seed=seed), paper_mesh_oracle(n, seed=seed))

    def test_connected_trim_needs_no_component_search(self, monkeypatch):
        """Thinning's spanning tree is the connectivity check: a trim that
        leaves the mesh connected never labels components."""
        def unreachable(graph):
            raise AssertionError("largest_component on the common path")

        monkeypatch.setattr(generators, "largest_component", unreachable)
        assert paper_mesh(150, seed=2).num_vertices == 150

    @staticmethod
    def split_by_trim(nx, ny, *, seed):
        """16 points whose first 10 form two components once the last six
        (the only bridges between them) are trimmed: 0-6 and 7-9."""
        assert (nx, ny) == (4, 4)
        pts = np.stack([np.arange(16.0), np.arange(16.0) % 3], axis=1)
        cells = [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6],
                 [7, 8, 9], [6, 10, 11], [10, 11, 12], [12, 13, 14],
                 [13, 14, 15], [9, 15, 14]]
        return Mesh(pts, np.array(cells))

    @pytest.mark.parametrize("n_edges, edges", [(9, 9), (100, 11)])
    def test_trim_that_splits_keeps_largest_component(
        self, monkeypatch, n_edges, edges
    ):
        """No generated mesh splits when trimmed; a handcrafted one does.
        Thinned (9 edges), the spanning forest reports it; unthinned (100),
        there is no forest and the component search runs instead.  The
        edge/vertex ratio is set so 10 vertices target *n_edges*."""
        monkeypatch.setattr(generators, "perturbed_grid_mesh", self.split_by_trim)
        monkeypatch.setattr(
            generators, "PAPER_MESH_EDGES",
            round(n_edges * generators.PAPER_MESH_VERTICES / 10),
        )
        g = paper_mesh(10, seed=0)
        assert (g.num_vertices, g.num_edges) == (7, edges)
        assert connected_components(g)[0] == 1
        assert_same_graph(g, paper_mesh_oracle(10, seed=0))


class TestStreamedGridGraph:
    """The streamed CSR builder must match the edge-list path exactly."""

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (1, 6), (8, 8), (13, 7)])
    def test_matches_grid_graph(self, monkeypatch, nx, ny):
        from repro.graph.generators import streamed_grid_graph

        monkeypatch.setattr(generators, "_BLOCK_ROWS", 3)
        a = grid_graph_oracle(nx, ny)
        b = streamed_grid_graph(nx, ny)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_block_rows_irrelevant(self, monkeypatch):
        from repro.graph.generators import streamed_grid_graph

        monkeypatch.setattr(generators, "_BLOCK_ROWS", 1)
        a = streamed_grid_graph(20, 15)
        monkeypatch.setattr(generators, "_BLOCK_ROWS", 1000)
        b = streamed_grid_graph(20, 15)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_rejects_bad_arguments(self):
        from repro.errors import GraphError
        from repro.graph.generators import streamed_grid_graph

        with pytest.raises(GraphError):
            streamed_grid_graph(0, 5)


class TestScaleMesh:
    def test_tiers_and_families(self):
        from repro.graph.generators import SCALE_TIERS, scale_mesh

        g = scale_mesh("10k")
        assert g.num_vertices == 10_000  # 100^2 exactly
        geo = scale_mesh("10k", family="geometric", seed=3)
        assert 0.9 * SCALE_TIERS["10k"] <= geo.num_vertices <= SCALE_TIERS["10k"]
        assert geo.coords is not None

    def test_unknown_tier_or_family(self):
        from repro.errors import GraphError
        from repro.graph.generators import scale_mesh

        with pytest.raises(GraphError):
            scale_mesh("3k")
        with pytest.raises(GraphError):
            scale_mesh("10k", family="torus")

    def test_non_square_tier_warns_with_actual_count(self):
        from repro.graph.generators import scale_mesh

        with pytest.warns(RuntimeWarning, match=r"316x316 = 99856"):
            g = scale_mesh("100k")
        assert g.num_vertices == 99_856  # 316^2, not the nominal 100_000

    def test_square_tier_is_silent(self):
        import warnings

        from repro.graph.generators import scale_mesh

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = scale_mesh("10k")
        assert g.num_vertices == 10_000


def test_geometric_build_memory_is_bounded():
    """Graph construction reuses its per-entry arrays: the traced peak of
    building the 100k geometric mesh stays within 4.5x the output's
    arrays.  Measured 2.86x (20.4 MB for 7.1 MB of indptr, indices and
    coords); 6.04x when every builder step allocated fresh per-edge
    temporaries."""
    import tracemalloc

    from repro.graph.generators import scale_mesh

    tracemalloc.start()
    try:
        graph = scale_mesh("100k", family="geometric", seed=1995)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = graph.indptr.nbytes + graph.indices.nbytes + graph.coords.nbytes
    assert peak <= 4.5 * output, f"traced peak {peak / output:.2f}x the output"


# sha256 of (indptr, indices, coords) of the meshes the benchmark workloads
# and their fingerprints are built on; computed before CSR construction moved
# to sorted scalar keys, which must not change one byte of them.
@pytest.mark.parametrize("build, digests", [
    pytest.param(lambda: paper_mesh(30_269), (
        "9f1a89b99a2b2513d4f732ad6fb95f41d0f2d455d28c32c3d2de11396138f0e1",
        "2751049c05209d1e98686f5e20193d17dce8de1c9914fb5584eb8282b51813eb",
        "b32299427373ae07a7f6debe5c223b2ae2e9ad189898beb960632cf48540087c",
    ), id="paper_mesh(30_269)"),
    pytest.param(lambda: paper_mesh(2_000, seed=3), (  # 45 x 45 points, trimmed
        "d0c7eb89ea50349083283daec4501eafaddc773b2a30debc9fd83f362ac0c7cc",
        "5b329c1e040c1188dc98d4205d46a3fe0c59c3c38e5d43a1bb0e622160afb9a9",
        "ec4881818f9696ed37f5969ad87ed937e3653b902dd87701f115474cac8f72d5",
    ), id="paper_mesh(2_000,seed=3)"),
    pytest.param(lambda: generators.scale_mesh("10k", family="geometric", seed=1995), (
        "5c8623598a06a3750c333c64f15a97e52ffb33d1529381dcb04ed993eeb0bed2",
        "7083203e4f95bd2541af296d12308ed62d1549127044608db19282790bd37b30",
        "41a62358e017d1ec918c77af54a8c2bafb819bb33ebc20eff1e6b97544da0bc2",
    ), id="scale_mesh(10k,geometric,seed=1995)"),
])
def test_mesh_digest_pinned(build, digests):
    graph = build()
    assert tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (graph.indptr, graph.indices, graph.coords)
    ) == digests
