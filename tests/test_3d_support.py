"""Tests for 3-D meshes and the runtime over 3-D workloads.

The paper's graph model covers "two- or three-dimensional coordinates";
these tests exercise the 3-D path end to end: tetrahedral meshes, the
coordinate-based orderings, and a full program run against the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles_graph import grid_mesh_3d
from repro.graph.generators import random_geometric_graph
from repro.graph.metrics import mean_edge_span
from repro.graph.ops import connected_components
from repro.net.cluster import sun4_cluster, uniform_cluster
from repro.partition.inertial import InertialOrdering
from repro.partition.ordering import RandomOrdering
from repro.partition.rcb import RCBOrdering
from repro.partition.sfc import HilbertOrdering, MortonOrdering
from repro.runtime.kernels import run_sequential
from repro.runtime.program import ProgramConfig, run_program


@pytest.fixture(scope="module")
def mesh3d():
    return grid_mesh_3d(6, 6, 6, jitter=0.25, seed=3)


class TestGridMesh3D:
    def test_shapes(self, mesh3d):
        assert mesh3d.dim == 3
        assert mesh3d.num_points == 216
        assert mesh3d.num_cells == 6 * 5**3
        assert mesh3d.cells.shape[1] == 4  # tetrahedra

    def test_connected(self, mesh3d):
        assert connected_components(mesh3d.graph)[0] == 1

    def test_degree_profile_sane(self):
        m = grid_mesh_3d(4, 4, 4)
        degs = m.graph.degrees
        # Tetrahedralized grid: interior vertices see their 6 axis
        # neighbors plus face/main diagonals.
        assert degs.min() >= 3
        assert degs.max() <= 26

    def test_structured_coordinates(self):
        m = grid_mesh_3d(3, 3, 3)
        np.testing.assert_array_equal(m.points[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.points[-1], [2.0, 2.0, 2.0])

    def test_jitter_reproducible(self):
        a = grid_mesh_3d(4, 4, 4, jitter=0.2, seed=9)
        b = grid_mesh_3d(4, 4, 4, jitter=0.2, seed=9)
        np.testing.assert_array_equal(a.points, b.points)


class TestOrderings3D:
    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(),
         MortonOrdering(), HilbertOrdering()],
        ids=lambda m: m.name,
    )
    def test_produces_permutation(self, mesh3d, method):
        perm = method(mesh3d.graph)
        n = mesh3d.num_points
        assert np.array_equal(np.sort(perm), np.arange(n))

    @pytest.mark.parametrize(
        "method",
        [RCBOrdering(), InertialOrdering(), MortonOrdering()],
        ids=lambda m: m.name,
    )
    def test_locality_beats_random(self, mesh3d, method):
        g = mesh3d.graph
        span = mean_edge_span(g, method(g))
        rand = mean_edge_span(g, RandomOrdering(seed=0)(g))
        assert span < rand / 2.0

    def test_random_geometric_3d_ordering(self):
        g = random_geometric_graph(400, seed=5, dim=3)
        perm = RCBOrdering()(g)
        assert np.array_equal(np.sort(perm), np.arange(g.num_vertices))


class TestProgram3D:
    def test_matches_oracle(self, mesh3d):
        g = mesh3d.graph
        y0 = np.random.default_rng(7).uniform(0, 100, g.num_vertices)
        oracle = run_sequential(g, y0, 10)
        rep = run_program(
            g, sun4_cluster(3), ProgramConfig(iterations=10), y0=y0
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_all_strategies(self, mesh3d):
        g = mesh3d.graph
        y0 = np.random.default_rng(8).uniform(0, 100, g.num_vertices)
        oracle = run_sequential(g, y0, 6)
        for strategy in ("sort1", "sort2", "simple"):
            rep = run_program(
                g, uniform_cluster(3),
                ProgramConfig(iterations=6, strategy=strategy), y0=y0,
            )
            np.testing.assert_allclose(rep.values, oracle, atol=1e-9)
