"""Tests for graph metrics and operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, perturbed_grid_mesh
from repro.graph.metrics import cut_curve, edge_cut, mean_edge_span, ordering_bandwidth
from repro.graph.ops import connected_components, largest_component


def path4() -> CSRGraph:
    return CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestMetrics:
    def test_edge_cut_halves(self):
        labels = np.array([0, 0, 1, 1])
        assert edge_cut(path4(), labels) == 1

    def test_edge_cut_all_same(self):
        assert edge_cut(path4(), np.zeros(4, dtype=int)) == 0

    def test_edge_cut_alternating(self):
        assert edge_cut(path4(), np.array([0, 1, 0, 1])) == 3

    def test_edge_cut_shape_check(self):
        with pytest.raises(PartitionError):
            edge_cut(path4(), np.zeros(3, dtype=int))

    def test_bandwidth_and_span(self):
        g = path4()
        ident = np.arange(4)
        assert ordering_bandwidth(g, ident) == 1
        assert mean_edge_span(g, ident) == 1.0
        rev = np.array([3, 2, 1, 0])
        assert ordering_bandwidth(g, rev) == 1

    def test_bandwidth_bad_ordering(self):
        g = path4()
        scrambled = np.array([0, 3, 1, 2])
        assert ordering_bandwidth(g, scrambled) == 3

    def test_cut_curve_monotonic_grid(self):
        g = grid_graph(8, 8)
        curve = cut_curve(g, np.arange(64), [2, 4, 8])
        assert curve[2] <= curve[4] <= curve[8]
        assert curve[2] == 8  # one row boundary

    def test_cut_curve_rejects_bad_parts(self):
        with pytest.raises(PartitionError):
            cut_curve(path4(), np.arange(4), [0])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_edge_cut_bounds(self, data):
        g = perturbed_grid_mesh(6, 6, seed=0).graph
        labels = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 3),
                    min_size=g.num_vertices,
                    max_size=g.num_vertices,
                )
            )
        )
        cut = edge_cut(g, labels)
        assert 0 <= cut <= g.num_edges


class TestOps:
    def test_connected_components(self):
        g = CSRGraph.from_edges(5, [(0, 1), (2, 3)])
        n, labels = connected_components(g)
        assert n == 3
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

    def test_largest_component(self):
        g = CSRGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)],
                                coords=np.random.default_rng(0).uniform(size=(6, 2)))
        big = largest_component(g)
        assert big.num_vertices == 3
        assert big.num_edges == 2
        assert big.coords.shape == (3, 2)

    def test_largest_component_noop_when_connected(self):
        g = path4()
        assert largest_component(g) is g
