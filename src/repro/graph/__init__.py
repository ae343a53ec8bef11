"""Computational-graph substrate: CSR graphs, meshes, generators, metrics."""

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
from repro.graph.metrics import cut_curve, edge_cut, mean_edge_span, ordering_bandwidth
from repro.graph.ops import connected_components, largest_component, to_scipy

__all__ = [
    "CSRGraph",
    "Mesh",
    "PAPER_MESH_EDGES",
    "PAPER_MESH_VERTICES",
    "connected_components",
    "cut_curve",
    "delaunay_mesh",
    "edge_cut",
    "grid_graph",
    "largest_component",
    "mean_edge_span",
    "ordering_bandwidth",
    "paper_mesh",
    "perturbed_grid_mesh",
    "random_geometric_graph",
    "thin_to_edge_count",
    "to_scipy",
]
