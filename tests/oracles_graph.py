"""Reference implementation of the mesh-thinning step.

``thin_to_edge_count_oracle`` is the body ``repro.graph.generators``
shipped before the spanning-tree membership test became one ``np.isin``
over scalar edge keys: a Python ``set`` of tree pairs probed once per
edge.  It stays here as the differential oracle — the generator must
keep exactly the same edges (``indptr``, ``indices`` and ``coords``
``array_equal``).  One Python step per edge — seconds at 250k vertices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_generator

__all__ = ["thin_to_edge_count_oracle"]


def thin_to_edge_count_oracle(
    graph: CSRGraph, m_target: int, *, seed: SeedLike = 0
) -> CSRGraph:
    m = graph.num_edges
    n = graph.num_vertices
    assert n - 1 <= m_target <= m
    if m_target == m:
        return graph
    edges = graph.edge_array()
    if graph.coords is not None:
        lengths = np.linalg.norm(
            graph.coords[edges[:, 0]] - graph.coords[edges[:, 1]], axis=1
        )
    else:
        lengths = as_generator(seed).uniform(size=edges.shape[0])
    w = sp.csr_matrix(
        (lengths + 1e-12, (edges[:, 0], edges[:, 1])), shape=(n, n)
    )
    mst = sp.csgraph.minimum_spanning_tree(w).tocoo()
    tree_keys = set(
        zip(
            np.minimum(mst.row, mst.col).tolist(),
            np.maximum(mst.row, mst.col).tolist(),
        )
    )
    in_tree = np.fromiter(
        ((int(u), int(v)) in tree_keys for u, v in edges),
        dtype=bool,
        count=edges.shape[0],
    )
    extra_needed = m_target - int(in_tree.sum())
    non_tree_idx = np.flatnonzero(~in_tree)
    keep_extra = non_tree_idx[np.argsort(lengths[non_tree_idx])[:extra_needed]]
    keep = np.zeros(edges.shape[0], dtype=bool)
    keep[in_tree] = True
    keep[keep_extra] = True
    return CSRGraph.from_edges(
        n, edges[keep], coords=graph.coords, vertex_weights=graph.vertex_weights
    )
