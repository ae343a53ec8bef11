"""Reference implementation of the mesh-thinning step, and a 3-D mesh builder.

``thin_to_edge_count_oracle`` is the body ``repro.graph.generators``
shipped before the spanning-tree membership test became one ``np.isin``
over scalar edge keys: a Python ``set`` of tree pairs probed once per
edge.  It stays here as the differential oracle — the generator must
keep exactly the same edges (``indptr``, ``indices`` and ``coords``
``array_equal``).  One Python step per edge — seconds at 250k vertices.

``grid_mesh_3d`` is the tetrahedral test mesh for the paper's
"two- or three-dimensional coordinates": no shipped generator is 3-D, so
the coordinate-based orderings and the runtime are exercised in 3-D on it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.graph.mesh import Mesh
from repro.utils.rng import SeedLike, as_generator

__all__ = ["thin_to_edge_count_oracle", "grid_mesh_3d"]


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


def grid_mesh_3d(nx: int, ny: int, nz: int, *, jitter: float = 0.0,
                 seed: SeedLike = 0) -> Mesh:
    """A structured 3-D grid tetrahedralized (6 tets per cube), optionally
    jittered by up to ``jitter`` (< 0.5) grid cells into an unstructured cloud."""
    xs, ys, zs = np.meshgrid(
        np.arange(nx, dtype=float),
        np.arange(ny, dtype=float),
        np.arange(nz, dtype=float),
        indexing="ij",
    )
    points = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    if jitter:
        rng = as_generator(seed)
        points = points + rng.uniform(-jitter, jitter, size=points.shape)
    idx = np.arange(nx * ny * nz).reshape(nx, ny, nz)
    # Corner index arrays for every cube (nx-1, ny-1, nz-1 cubes).
    c000 = idx[:-1, :-1, :-1].ravel()
    c100 = idx[1:, :-1, :-1].ravel()
    c010 = idx[:-1, 1:, :-1].ravel()
    c110 = idx[1:, 1:, :-1].ravel()
    c001 = idx[:-1, :-1, 1:].ravel()
    c101 = idx[1:, :-1, 1:].ravel()
    c011 = idx[:-1, 1:, 1:].ravel()
    c111 = idx[1:, 1:, 1:].ravel()
    # The standard 6-tetrahedron decomposition along the main diagonal
    # c000 -> c111 (all tets share that edge, so the mesh is conforming).
    tet_corners = [
        (c000, c100, c110, c111),
        (c000, c100, c101, c111),
        (c000, c010, c110, c111),
        (c000, c010, c011, c111),
        (c000, c001, c101, c111),
        (c000, c001, c011, c111),
    ]
    cells = np.concatenate(
        [np.stack(t, axis=1) for t in tet_corners], axis=0
    ).astype(np.intp)
    return Mesh(points, cells)
