"""Reference implementations of graph-construction steps, and a 3-D mesh builder.

``thin_to_edge_count_oracle`` is the body ``repro.graph.generators``
shipped before the spanning-tree membership test became one ``np.isin``
over scalar edge keys: a Python ``set`` of tree pairs probed once per
edge.  It stays here as the differential oracle — the generator must
keep exactly the same edges (``indptr``, ``indices`` and ``coords``
``array_equal``).  One Python step per edge — seconds at 250k vertices.

``mesh_graph_oracle`` is ``Mesh.graph`` before it built its CSR from
the simplex-edge keys directly: every simplex edge as a column pair
through ``from_edges``.  ``paper_mesh_oracle`` is ``paper_mesh`` before
thinning's spanning tree became its connectivity check: the mesh graph;
if trimmed, its ``largest_component`` (a ``connected_components`` call
whether or not the trim split it); then thinned.  Every step here is an
oracle, so only the jittered points and qhull's simplices are shared.

``grid_graph_oracle`` is ``grid_graph`` before it became
``streamed_grid_graph``: the grid's edge list through ``from_edges``.

``from_edges_oracle``, ``edge_array_oracle``, ``check_symmetric_oracle``,
``induced_subgraph_oracle`` and ``largest_component_oracle`` are the
bodies ``repro.graph`` shipped before every CSR was built from sorted
scalar keys ``src * n + dst``: a ``np.unique`` over undirected keys plus
a two-key ``np.lexsort`` per construction, two full sorts per symmetry
check, and induced subgraphs rebuilt through an edge list.  The
shipped code must build ``array_equal`` graphs (all four fields) and
reject exactly the graphs these reject.

``grid_mesh_3d`` is the tetrahedral test mesh for the paper's
"two- or three-dimensional coordinates": no shipped generator is 3-D, so
the coordinate-based orderings and the runtime are exercised in 3-D on it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.mesh import Mesh
from repro.graph.ops import connected_components
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "thin_to_edge_count_oracle",
    "mesh_graph_oracle",
    "paper_mesh_oracle",
    "grid_graph_oracle",
    "from_edges_oracle",
    "edge_array_oracle",
    "check_symmetric_oracle",
    "induced_subgraph_oracle",
    "largest_component_oracle",
    "grid_mesh_3d",
]


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
    return CSRGraph.from_edges(n, edges[keep], coords=graph.coords)


def mesh_graph_oracle(mesh: Mesh) -> CSRGraph:
    k = mesh.cells.shape[1]
    pairs = [mesh.cells[:, [i, j]] for i in range(k) for j in range(i + 1, k)]
    edges = np.concatenate(pairs, axis=0)
    return from_edges_oracle(mesh.num_points, edges, coords=mesh.points)


def paper_mesh_oracle(
    n_vertices: int = generators.PAPER_MESH_VERTICES, *, seed: SeedLike = 1995
) -> CSRGraph:
    n_edges = int(round(
        n_vertices * generators.PAPER_MESH_EDGES / generators.PAPER_MESH_VERTICES
    ))
    side = int(math.ceil(math.sqrt(n_vertices)))
    # Looked up at call time, so a test can hand both builders one mesh.
    mesh = generators.perturbed_grid_mesh(side, side, seed=seed)
    graph = mesh_graph_oracle(mesh)
    if graph.num_vertices > n_vertices:
        keep = np.arange(graph.num_vertices) < n_vertices
        graph = largest_component_oracle(induced_subgraph_oracle(graph, keep))
    n_edges = min(n_edges, graph.num_edges)
    n_edges = max(n_edges, graph.num_vertices - 1)
    return thin_to_edge_count_oracle(graph, n_edges, seed=seed)


def grid_graph_oracle(nx: int, ny: int) -> CSRGraph:
    idx = np.arange(nx * ny).reshape(ny, nx)
    horiz = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vert = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    edges = np.concatenate([horiz, vert], axis=0)
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return from_edges_oracle(nx * ny, edges, coords=coords)


def from_edges_oracle(
    n: int, edges, *, coords: np.ndarray | None = None
) -> CSRGraph:
    if n < 0:
        raise GraphError(f"vertex count must be >= 0, got {n}")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.intp)
    arr = arr.reshape(-1, 2).astype(np.intp)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise GraphError("edge endpoints out of range")
    arr = arr[arr[:, 0] != arr[:, 1]]  # drop self-loops
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if lo.size:
        key = lo * np.intp(n) + hi
        _, unique_idx = np.unique(key, return_index=True)
        lo, hi = lo[unique_idx], hi[unique_idx]
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst, coords=coords)


def edge_array_oracle(graph: CSRGraph) -> np.ndarray:
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.intp), np.diff(graph.indptr))
    mask = src < graph.indices
    edges = np.stack([src[mask], graph.indices[mask]], axis=1)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def check_symmetric_oracle(indptr: np.ndarray, indices: np.ndarray) -> None:
    n = indptr.size - 1
    if indices.size == 0:
        return
    src = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    if np.any(src == indices):
        raise GraphError("graph has self-loops")
    fwd = src * n + indices
    rev = indices * n + src
    if not np.array_equal(np.sort(fwd), np.sort(rev)):
        raise GraphError("adjacency is not symmetric")


def induced_subgraph_oracle(graph: CSRGraph, keep: np.ndarray) -> CSRGraph:
    new_id = np.cumsum(keep) - 1
    edges = edge_array_oracle(graph)
    mask = keep[edges[:, 0]] & keep[edges[:, 1]]
    remapped = new_id[edges[mask]]
    coords = None if graph.coords is None else graph.coords[keep]
    return from_edges_oracle(int(keep.sum()), remapped, coords=coords)


def largest_component_oracle(graph: CSRGraph) -> CSRGraph:
    n_comp, labels = connected_components(graph)
    if n_comp <= 1:
        return graph
    counts = np.bincount(labels)
    return induced_subgraph_oracle(graph, labels == counts.argmax())


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
