"""Mesh and graph generators for experiments and tests.

The headline generator is :func:`paper_mesh`, a synthetic stand-in for the
paper's Fig. 9 unstructured mesh (30,269 vertices / 44,929 edges): a
Delaunay triangulation of a jittered point cloud, thinned to the paper's
edge/vertex ratio while preserving connectivity and physical locality.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay, QhullError, cKDTree

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, _both_orientations, _from_keys
from repro.graph.mesh import Mesh
from repro.graph.ops import connected_components, largest_component
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "grid_graph",
    "delaunay_mesh",
    "perturbed_grid_mesh",
    "random_geometric_graph",
    "thin_to_edge_count",
    "paper_mesh",
    "streamed_grid_graph",
    "scale_mesh",
    "PAPER_MESH_VERTICES",
    "PAPER_MESH_EDGES",
    "SCALE_TIERS",
    "SCALE_FAMILIES",
]

#: Vertex/edge counts of the paper's Fig. 9 mesh.
PAPER_MESH_VERTICES = 30_269
PAPER_MESH_EDGES = 44_929


def grid_graph(nx: int, ny: int) -> CSRGraph:
    """A structured nx-by-ny grid graph with unit spacing coordinates.

    The regular baseline: every interior vertex has degree 4.  Row-major
    vertex numbering; built by :func:`streamed_grid_graph`.
    """
    return streamed_grid_graph(nx, ny)


def delaunay_mesh(points: np.ndarray) -> Mesh:
    """The Delaunay triangulation of an arbitrary 2-D point cloud."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GraphError(f"delaunay_mesh expects (n, 2) points, got {pts.shape}")
    if pts.shape[0] < 3:
        raise GraphError("delaunay_mesh needs at least 3 points")
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        reason = str(exc).splitlines()[0]
        raise GraphError(
            f"delaunay_mesh: the {pts.shape[0]} points are degenerate "
            f"(collinear or coincident, no triangle to build): {reason}"
        ) from exc
    return Mesh(pts, tri.simplices.astype(np.intp))


#: How far :func:`perturbed_grid_mesh` moves each grid point along each
#: axis, at most (grid spacing 1; below 0.5 no two points swap places).
_GRID_JITTER = 0.35


def perturbed_grid_mesh(nx: int, ny: int, *, seed: SeedLike = 0) -> Mesh:
    """A Delaunay mesh over a jittered grid: unstructured but uniform density.

    This is the workhorse synthetic "unstructured mesh from the physical
    domain" — vertices have 2-D coordinates and interactions are physically
    proximate, the property Sec. 3.1's transformations rely on.  Each point
    moves by up to 0.35 along each axis.
    """
    rng = as_generator(seed)
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    pts += rng.uniform(-_GRID_JITTER, _GRID_JITTER, size=pts.shape)
    return delaunay_mesh(pts)


def random_geometric_graph(
    n: int, *, seed: SeedLike = 0, dim: int = 2
) -> CSRGraph:
    """Uniform points in the unit square/cube, edges between points closer
    than the radius that gives mean degree ~6 (triangulation-like).  The
    largest connected component is returned.
    """
    if n < 2:
        raise GraphError("random_geometric_graph needs n >= 2")
    if dim not in (2, 3):
        raise GraphError(f"dim must be 2 or 3, got {dim}")
    rng = as_generator(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    target_degree = 6.0
    if dim == 2:
        radius = math.sqrt(target_degree / (math.pi * n))
    else:
        radius = (target_degree * 3.0 / (4.0 * math.pi * n)) ** (1.0 / 3.0)
    # The tree and its pairs are temporaries: from_edges frees the pairs
    # once it holds their keys, before it sorts and checks them.
    graph = CSRGraph.from_edges(
        n, cKDTree(pts).query_pairs(radius, output_type="ndarray"), coords=pts
    )
    return largest_component(graph)


def thin_to_edge_count(
    graph: CSRGraph, m_target: int, *, seed: SeedLike = 0
) -> CSRGraph:
    """Remove edges down to *m_target* while keeping the graph connected.

    A spanning tree is always retained; beyond that, the geometrically
    longest edges are dropped first so the surviving edges stay local
    (physically proximate interactions, per the paper's graph model).
    A disconnected graph has no spanning tree to keep: thinning one raises
    :class:`GraphError` (``m_target == m`` returns *graph* itself).
    """
    m = graph.num_edges
    n = graph.num_vertices
    if m_target > m:
        raise GraphError(f"cannot thin {m} edges up to {m_target}")
    if m_target < n - 1:
        raise GraphError(
            f"thinning below a spanning tree ({n - 1} edges) would disconnect"
        )
    if m_target == m:
        return graph
    thinned = _thin(graph, m_target, seed)
    if thinned is None:
        n_comp = connected_components(graph)[0]
        raise GraphError(
            f"cannot thin a graph of {n_comp} connected components: "
            "it has no spanning tree to keep"
        )
    return thinned


def _thin(graph: CSRGraph, m_target: int, seed: SeedLike) -> CSRGraph | None:
    """:func:`thin_to_edge_count` for ``n - 1 <= m_target < m``, or None
    when the minimum spanning forest has fewer than ``n - 1`` edges (the
    graph is disconnected) — the spanning tree doubles as the
    connectivity check."""
    n = graph.num_vertices
    # The undirected edges (u, v), u < v, are the CSR's upper triangle:
    # a suffix of each sorted row, so their keys u * n + v come sorted.
    src = np.repeat(np.arange(n, dtype=np.intp), graph.degrees)
    upper = src < graph.indices
    u, v = src[upper], graph.indices[upper]
    if graph.coords is not None:
        # np.linalg.norm(d, axis=1)'s own arithmetic, without its overhead.
        d = graph.coords[u] - graph.coords[v]
        lengths = np.sqrt(np.add.reduce(d * d, axis=1))
    else:
        lengths = as_generator(seed).uniform(size=u.size)
    # A spanning tree over shortest edges first (Kruskal via scipy MST) of
    # the upper triangle in CSR form — the matrix a COO (u, v) edge list
    # converts to, so scipy's stable tie order picks the same tree.
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    w = sp.csr_matrix((lengths + 1e-12, v, indptr), shape=(n, n))
    mst = sp.csgraph.minimum_spanning_tree(w, overwrite=True)
    if mst.nnz < n - 1:
        return None
    # Tree entries are upper-triangle entries of w: find them among the
    # sorted keys (int64: n*n overflows the MST's int32 indices).
    keys = u * n + v
    tree_row = np.repeat(np.arange(n, dtype=np.intp), np.diff(mst.indptr))
    keep = np.zeros(u.size, dtype=bool)
    keep[np.searchsorted(keys, tree_row * n + mst.indices)] = True
    non_tree = np.flatnonzero(~keep)
    extra = m_target - mst.nnz
    keep[non_tree[np.argsort(lengths[non_tree])[:extra]]] = True
    u, v = u[keep], v[keep]
    return _from_keys(n, _both_orientations(n, u, v), graph.coords)


#: Named mesh sizes of the scale benchmark tier (target vertex counts; the
#: generated mesh lands within a percent or two of the target).
SCALE_TIERS = {
    "10k": 10_000,
    "100k": 100_000,
    "250k": 250_000,
    "500k": 500_000,
    "1m": 1_000_000,
    "4m": 4_000_000,
    "10m": 10_000_000,
}

#: Graph families available at scale-tier sizes.
SCALE_FAMILIES = ("grid", "geometric")


#: Grid rows :func:`streamed_grid_graph` fills per block.
_BLOCK_ROWS = 256


def streamed_grid_graph(nx: int, ny: int) -> CSRGraph:
    """A structured grid built straight into CSR form, block by block.

    Never materializes the global edge list: ``indptr`` comes from a
    closed-form degree formula and ``indices`` is filled in row blocks of
    bounded size (O(256 * nx) scratch), in the sorted neighbor
    order :meth:`CSRGraph.from_edges` would give.  What remains of peak
    construction memory is the constructor's symmetry check, two
    per-entry temporaries: the traced peak is 2.8x the output arrays
    (``indptr``, ``indices``, ``coords``) at 1M vertices.
    """
    if nx < 1 or ny < 1:
        raise GraphError(f"grid dimensions must be >= 1, got {nx}x{ny}")
    cols = np.arange(nx, dtype=np.intp)
    # Closed-form degrees: 4 minus one per domain boundary the vertex sits on.
    row_deg = np.full(nx, 4, dtype=np.intp)
    row_deg[0] -= 1
    row_deg[-1] -= 1
    deg = np.tile(row_deg, ny)
    if ny == 1:
        deg -= 2  # no north and no south anywhere
    else:
        deg[:nx] -= 1       # first row: no north
        deg[-nx:] -= 1      # last row: no south
    indptr = np.concatenate([[0], np.cumsum(deg)]).astype(np.intp)
    indices = np.empty(int(indptr[-1]), dtype=np.intp)
    for r0 in range(0, ny, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, ny)
        rows = np.arange(r0, r1, dtype=np.intp)
        vs = rows[:, None] * nx + cols[None, :]
        # Candidate neighbors in ascending index order: N, W, E, S.
        cand = np.stack([vs - nx, vs - 1, vs + 1, vs + nx], axis=2)
        valid = np.stack(
            [
                np.broadcast_to((rows > 0)[:, None], vs.shape),
                np.broadcast_to((cols > 0)[None, :], vs.shape),
                np.broadcast_to((cols < nx - 1)[None, :], vs.shape),
                np.broadcast_to((rows < ny - 1)[:, None], vs.shape),
            ],
            axis=2,
        )
        indices[indptr[r0 * nx] : indptr[r1 * nx]] = cand[valid]
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return CSRGraph(indptr, indices, coords=coords)


def scale_mesh(
    tier: str, *, family: str = "grid", seed: SeedLike = 0
) -> CSRGraph:
    """A scale-tier workload mesh: ``tier`` names the target vertex count.

    ``family="grid"`` is a square structured grid built with
    :func:`streamed_grid_graph` (exactly ``round(sqrt(n))**2`` vertices,
    natural row-major order — already a good 1-D ordering).  For tiers
    whose target is not a perfect square (100k, 500k, 10m) the grid
    therefore lands *near* the target, not on it: 100k -> 99,856
    (316x316), 500k -> 499,849 (707x707), 10m -> 9,998,244 (3162x3162).
    A :class:`RuntimeWarning` notes the deviation.  ``family="geometric"``
    is a random geometric graph at mean degree ~6 (its largest connected
    component, so counts land slightly under the target).
    """
    if tier not in SCALE_TIERS:
        known = ", ".join(SCALE_TIERS)
        raise GraphError(f"unknown scale tier {tier!r}; known: {known}")
    n = SCALE_TIERS[tier]
    if family == "grid":
        side = int(round(math.sqrt(n)))
        if side * side != n:
            warnings.warn(
                f"scale_mesh({tier!r}, family='grid') builds {side}x{side} "
                f"= {side * side} vertices, not the nominal {n}",
                RuntimeWarning,
                stacklevel=2,
            )
        return streamed_grid_graph(side, side)
    if family == "geometric":
        return random_geometric_graph(n, seed=seed)
    raise GraphError(
        f"unknown scale family {family!r}; known: {', '.join(SCALE_FAMILIES)}"
    )


def paper_mesh(
    n_vertices: int = PAPER_MESH_VERTICES, *, seed: SeedLike = 1995
) -> CSRGraph:
    """A synthetic stand-in for the paper's Fig. 9 mesh.

    Builds a jittered-grid Delaunay mesh with ``n_vertices`` points and
    thins it to the paper's edge/vertex ratio (44,929 / 30,269 ≈ 1.484).
    Connectivity and 2-D locality are preserved, so partition quality and
    communication volume behave like the original workload.
    """
    if n_vertices < 9:
        raise GraphError("paper_mesh needs at least 9 vertices")
    n_edges = int(round(n_vertices * PAPER_MESH_EDGES / PAPER_MESH_VERTICES))

    def edge_target(g: CSRGraph) -> int:
        return max(min(n_edges, g.num_edges), g.num_vertices - 1)

    side = int(math.ceil(math.sqrt(n_vertices)))
    graph = perturbed_grid_mesh(side, side, seed=seed).graph
    if graph.num_vertices > n_vertices:
        # Trim to exactly n_vertices by dropping the last grid points.
        graph = graph.subgraph(np.arange(graph.num_vertices) < n_vertices)
    if edge_target(graph) < graph.num_edges:
        thinned = _thin(graph, edge_target(graph), seed)
        if thinned is not None:
            return thinned
    # The trim split the mesh (thinning's spanning forest is not a tree),
    # or there is nothing to thin and so no tree: keep the largest component.
    graph = largest_component(graph)
    return thin_to_edge_count(graph, edge_target(graph), seed=seed)
