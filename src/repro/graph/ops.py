"""Graph operations used by the partitioners and the runtime.

Everything here is vectorized over numpy/scipy per the hpc-parallel guide:
graph-sized loops are expressed as sparse-matrix operations, never Python
``for`` loops over vertices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph, _trusted

__all__ = [
    "to_scipy",
    "connected_components",
    "largest_component",
]


def to_scipy(graph: CSRGraph) -> sp.csr_matrix:
    """The graph's adjacency as a scipy CSR matrix (data = 1.0)."""
    n = graph.num_vertices
    data = np.ones(graph.indices.size, dtype=np.float64)
    return sp.csr_matrix(
        (data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n)
    )


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """(number of components, per-vertex component labels)."""
    n_comp, labels = sp.csgraph.connected_components(
        to_scipy(graph), directed=False
    )
    return int(n_comp), labels.astype(np.intp)


def largest_component(graph: CSRGraph) -> CSRGraph:
    """The induced subgraph on the largest connected component; of several
    that large, the one holding the lowest vertex id.

    Partition quality metrics assume connectivity; mesh generators call this
    to guarantee it.
    """
    indptr, indices = graph.indptr, graph.indices
    canonical = _rows_strictly_sorted(indptr, indices)
    label = _component_labels if canonical else connected_components
    n_comp, labels = label(graph)
    if n_comp <= 1:
        return graph
    counts = np.bincount(labels)
    largest = counts == counts.max()
    keep = labels == labels[np.argmax(largest[labels])]
    if not canonical:
        return graph.subgraph(keep)
    # A component is closed under adjacency, so its rows are slices of the
    # graph's rows; relabelling keeps the order, so they stay sorted.
    new_id = np.cumsum(keep) - 1
    degrees = graph.degrees
    kept_degrees = degrees[keep]
    sub_indptr = np.zeros(kept_degrees.size + 1, dtype=np.intp)
    np.cumsum(kept_degrees, out=sub_indptr[1:])
    sub_indices = new_id[indices[np.repeat(keep, degrees)]]
    coords = None if graph.coords is None else graph.coords[keep]
    return _trusted(sub_indptr, sub_indices, coords)


def _component_labels(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """Connected components of *graph*, whose rows hold each neighbour
    once, as scipy's strong components: on a symmetric graph they are the
    same sets, found with no transpose and no copy of unit weights.
    scipy does not promise :func:`connected_components`' numbering for
    them, and its strong search does not return on repeated entries."""
    n = graph.num_vertices
    ones = np.broadcast_to(np.float64(1.0), graph.indices.shape)
    adjacency = sp.csr_matrix((ones, graph.indices, graph.indptr), shape=(n, n))
    n_comp, labels = sp.csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    return int(n_comp), labels


def _rows_strictly_sorted(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every row lists its neighbours in ascending order, once
    each (as every CSR built from keys does)."""
    ascending = indices[1:] > indices[:-1]
    row_starts = indptr[1:-1]
    row_starts = row_starts[(row_starts > 0) & (row_starts < indices.size)]
    ascending[row_starts - 1] = True
    return bool(ascending.all())
