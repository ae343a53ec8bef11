"""Graph operations used by the partitioners and the runtime.

Everything here is vectorized over numpy/scipy per the hpc-parallel guide:
graph-sized loops are expressed as sparse-matrix operations, never Python
``for`` loops over vertices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph

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
    """The induced subgraph on the largest connected component.

    Partition quality metrics assume connectivity; mesh generators call this
    to guarantee it.
    """
    n_comp, labels = connected_components(graph)
    if n_comp <= 1:
        return graph
    return graph.subgraph(labels == np.bincount(labels).argmax())
