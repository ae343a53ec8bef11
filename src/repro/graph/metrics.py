"""Partition and ordering quality metrics.

These quantify the two goals of Sec. 1 — load balance and data locality —
plus 1-D-specific measures of how well an ordering "encapsulates the
locality" of the graph (Sec. 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.utils.validation import check_permutation

__all__ = [
    "edge_cut",
    "ordering_bandwidth",
    "mean_edge_span",
    "cut_curve",
]


def _check_labels(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (graph.num_vertices,):
        raise PartitionError(
            f"labels shape {labels.shape} != ({graph.num_vertices},)"
        )
    if labels.size and labels.min() < 0:
        raise PartitionError("negative partition labels")
    return labels


def edge_cut(graph: CSRGraph, labels: np.ndarray) -> int:
    """Number of undirected edges whose endpoints lie in different parts.

    Each cross edge is one nonlocal access per iteration in each direction,
    so the cut is the communication *volume* proxy the partitioners minimize.
    """
    labels = _check_labels(graph, labels)
    edges = graph.edge_array()
    if edges.size == 0:
        return 0
    return int(np.count_nonzero(labels[edges[:, 0]] != labels[edges[:, 1]]))


def ordering_bandwidth(graph: CSRGraph, perm: np.ndarray) -> int:
    """max |perm[u] - perm[v]| over edges: worst-case 1-D stretch."""
    perm = check_permutation(perm, graph.num_vertices)
    edges = graph.edge_array()
    if edges.size == 0:
        return 0
    return int(np.abs(perm[edges[:, 0]] - perm[edges[:, 1]]).max())


def mean_edge_span(graph: CSRGraph, perm: np.ndarray) -> float:
    """mean |perm[u] - perm[v]| over edges: average 1-D stretch.

    A good locality-improving transformation keeps this near the O(sqrt(n))
    of a planar mesh; a random permutation pushes it to ~n/3.
    """
    perm = check_permutation(perm, graph.num_vertices)
    edges = graph.edge_array()
    if edges.size == 0:
        return 0.0
    return float(np.abs(perm[edges[:, 0]] - perm[edges[:, 1]]).mean())


def cut_curve(
    graph: CSRGraph, perm: np.ndarray, part_counts: list[int] | np.ndarray
) -> dict[int, int]:
    """Edge cut of contiguous equal splits of the 1-D list, per part count.

    This operationalizes Sec. 3.1's goal — "achieve good partitioning for a
    wide range of partitions": one ordering is evaluated under many
    partition counts by splitting [0, n) into equal contiguous blocks.
    """
    perm = check_permutation(perm, graph.num_vertices)
    n = graph.num_vertices
    result: dict[int, int] = {}
    for p in part_counts:
        p = int(p)
        if p < 1:
            raise PartitionError(f"part count must be >= 1, got {p}")
        # Equal contiguous blocks over the 1-D positions.
        labels_1d = (perm.astype(np.float64) * p / n).astype(np.intp)
        labels_1d = np.minimum(labels_1d, p - 1)
        result[p] = edge_cut(graph, labels_1d)
    return result
