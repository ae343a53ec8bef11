"""Inertial bisection indexing (paper Sec. 3.1's heuristic list).

Like RCB, but each box is split perpendicular to its *principal inertial
axis* (the direction of maximum spread found by PCA of the coordinates)
instead of a coordinate axis.  This adapts to domains not aligned with the
axes — e.g. a rotated channel — at the cost of a small eigen-solve per box.

Built level by level on the driver RCB uses
(:mod:`repro.partition.bisection`): the covariances of all boxes of one
depth come from segment sums (``np.add.reduceat``) and one stacked
``np.linalg.eigh``.  The driver runs a large tree's subtrees on parallel
threads; ``level_keys`` writes nothing they share.  Batched summation
rounds differently from a per-box matrix product, so against the
box-at-a-time recursion kept as the test oracle
(``tests/oracles_partition.py``) the contract is the same bisection rule
and the same partition quality, not an identical permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.bisection import (
    bisection_order,
    stable_ranks,
    tiebreak_jitter,
)
from repro.partition.ordering import positions_from_order, require_coords

__all__ = ["InertialOrdering", "inertial_order"]


def _principal_axes(columns: list[np.ndarray], starts: np.ndarray) -> np.ndarray:
    """Principal axis of every segment, one row each.

    ``columns[a]`` holds coordinate ``a`` of all points, segment after
    segment, and ``starts`` the first position of each segment.  Segments
    of at most two points, and degenerate ones (all points coincident, or
    a non-finite covariance), get the x axis.
    """
    dim = len(columns)
    sizes = np.diff(starts, append=columns[0].size)
    centered = [
        col - np.repeat(np.add.reduceat(col, starts) / sizes, sizes)
        for col in columns
    ]
    cov = np.empty((starts.size, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            cov[:, i, j] = np.add.reduceat(centered[i] * centered[j], starts)
            cov[:, j, i] = cov[:, i, j]
    flat = cov.reshape(starts.size, -1)
    solve = (
        (sizes > 2)
        & np.isfinite(flat).all(axis=1)
        & ~np.isclose(flat, 0).all(axis=1)
    )
    axes = np.zeros((starts.size, dim))
    axes[:, 0] = 1.0
    if solve.any():
        found = np.linalg.eigh(cov[solve])[1][:, :, -1]
        # Fix the sign (first non-negligible component positive) so
        # orderings are deterministic across LAPACK builds.
        big = np.abs(found) > 1e-12
        lead = found[np.arange(found.shape[0]), big.argmax(axis=1)]
        found[big.any(axis=1) & (lead < 0)] *= -1
        axes[solve] = found
    return axes


def inertial_order(graph: CSRGraph) -> np.ndarray:
    """Inertial bisection visit order (vertex ids in 1-D sequence).

    Boxes of one or two points are ordered by their x coordinate.
    """
    coords = require_coords(graph, "inertial bisection")
    n, dim = coords.shape
    jitter = tiebreak_jitter(coords)
    columns = [np.ascontiguousarray(coords[:, a]) for a in range(dim)]

    def level_keys(perm, starts, seg, depth):
        subs = [col[perm] for col in columns]
        axes = _principal_axes(subs, starts)
        keys = jitter[perm]
        for a, sub in enumerate(subs):
            keys += axes[seg, a] * sub
        return stable_ranks(keys)

    return bisection_order(n, level_keys)


@dataclass(frozen=True)
class InertialOrdering:
    """Inertial bisection as an :class:`OrderingMethod`."""

    name: ClassVar[str] = "inertial"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(inertial_order(graph))
