"""Recursive coordinate bisection (RCB) indexing — paper Fig. 2.

RCB repeatedly splits the point set at the median of its widest coordinate
axis.  Used here not to produce p parts directly but to produce the full
1-D *ordering*: recursing to singletons yields a permutation in which
physically proximate vertices get nearby indices, so "partitioning is
equivalent to assigning contiguous blocks" (Sec. 3.1) for any p.

The tree is built level by level, not box by box
(:mod:`repro.partition.bisection`): each vertex is ranked once per axis on
``coords[:, axis] + jitter``, and one level is a ``reduceat`` pass for the
boxes' extents plus one in-place ``np.sort`` of the int64 words
``box * dim * n + axis * n + rank``, whose low part names the vertex through
the per-axis visit orders; no ``argsort`` runs per level.  The Python loop
runs ``ceil(log2 n)`` times.  From ``ONE_THREAD_BELOW_VERTICES`` vertices
up, the per-axis rankings run on parallel threads, one axis each, and so
do the subtrees below the top ``ceil(log2 W)`` levels (``W`` CPUs in the
affinity mask): a 250k-vertex mesh takes about 0.16 s on two Xeon vCPUs
with numpy 2.4, 0.27 s on one.

Ties.  The seeded jitter makes the keys distinct on every mesh generator
in the repo, and then the permutation is a pure function of the lo/hi
*sets*: identical to the box-at-a-time recursion kept as the test oracle
(``tests/oracles_partition.py``).  If keys do tie (jitter absorbed by
huge coordinates) the split is stable by vertex id — still a bijection,
still ``s // 2 | s - s // 2`` per box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.bisection import (
    bisection_order,
    parallel_map,
    stable_order,
    threads_for,
    tiebreak_jitter,
)
from repro.partition.ordering import positions_from_order, require_coords

__all__ = ["RCBOrdering", "rcb_order"]


def rcb_order(graph: CSRGraph) -> np.ndarray:
    """RCB visit order: vertex ids in 1-D sequence.

    Each box is split across its widest axis, which adapts to anisotropic
    domains like the airfoil channel.
    """
    coords = require_coords(graph, "RCB")
    n, dim = coords.shape
    jitter = tiebreak_jitter(coords)
    columns = [np.ascontiguousarray(coords[:, a]) for a in range(dim)]
    # Key a * n + r stands for the vertex of rank r along axis a:
    # vertex_of[a * n + r] is that vertex, key_of[a * n + v] its key.
    vertex_of = np.concatenate(
        parallel_map(lambda col: stable_order(col + jitter), columns, threads_for(n))
    )
    key_of = np.empty(dim * n, dtype=np.intp)
    key_of[vertex_of + np.repeat(np.arange(dim, dtype=np.intp) * n, n)] = (
        np.arange(dim * n, dtype=np.intp)
    )

    def level_keys(perm, starts, seg, depth):
        extents = []
        for col in columns:
            sub = col[perm]
            extents.append(
                np.maximum.reduceat(sub, starts) - np.minimum.reduceat(sub, starts)
            )
        # Widest axis of each box (lowest axis on equal extents).
        axis = np.argmax(extents, axis=0)[seg]
        return key_of[axis * n + perm]

    return bisection_order(n, level_keys, vertex_of)


@dataclass(frozen=True)
class RCBOrdering:
    """Recursive coordinate bisection as an :class:`OrderingMethod`."""

    name: ClassVar[str] = "rcb"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(rcb_order(graph))
