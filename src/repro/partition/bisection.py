"""Level-synchronous recursive bisection — the driver RCB and inertial share.

Recursive bisection to singletons is a binary tree with one box per node;
walking it box by box costs one Python step per vertex.  Here every box of
one depth is a contiguous *segment* of a single working permutation, and
one level of the tree is a constant number of whole-array numpy passes:

1. the method supplies one integer split key per vertex (its rank along
   the axis chosen for its segment);
2. one ``argsort`` on ``segment * n + key`` sorts every segment at once;
3. every segment of size ``s >= 2`` becomes two, ``s // 2 | s - s // 2``.

Segment sizes at depth ``k`` are ``floor(n / 2**k)`` or one more, so the
loop runs ``ceil(log2 n)`` times and then every segment is a singleton:
the working permutation is the visit order.

Ties: a method that ranks with :func:`stable_ranks` gets distinct keys, so
the composite sort has exactly one answer; equal float keys rank by
position (vertex id when ranked once over all vertices, as RCB does).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.rng import SeedLike, as_generator

__all__ = ["LevelKeys", "bisection_order", "stable_ranks", "tiebreak_jitter"]

#: ``level_keys(perm, starts, seg, depth) -> keys``.  ``perm`` is the working
#: permutation (vertex ids), ``starts`` the first position of each segment,
#: ``seg[i]`` the segment index of position ``i``; ``keys[i]`` is an integer
#: in ``[0, n)`` and each segment's lower half goes to the smaller keys.
LevelKeys = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


def tiebreak_jitter(coords: np.ndarray, seed: SeedLike) -> np.ndarray:
    """Per-vertex offset, 1e-9 of the domain size, that separates exactly
    equal coordinates (structured grids) without perturbing real orderings."""
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    return as_generator(seed).uniform(-1e-9, 1e-9, size=coords.shape[0]) * scale


def stable_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each key, 0..n-1; equal keys rank in index order."""
    ranks = np.empty(keys.size, dtype=np.intp)
    ranks[np.argsort(keys, kind="stable")] = np.arange(keys.size, dtype=np.intp)
    return ranks


def bisection_order(n: int, level_keys: LevelKeys) -> np.ndarray:
    """Visit order of the full median-bisection tree over ``n`` vertices."""
    perm = np.arange(n, dtype=np.intp)
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, n, dtype=np.intp)
    depth = 0
    while sizes.max() > 1:
        seg = np.repeat(np.arange(starts.size, dtype=np.intp), sizes)
        keys = level_keys(perm, starts, seg, depth)
        perm = perm[np.argsort(seg * n + keys)]
        # Children in lo, hi order; a singleton has no lo child.
        half = sizes // 2
        bounds = np.stack((starts, starts + half), axis=1).ravel()
        keep = np.ones(bounds.size, dtype=bool)
        keep[1::2] = half > 0
        starts = bounds[keep]
        sizes = np.diff(starts, append=n)
        depth += 1
    return perm
