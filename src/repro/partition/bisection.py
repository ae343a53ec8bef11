"""Level-synchronous recursive bisection — the driver RCB and inertial share.

Recursive bisection to singletons is a binary tree with one box per node;
walking it box by box costs one Python step per vertex.  Here every box of
one depth is a contiguous *segment* of a single working permutation, and
one level of the tree is a constant number of whole-array numpy passes:

1. the method supplies one integer split key per vertex, distinct and in
   ``[0, K)`` (e.g. its rank along the axis chosen for its segment);
2. one in-place ``np.sort`` of the int64 words ``segment * K + key`` sorts
   every segment at once, and the vertex of each sorted word is read back
   through a key -> vertex map (numpy sorts int64 values with SIMD, several
   times faster than it argsorts them);
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

__all__ = [
    "LevelKeys",
    "bisection_order",
    "stable_order",
    "stable_ranks",
    "tiebreak_jitter",
]

#: ``level_keys(perm, starts, seg, depth) -> keys``.  ``perm`` is the working
#: permutation (vertex ids), ``starts`` the first position of each segment,
#: ``seg[i]`` the segment index of position ``i``; ``keys[i]`` belongs to
#: vertex ``perm[i]``, the keys are distinct integers in ``[0, K)``, and each
#: segment's lower half goes to the smaller keys.
LevelKeys = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


def tiebreak_jitter(coords: np.ndarray, seed: SeedLike) -> np.ndarray:
    """Per-vertex offset, 1e-9 of the domain size, that separates exactly
    equal coordinates (structured grids) without perturbing real orderings."""
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    return as_generator(seed).uniform(-1e-9, 1e-9, size=coords.shape[0]) * scale


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, from the faster default sort
    whenever its sorted keys are strictly increasing (then the order is
    unique); ties, NaN and ``-0.0``/``0.0`` take the stable sort."""
    order = np.argsort(keys)
    ordered = keys[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = np.argsort(keys, kind="stable")
    return order


def stable_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each key, 0..n-1; equal keys rank in index order."""
    ranks = np.empty(keys.size, dtype=np.intp)
    ranks[stable_order(keys)] = np.arange(keys.size, dtype=np.intp)
    return ranks


def bisection_order(
    n: int, level_keys: LevelKeys, vertex_of: np.ndarray | None = None
) -> np.ndarray:
    """Visit order of the full median-bisection tree over ``n`` vertices.

    Every level's keys must be distinct integers in ``[0, K)``.
    ``vertex_of[k]``, when given, is the vertex that key ``k`` always
    belongs to, and ``K = vertex_of.size``; without it ``K = n`` and the
    map is scattered from each level's keys.
    """
    span = n if vertex_of is None else vertex_of.size
    perm = np.arange(n, dtype=np.intp)
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, n, dtype=np.intp)
    depth = 0
    while sizes.max() > 1:
        seg = np.repeat(np.arange(starts.size, dtype=np.intp), sizes)
        base = seg * span
        keys = level_keys(perm, starts, seg, depth)
        if vertex_of is None:
            owner = np.empty(n, dtype=np.intp)
            owner[keys] = perm
        else:
            owner = vertex_of
        # Segments are contiguous, so each sorted word stays in its own
        # segment's range and minus its base is a key again.
        words = base + keys
        words.sort()
        words -= base
        perm = owner[words]
        # Children in lo, hi order; a singleton has no lo child.
        half = sizes // 2
        bounds = np.stack((starts, starts + half), axis=1).ravel()
        keep = np.ones(bounds.size, dtype=bool)
        keep[1::2] = half > 0
        starts = bounds[keep]
        sizes = np.diff(starts, append=n)
        depth += 1
    return perm
