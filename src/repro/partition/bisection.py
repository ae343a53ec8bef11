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

Subtrees on parallel threads.  Below the root, the subtrees share no
data: a subtree's levels read and write only its own segment of the
working permutation.  With ``W`` CPUs in the calling thread's affinity
mask (:func:`threads_for`), the driver runs the top ``ceil(log2 W)``
levels on the whole array, then hands each resulting segment to a thread
that runs the same level loop on that slice, continuing from the same
depth, and concatenates the parts in order.  Every box is still split by
the same keys, so the permutation is byte-identical to the serial
driver's; only the thread each level runs on changes.  numpy releases the
GIL in the sorts, gathers and reductions the loop spends its time in.
Below :data:`ONE_THREAD_BELOW_VERTICES`, or on a one-CPU mask, the whole
tree runs on the calling thread.

Ties: a method that ranks with :func:`stable_ranks` gets distinct keys, so
the composite sort has exactly one answer; equal float keys rank by
position (vertex id when ranked once over all vertices, as RCB does).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "ONE_THREAD_BELOW_VERTICES",
    "LevelKeys",
    "bisection_order",
    "parallel_map",
    "stable_order",
    "stable_ranks",
    "threads_for",
    "tiebreak_jitter",
]

#: Vertices below which an ordering runs on the calling thread alone.  A
#: smaller tree's subtrees finish faster than a thread starts and hands
#: the GIL back.  docs/benchmarks.md ("Phase A host cost") has the
#: measured crossover.
ONE_THREAD_BELOW_VERTICES = 2**15

#: ``level_keys(perm, starts, seg, depth) -> keys``.  ``perm`` is the working
#: permutation (vertex ids) of the whole tree or of one subtree, ``starts``
#: the first position of each segment, ``seg[i]`` the segment index of
#: position ``i``; ``keys[i]`` belongs to vertex ``perm[i]``, the keys are
#: distinct integers in ``[0, K)``, and each segment's lower half goes to
#: the smaller keys.  A callback may run concurrently on disjoint subtrees,
#: so it must not mutate shared state.
LevelKeys = Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


def tiebreak_jitter(coords: np.ndarray) -> np.ndarray:
    """Per-vertex offset, 1e-9 of the domain size, that separates exactly
    equal coordinates (structured grids) without perturbing real orderings
    (drawn from seed 0, so every ordering is a function of the graph)."""
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    return as_generator(0).uniform(-1e-9, 1e-9, size=coords.shape[0]) * scale


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


def _host_cpus() -> int:
    """CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads_for(n: int) -> int:
    """Threads an ordering of ``n`` vertices runs on: one below
    :data:`ONE_THREAD_BELOW_VERTICES`, else every CPU of the mask."""
    return 1 if n < ONE_THREAD_BELOW_VERTICES else _host_cpus()


def parallel_map(
    fn: Callable[[Any], Any], items: Sequence[Any], threads: int
) -> list[Any]:
    """``[fn(item) for item in items]`` on up to ``threads`` threads, the
    calling thread among them.  Every thread has finished when it returns;
    an exception from any item is raised here."""
    if threads < 2 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(min(threads, len(items)) - 1) as pool:
        rest = [pool.submit(fn, item) for item in items[1:]]
        first = fn(items[0])
        return [first, *(future.result() for future in rest)]


def _levels(
    perm: np.ndarray,
    level_keys: LevelKeys,
    vertex_of: np.ndarray | None,
    depth: int,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the one segment ``perm`` from ``depth`` down to the leaves,
    or to depth ``stop``; the working permutation and segment starts."""
    m = perm.size
    span = m if vertex_of is None else vertex_of.size
    starts = np.zeros(1, dtype=np.intp)
    sizes = np.full(1, m, dtype=np.intp)
    while sizes.max() > 1 and depth != stop:
        seg = np.repeat(np.arange(starts.size, dtype=np.intp), sizes)
        base = seg * span
        keys = level_keys(perm, starts, seg, depth)
        if vertex_of is None:
            owner = np.empty(m, dtype=np.intp)
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
        sizes = np.diff(starts, append=m)
        depth += 1
    return perm, starts


def bisection_order(
    n: int, level_keys: LevelKeys, vertex_of: np.ndarray | None = None
) -> np.ndarray:
    """Visit order of the full median-bisection tree over ``n`` vertices.

    Every level's keys must be distinct integers in ``[0, K)``.
    ``vertex_of[k]``, when given, is the vertex that key ``k`` always
    belongs to, and ``K = vertex_of.size``; without it ``K`` is the size
    of the ``perm`` passed in (``n``, or one subtree's) and the map is
    scattered from each level's keys.  Subtrees run on
    :func:`threads_for` threads.
    """
    threads = threads_for(n)
    top = (threads - 1).bit_length()  # ceil(log2 threads); 0 when serial
    perm, starts = _levels(
        np.arange(n, dtype=np.intp), level_keys, vertex_of, 0, top
    )
    subtrees = np.split(perm, starts[1:])
    return np.concatenate(
        parallel_map(
            lambda subtree: _levels(subtree, level_keys, vertex_of, top)[0],
            subtrees,
            threads,
        )
    )
