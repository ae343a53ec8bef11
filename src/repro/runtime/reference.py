"""Scalar (per-element loop) implementations of the runtime hot paths.

This module is the ``reference`` backend of :mod:`repro.runtime.backend`: a
faithful transcription of the paper-era per-element code — explicit Python
loops, scalar binary searches, hash-table dicts — for every operation the
``vectorized`` backend expresses as bulk numpy.  Each function documents the
vectorized counterpart it must match **bit for bit**; the differential suite
(``tests/test_backend_equivalence.py``) enforces the match on random meshes,
partitions, and capability vectors.

Keep these implementations boring and obviously correct: they are the
oracle the fast paths are diffed against, and the baseline the ``scale-*``
benchmarks measure speedups over.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ScheduleError
from repro.partition.intervals import IntervalPartition

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph

__all__ = [
    "recv_side_sorted_loop",
    "sorted_schedule_parts_loop",
    "no_dedup_parts_loop",
    "dedup_first_seen_loop",
    "group_by_owner_loop",
    "kernel_slots_loop",
    "pack_loop",
    "unpack_loop",
    "scatter_add_loop",
    "scatter_replace_loop",
    "slab_pack_loop",
    "slab_unpack_loop",
    "iota_loop",
]


def _owned_refs(
    graph: "CSRGraph", partition: IntervalPartition, rank: int
) -> tuple[int, int, list[int], list[int]]:
    """(lo, hi, ref sources, ref targets) walked vertex by vertex."""
    lo, hi = partition.interval(rank)
    indptr = graph.indptr
    indices = graph.indices
    src: list[int] = []
    nbr: list[int] = []
    for v in range(lo, hi):
        for k in range(int(indptr[v]), int(indptr[v + 1])):
            src.append(v)
            nbr.append(int(indices[k]))
    return lo, hi, src, nbr


def recv_side_sorted_loop(
    partition: IntervalPartition,
    rank: int,
    off_globals_sorted: np.ndarray,
) -> dict[int, np.ndarray]:
    """Recv lists for a ghost buffer in ascending global order, walked
    entry by entry (matches ``_recv_side_sorted``'s run grouping)."""
    bounds = partition.bounds.tolist()
    owners = partition.owners.tolist()
    ghost_list = np.asarray(off_globals_sorted, dtype=np.intp).tolist()
    recv_lists: dict[int, np.ndarray] = {}
    run_start = 0
    run_owner: int | None = None
    for i, g in enumerate(ghost_list):
        owner = owners[bisect_right(bounds, g) - 1]
        if owner == rank:
            raise ScheduleError(
                f"rank {rank}: off-processor reference resolved to itself"
            )
        if owner != run_owner:
            if run_owner is not None:
                recv_lists[run_owner] = np.arange(run_start, i, dtype=np.intp)
            run_owner = owner
            run_start = i
    if run_owner is not None:
        recv_lists[run_owner] = np.arange(
            run_start, len(ghost_list), dtype=np.intp
        )
    return recv_lists


def sorted_schedule_parts_loop(
    graph: "CSRGraph", partition: IntervalPartition, rank: int
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], np.ndarray, dict[str, int]]:
    """Scalar construction of the sort1/sort2 schedule parts.

    Returns ``(send_lists, recv_lists, ghost_globals, sizes)`` equal to what
    :func:`repro.runtime.schedule_builders._sorted_schedule` derives with
    ``np.unique`` / fancy indexing.
    """
    lo, hi, src, nbr = _owned_refs(graph, partition, rank)
    bounds = partition.bounds.tolist()
    owners = partition.owners.tolist()

    # Dedup off-processor references through a hash table, then sort — the
    # ghost buffer is laid out in ascending global order.
    ghost_set: dict[int, None] = {}
    send_pairs: dict[tuple[int, int], None] = {}
    for s, g in zip(src, nbr):
        if lo <= g < hi:
            continue
        ghost_set[g] = None
        dest = owners[bisect_right(bounds, g) - 1]
        send_pairs[(dest, s)] = None
    ghost_list = sorted(ghost_set)
    ghost_globals = np.asarray(ghost_list, dtype=np.intp)
    recv_lists = recv_side_sorted_loop(partition, rank, ghost_globals)

    # Send side: by symmetry, destination d needs exactly my vertices with
    # an edge into d's block, in ascending local order.
    send_accum: dict[int, list[int]] = {}
    for dest, s in sorted(send_pairs):
        send_accum.setdefault(dest, []).append(s - lo)
    send_lists = {
        dest: np.asarray(locals_, dtype=np.intp)
        for dest, locals_ in send_accum.items()
    }

    sizes = {
        "refs": len(nbr),
        "ghosts": len(ghost_list),
        "sends": sum(int(a.size) for a in send_lists.values()),
    }
    return send_lists, recv_lists, ghost_globals, sizes


def no_dedup_parts_loop(
    graph: "CSRGraph", partition: IntervalPartition, rank: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Scalar parts of the no-dedup schedule: one entry per cross edge.

    Returns ``(send_lists, off_sorted)`` matching the lexsort-based grouping
    in :func:`repro.runtime.schedule_builders.build_schedule_no_dedup`.
    """
    lo, hi, src, nbr = _owned_refs(graph, partition, rank)
    bounds = partition.bounds.tolist()
    owners = partition.owners.tolist()
    off: list[int] = []
    pairs: list[tuple[int, int]] = []  # (dest, src) per cross edge, walk order
    for s, g in zip(src, nbr):
        if lo <= g < hi:
            continue
        off.append(g)
        pairs.append((owners[bisect_right(bounds, g) - 1], s))
    off_sorted = np.asarray(sorted(off), dtype=np.intp)
    send_accum: dict[int, list[int]] = {}
    for dest, s in sorted(pairs):  # stable: duplicates are identical pairs
        send_accum.setdefault(dest, []).append(s - lo)
    send_lists = {
        dest: np.asarray(locals_, dtype=np.intp)
        for dest, locals_ in send_accum.items()
    }
    return send_lists, off_sorted


def dedup_first_seen_loop(values: np.ndarray) -> np.ndarray:
    """Dedup preserving first-appearance order (the paper's hash table).

    Matches the ``np.unique(..., return_index=True)`` + stable-argsort idiom
    used by the simple strategy.
    """
    seen: dict[int, None] = {}
    for v in np.asarray(values, dtype=np.intp).tolist():
        seen[v] = None
    return np.fromiter(seen, dtype=np.intp, count=len(seen))


def group_by_owner_loop(
    owners: np.ndarray,
) -> dict[int, np.ndarray]:
    """Positions per owner value, preserving order within each group.

    Matches the vectorized stable ``argsort`` grouping: the returned dict
    maps each distinct owner to the positions where it occurs.
    """
    groups: dict[int, list[int]] = {}
    for pos, o in enumerate(np.asarray(owners, dtype=np.intp).tolist()):
        groups.setdefault(int(o), []).append(pos)
    return {o: np.asarray(p, dtype=np.intp) for o, p in groups.items()}


def kernel_slots_loop(
    nbr: np.ndarray, lo: int, hi: int, ghost_globals: np.ndarray
) -> np.ndarray:
    """Per-reference address translation into the [local | ghost] buffer.

    Matches the ``searchsorted``-based translation in
    :func:`repro.runtime.kernels.build_kernel_plan` for both sorted and
    request-ordered ghost buffers.
    """
    n_local = hi - lo
    lookup = {int(g): i for i, g in enumerate(ghost_globals)}
    slots = np.empty(nbr.size, dtype=np.intp)
    for k, g in enumerate(np.asarray(nbr, dtype=np.intp).tolist()):
        if lo <= g < hi:
            slots[k] = g - lo
        else:
            try:
                slots[k] = n_local + lookup[g]
            except KeyError:
                raise ScheduleError(
                    f"reference {g} missing from ghost buffer"
                ) from None
    return slots


# ---------------------------------------------------------------------- #
# executor buffer pack/unpack (phase C)
# ---------------------------------------------------------------------- #


def pack_loop(data: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Copy ``data[idx]`` into a fresh send buffer, one element at a time."""
    buf = np.empty((idx.size,) + data.shape[1:], dtype=data.dtype)
    for k, i in enumerate(idx.tolist()):
        buf[k] = data[i]
    return buf


def unpack_loop(ghost: np.ndarray, pos: np.ndarray, payload: np.ndarray) -> None:
    """Place received elements into their ghost slots, one at a time."""
    for k, p in enumerate(pos.tolist()):
        ghost[p] = payload[k]


def scatter_add_loop(
    local: np.ndarray, idx: np.ndarray, payload: np.ndarray
) -> None:
    """Accumulate contributions element by element (matches ``np.add.at``,
    which also applies duplicates in index order)."""
    for k, i in enumerate(idx.tolist()):
        local[i] += payload[k]


def scatter_replace_loop(
    local: np.ndarray, idx: np.ndarray, payload: np.ndarray
) -> None:
    """Overwrite elements one at a time (last duplicate wins, as with
    fancy-index assignment)."""
    for k, i in enumerate(idx.tolist()):
        local[i] = payload[k]


# ---------------------------------------------------------------------- #
# redistribution slab pack/unpack (phase D)
# ---------------------------------------------------------------------- #


def slab_pack_loop(data: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Copy the contiguous slab ``data[start:stop]`` into a fresh send
    buffer one element at a time (matches ``np.ascontiguousarray`` of the
    vectorized slice)."""
    buf = np.empty((stop - start,) + data.shape[1:], dtype=data.dtype)
    for k in range(stop - start):
        buf[k] = data[start + k]
    return buf


def slab_unpack_loop(out: np.ndarray, start: int, payload: np.ndarray) -> None:
    """Place a received slab at ``out[start:...]`` one element at a time
    (matches the vectorized slice assignment)."""
    for k in range(payload.shape[0]):
        out[start + k] = payload[k]


def iota_loop(lo: int, hi: int) -> np.ndarray:
    """Build the vertex-identity run [lo, hi) one element at a time
    (matches ``np.arange(lo, hi, dtype=np.intp)``)."""
    arr = np.empty(hi - lo, dtype=np.intp)
    for k in range(hi - lo):
        arr[k] = lo + k
    return arr
