"""Cross-checkers and scalar transcriptions for the runtime's data structures.

**Schedules (Sec. 3.2, Fig. 4).**  ``check_global_consistency`` checks the
*cross-rank* properties a complete set of per-rank schedules must satisfy
before the executor can trust them (the per-rank invariants live in
``CommSchedule`` itself):

* **pairwise agreement** — what r ships to s is exactly what s expects
  from r, element for element, in order;
* **coverage** — every off-processor reference of every rank has a ghost
  slot (so the kernel plan can translate it);
* **conservation** — total elements sent equals total elements expected.

``validate_pair`` checks pairwise agreement for one ordered pair, through
``send_globals`` / ``recv_globals`` (a schedule's lists as global indices).

**Translation (Fig. 3).**  ``dereference_oracle`` is the per-element
binary search; ``IntervalPartition.dereference`` (one ``searchsorted``)
must match it element for element.

**Remaps.**  ``classify_elements`` materializes ``diff_interval`` as
(kept, gained, lost) index arrays; ``ring_partners`` is the single-successor
(k=1) view of ``replica_partners``.

**Hot paths (Phases B-D).**  The runtime has one implementation of each
primitive, in bulk numpy.  The ``*_loop`` functions transcribe the
paper-era per-element code — explicit Python loops, scalar binary
searches, hash-table dicts — and ``schedule_oracle``,
``simple_schedules_oracle``, ``gather_oracle`` and ``scatter_oracle``
assemble them into what each schedule builder and executor primitive must
return, bit for bit.  ``tests/test_runtime_oracles.py`` compares each
site with its loop on the same inputs, so a divergence is reported at the
function where it starts; ``tests/test_runtime_reference.py`` pins each
loop against the numpy idiom it transcribes.  Keep them boring and
obviously correct.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError, ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.incremental import diff_interval
from repro.runtime.resilience.checkpoint import replica_partners
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import local_references

__all__ = [
    "ConsistencyReport",
    "check_global_consistency",
    "validate_pair",
    "send_globals",
    "recv_globals",
    "dereference_oracle",
    "classify_elements",
    "ring_partners",
    "recv_side_sorted_loop",
    "sorted_schedule_parts_loop",
    "no_dedup_parts_loop",
    "dedup_first_seen_loop",
    "group_by_owner_loop",
    "kernel_slots_loop",
    "pack_loop",
    "unpack_loop",
    "scatter_add_loop",
    "slab_pack_loop",
    "slab_unpack_loop",
    "slab_bounds_loop",
    "schedule_oracle",
    "simple_schedules_oracle",
    "gather_oracle",
    "scatter_oracle",
]


@dataclass
class ConsistencyReport:
    """Aggregate statistics from a successful consistency check."""

    num_ranks: int
    total_ghost_slots: int = 0
    total_send_entries: int = 0
    total_messages: int = 0
    max_ghost_fraction: float = 0.0
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def send_globals(sched: CommSchedule, dest: int) -> np.ndarray:
    """Global indices of the elements *sched* sends to *dest*, in send order."""
    lo, _ = sched.partition.interval(sched.rank)
    return sched.send_lists.get(dest, np.empty(0, dtype=np.intp)) + lo


def recv_globals(sched: CommSchedule, src: int) -> np.ndarray:
    """Global indices *sched* expects from *src*, in placement order."""
    pos = sched.recv_lists.get(src, np.empty(0, dtype=np.intp))
    return sched.ghost_globals[pos]


def validate_pair(sched: CommSchedule, other: CommSchedule) -> None:
    """Raise :class:`ScheduleError` unless what *sched* ships to *other*
    is exactly what *other* expects from it, element for element."""
    mine_to_other = send_globals(sched, other.rank)
    other_expects = recv_globals(other, sched.rank)
    if not np.array_equal(mine_to_other, other_expects):
        raise ScheduleError(
            f"schedule mismatch {sched.rank}->{other.rank}: sender ships "
            f"{mine_to_other[:8]}..., receiver expects {other_expects[:8]}..."
        )


def check_global_consistency(
    schedules: list[CommSchedule],
    graph: CSRGraph | None = None,
    *,
    strict: bool = True,
) -> ConsistencyReport:
    """Validate a complete set of per-rank schedules against each other.

    With *graph* given, additionally checks coverage: every off-processor
    reference of the Fig. 8 access pattern has a matching ghost slot.
    Raises :class:`ScheduleError` on the first problem when ``strict``;
    otherwise collects all issues into the report.
    """
    if not schedules:
        raise ScheduleError("no schedules to check")
    p = len(schedules)
    report = ConsistencyReport(num_ranks=p)

    def issue(msg: str) -> None:
        if strict:
            raise ScheduleError(msg)
        report.issues.append(msg)

    partition = schedules[0].partition
    for r, sched in enumerate(schedules):
        if sched.rank != r:
            issue(f"schedule at position {r} claims rank {sched.rank}")
        if sched.partition is not partition and not (
            np.array_equal(sched.partition.bounds, partition.bounds)
            and np.array_equal(sched.partition.owners, partition.owners)
        ):
            issue(f"rank {r} uses a different partition")

    # Pairwise agreement.
    total_sent = total_expected = 0
    for a in schedules:
        for b in schedules:
            if a.rank == b.rank:
                continue
            shipped = send_globals(a, b.rank)
            expected = recv_globals(b, a.rank)
            if not np.array_equal(shipped, expected):
                issue(
                    f"mismatch {a.rank}->{b.rank}: ships {shipped.size} "
                    f"elements, peer expects {expected.size} "
                    f"(first diff near {_first_diff(shipped, expected)})"
                )
            total_sent += shipped.size
            total_expected += expected.size
    if total_sent != total_expected:
        issue(
            f"conservation violated: {total_sent} sent vs "
            f"{total_expected} expected"
        )

    # Coverage against the actual access pattern.
    if graph is not None:
        for sched in schedules:
            lo, hi = partition.interval(sched.rank)
            _, nbr = local_references(graph, partition, sched.rank)
            off = np.unique(nbr[(nbr < lo) | (nbr >= hi)])
            ghost_set = np.unique(sched.ghost_globals)
            missing = np.setdiff1d(off, ghost_set, assume_unique=True)
            if missing.size:
                issue(
                    f"rank {sched.rank}: {missing.size} referenced elements "
                    f"missing from ghost buffer (e.g. {missing[:4].tolist()})"
                )

    for sched in schedules:
        report.total_ghost_slots += sched.ghost_size
        report.total_send_entries += sched.send_volume
        report.total_messages += sched.num_send_messages
        lo, hi = partition.interval(sched.rank)
        block = max(hi - lo, 1)
        report.max_ghost_fraction = max(
            report.max_ghost_fraction, sched.ghost_size / block
        )
    return report


def _first_diff(a: np.ndarray, b: np.ndarray) -> object:
    k = min(a.size, b.size)
    if k:
        diff = np.flatnonzero(a[:k] != b[:k])
        if diff.size:
            return int(a[diff[0]])
    return "length"


def dereference_oracle(
    partition: IntervalPartition, global_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element binary-search dereference (paper Fig. 3, scalar form).

    Matches :meth:`IntervalPartition.dereference` (one ``searchsorted``
    call) element for element.
    """
    bounds = partition.bounds.tolist()
    owners = partition.owners
    gi = np.asarray(global_indices, dtype=np.intp)
    owner = np.empty(gi.size, dtype=np.intp)
    local = np.empty(gi.size, dtype=np.intp)
    n = partition.num_elements
    for k, g in enumerate(gi.tolist()):
        if g < 0 or g >= n:
            raise PartitionError(f"global index out of range [0, {n})")
        b = bisect_right(bounds, g) - 1
        owner[k] = owners[b]
        local[k] = g - bounds[b]
    return owner, local


def classify_elements(
    old: IntervalPartition, new: IntervalPartition, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kept, gained, lost) global indices for *rank*."""
    d = diff_interval(old, new, rank)
    kept = np.arange(d.keep_lo, d.keep_hi, dtype=np.intp)
    return kept, _ranges_arange(d.gained), _ranges_arange(d.lost)


def _ranges_arange(ranges: tuple[tuple[int, int], ...]) -> np.ndarray:
    if not ranges:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(
        [np.arange(lo, hi, dtype=np.intp) for lo, hi in ranges]
    )


def ring_partners(
    partition: IntervalPartition, active: np.ndarray
) -> dict[int, int]:
    """Each data-holding rank -> its single replica holder."""
    return {
        owner: holders[0]
        for owner, holders in replica_partners(partition, active, 1).items()
    }


# ---------------------------------------------------------------------- #
# The paper-era hot paths as per-element loops: the scalar oracles of the
# numpy code in schedule_builders, kernels, executor and redistribution.
# ---------------------------------------------------------------------- #


def _owned_refs(
    graph: CSRGraph, partition: IntervalPartition, rank: int
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
    graph: CSRGraph, partition: IntervalPartition, rank: int
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], np.ndarray, dict[str, int]]:
    """Scalar construction of the sort1/sort2 schedule parts.

    Returns ``(send_lists, recv_lists, ghost_globals, sizes)`` equal to what
    ``build_schedule_sort1`` / ``build_schedule_sort2`` derive with
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
    graph: CSRGraph, partition: IntervalPartition, rank: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Scalar parts of the no-dedup schedule: one entry per cross edge.

    Returns ``(send_lists, off_sorted)`` matching the lexsort-based grouping
    in ``build_schedule_no_dedup``.
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
    used by ``build_schedule_simple``.
    """
    seen: dict[int, None] = {}
    for v in np.asarray(values, dtype=np.intp).tolist():
        seen[v] = None
    return np.fromiter(seen, dtype=np.intp, count=len(seen))


def group_by_owner_loop(
    owners: np.ndarray,
) -> dict[int, np.ndarray]:
    """Positions per owner value, preserving order within each group.

    Matches the stable ``argsort`` grouping of ``build_schedule_simple``:
    the returned dict maps each distinct owner to the positions where it
    occurs.
    """
    groups: dict[int, list[int]] = {}
    for pos, o in enumerate(np.asarray(owners, dtype=np.intp).tolist()):
        groups.setdefault(int(o), []).append(pos)
    return {o: np.asarray(p, dtype=np.intp) for o, p in groups.items()}


def kernel_slots_loop(
    nbr: np.ndarray, lo: int, hi: int, ghost_globals: np.ndarray
) -> np.ndarray:
    """Per-reference address translation into the [local | ghost] buffer.

    Matches the ``searchsorted``-based translation in ``build_kernel_plan``
    for both sorted and request-ordered ghost buffers.
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


# executor buffer pack/unpack (phase C)


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


# redistribution slab pack/unpack (phase D)


def slab_pack_loop(data: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Copy the contiguous slab ``data[start:stop]`` into a fresh send
    buffer one element at a time (matches the slices ``extract_slabs``
    concatenates)."""
    buf = np.empty((stop - start,) + data.shape[1:], dtype=data.dtype)
    for k in range(stop - start):
        buf[k] = data[start + k]
    return buf


def slab_unpack_loop(out: np.ndarray, start: int, payload: np.ndarray) -> None:
    """Place a received slab at ``out[start:...]`` one element at a time
    (matches the slice assignment of ``place_slabs``)."""
    for k in range(payload.shape[0]):
        out[start + k] = payload[k]


def slab_bounds_loop(slabs) -> np.ndarray:
    """Build a slab group's header ``[lo0, hi0, lo1, hi1, ...]`` one
    entry at a time from its ``(lo, hi)`` pairs (matches
    ``np.array(pairs, dtype=np.intp).reshape(-1)``, as ``slab_bounds``)."""
    arr = np.empty(2 * len(slabs), dtype=np.intp)
    for k, (lo, hi) in enumerate(slabs):
        arr[2 * k] = lo
        arr[2 * k + 1] = hi
    return arr


# whole-site oracles built from the loops above


def schedule_oracle(
    graph: CSRGraph, partition: IntervalPartition, rank: int, strategy: str
) -> CommSchedule:
    """The schedule a local builder (``sort1``, ``sort2``, ``no-dedup``)
    must produce for *rank*, assembled from the scalar loops."""
    if strategy == "no-dedup":
        send_lists, off = no_dedup_parts_loop(graph, partition, rank)
        recv_lists = recv_side_sorted_loop(partition, rank, off)
        ghost_globals = off
    else:
        send_lists, recv_lists, ghost_globals, _ = sorted_schedule_parts_loop(
            graph, partition, rank
        )
    return CommSchedule(
        rank=rank,
        partition=partition,
        send_lists=send_lists,
        recv_lists=recv_lists,
        ghost_globals=ghost_globals,
    )


def simple_schedules_oracle(
    graph: CSRGraph, partition: IntervalPartition, p: int
) -> list[CommSchedule]:
    """Every rank's ``build_schedule_simple`` schedule, from the loops.

    Ghost slots in first-reference order, translated by the per-element
    binary search and grouped by owner; each owner sends, in the
    requester's order, the local indices the requester asked for.
    """
    parts = []
    requests: dict[tuple[int, int], np.ndarray] = {}  # (owner, requester)
    for rank in range(p):
        lo, hi, _, nbr = _owned_refs(graph, partition, rank)
        ghost = dedup_first_seen_loop(
            np.asarray([g for g in nbr if not lo <= g < hi], dtype=np.intp)
        )
        owners, locals_ = dereference_oracle(partition, ghost)
        recv_lists = group_by_owner_loop(owners)
        for owner, pos in recv_lists.items():
            requests[(owner, rank)] = locals_[pos]
        parts.append((recv_lists, ghost))
    return [
        CommSchedule(
            rank=rank,
            partition=partition,
            send_lists={
                req: idx for (own, req), idx in requests.items() if own == rank
            },
            recv_lists=recv_lists,
            ghost_globals=ghost,
        )
        for rank, (recv_lists, ghost) in enumerate(parts)
    ]


def gather_oracle(
    schedules: list[CommSchedule], blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Each rank's ghost buffer after ``gather``: every scheduled peer's
    send list packed and placed element by element."""
    ghosts = []
    for sched in schedules:
        ghost = np.zeros(
            (sched.ghost_size,) + blocks[sched.rank].shape[1:],
            dtype=blocks[sched.rank].dtype,
        )
        for src, pos in sched.recv_lists.items():
            payload = pack_loop(blocks[src], schedules[src].send_lists[sched.rank])
            unpack_loop(ghost, pos, payload)
        ghosts.append(ghost)
    return ghosts


def scatter_oracle(
    schedules: list[CommSchedule],
    ghosts: list[np.ndarray],
    blocks: list[np.ndarray],
) -> list[np.ndarray]:
    """Each rank's block after ``scatter``: every peer's ghost segment
    packed and combined element by element, peers in ascending order."""
    out = [block.copy() for block in blocks]
    for sched in schedules:
        for src in sorted(sched.send_lists):
            pos = schedules[src].recv_lists[sched.rank]
            scatter_add_loop(
                out[sched.rank], sched.send_lists[src], pack_loop(ghosts[src], pos)
            )
    return out
