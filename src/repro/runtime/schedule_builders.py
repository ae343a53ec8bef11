"""The three communication-schedule construction strategies (Sec. 3.2).

All three produce a valid :class:`~repro.runtime.schedule.CommSchedule`
for the same access pattern; they differ in *how* the schedule is derived
and what that costs (paper Table 3):

* :func:`build_schedule_simple` — the PARTI-style baseline: a distributed
  explicit translation table is consulted (communication round 1) and the
  deduplicated request lists are shipped to the data's home processors
  (communication round 2).  Ghost slots are in request (hash-table) order.
* :func:`build_schedule_sort1` — exploits access *symmetry* (Sec. 3.2,
  Fig. 4): each rank derives both its send lists and its permutation list
  locally, sorting both so sender and receiver agree on element order.
  Zero messages.
* :func:`build_schedule_sort2` — like sort1, but the send list is produced
  already ordered by traversing local references in increasing order, so
  only the permutation-list sort remains ("sorting the sending list can be
  avoided if a restriction is added that the nodes are traversed in
  increasing order according to their local references").

Build *cost* is charged to the virtual clock through an
:class:`InspectorCostModel` (hashing, sorting, traversal constants
calibrated to mid-90s workstations) plus, for the simple strategy, the real
message traffic through the network model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.net.message import Tags
from repro.partition.intervals import IntervalPartition
from repro.runtime.schedule import CommSchedule
from repro.runtime.translation import DistributedTranslationTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "InspectorCostModel",
    "local_references",
    "build_schedule_sort1",
    "build_schedule_sort2",
    "build_schedule_simple",
    "build_schedule_no_dedup",
]


@dataclass(frozen=True)
class InspectorCostModel:
    """Virtual-time constants for schedule construction.

    Defaults approximate a mid-90s workstation running unoptimized C
    (the paper notes its sorting-based schemes "can be reduced by improving
    our current software"): a few microseconds per hash-table insert, ~10
    microseconds per comparison-swap including call overhead.
    """

    sec_per_ref: float = 5.0e-6       # hash/dedup, per adjacency reference
    sec_per_sort_op: float = 10.0e-6  # per element*log2(element) sorted
    sec_per_linear_op: float = 1.5e-6 # per element of a linear pass
    sec_per_translate: float = 2.0e-6 # per interval-table dereference
    #: Software setup cost per message of the simple strategy's query/reply
    #: protocol (P4's per-message setup, "the number of message setups
    #: increases, adversely affecting the simple strategy" — Sec. 5).
    sec_per_message_setup: float = 4.0e-3

    def sort_cost(self, k: int) -> float:
        return self.sec_per_sort_op * k * max(math.log2(k), 1.0) if k else 0.0

    def sorted_build_cost(
        self, strategy: str, *, refs: int, ghosts: int, sends: int
    ) -> float:
        """The sort1/sort2 charge for a block with *refs* adjacency
        references, *ghosts* unique off-block targets and *sends* send-list
        entries: dedup over all references, translation and sort of the
        permutation list, then the send lists — sorted explicitly by
        sort1, a linear pass for sort2 (they come out ordered).
        """
        return (
            self.sec_per_ref * refs
            + self.sec_per_translate * ghosts
            + self.sort_cost(ghosts)
            + (
                self.sort_cost(sends)
                if strategy == "sort1"
                else self.sec_per_linear_op * sends
            )
        )

    def patch_cost(
        self, *, diff_refs: int, cross: int, ghosts: int, sends: int, added: int
    ) -> float:
        """The incremental-patch charge: dedup over the *diff_refs*
        references of the moved rows, a linear pass over the old plus new
        cross-reference arrays (*cross*, both sizes summed), translation
        of the patched ghost buffer, a sort of the *added* cross
        references, and a linear pass to regroup ghosts and sends.
        """
        return (
            self.sec_per_ref * diff_refs
            + self.sec_per_linear_op * cross
            + self.sec_per_translate * ghosts
            + self.sort_cost(added)
            + self.sec_per_linear_op * (ghosts + sends)
        )


def _charge(ctx: "RankContext | None", seconds: float, label: str) -> None:
    if ctx is not None and seconds > 0:
        ctx.compute(seconds, label=label)


def _group_by_value(values: np.ndarray) -> dict[int, np.ndarray]:
    """Positions per distinct value via one stable argsort (O(g log g)).

    Within each group the positions come out ascending (stable sort), so
    order-within-group matches a per-value ``flatnonzero`` scan.
    """
    values = np.asarray(values)
    if values.size == 0:
        return {}
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    change = np.flatnonzero(np.diff(sorted_vals)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [sorted_vals.size]])
    return {
        int(sorted_vals[s]): order[s:e].astype(np.intp)
        for s, e in zip(starts, ends)
    }


def local_references(
    graph: CSRGraph, partition: IntervalPartition, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """(owned vertex per reference, referenced global index) for *rank*.

    The references are the neighbor endpoints touched by the Fig. 8 loop
    over this rank's owned vertices — the raw input of the inspector.
    """
    lo, hi = partition.interval(rank)
    start, stop = graph.indptr[lo], graph.indptr[hi]
    nbr = graph.indices[start:stop]
    counts = np.diff(graph.indptr[lo : hi + 1])
    src = np.repeat(np.arange(lo, hi, dtype=np.intp), counts)
    return src, nbr


def _recv_side_sorted(
    partition: IntervalPartition,
    rank: int,
    off_globals_sorted: np.ndarray,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Recv lists for a ghost buffer laid out in ascending global order.

    Because each rank's interval is contiguous, ascending global order
    groups ghosts by source block; each source's segment is automatically
    "sorted according to the local references of these nodes in their home
    processor" — the sort1 permutation-list requirement.
    """
    owners = (
        partition.owner_of(off_globals_sorted)
        if off_globals_sorted.size
        else np.empty(0, dtype=np.intp)
    )
    recv_lists: dict[int, np.ndarray] = {}
    if owners.size:
        change = np.flatnonzero(owners[1:] != owners[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [owners.size]])
        for s, e in zip(starts, ends):
            src = int(owners[s])
            if src == rank:
                raise ScheduleError(
                    f"rank {rank}: off-processor reference resolved to itself"
                )
            recv_lists[src] = np.arange(s, e, dtype=np.intp)
    return recv_lists, off_globals_sorted


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` for 1-D integer arrays via an explicit sort.

    Bit-identical output (sorted distinct values) but without the hash
    machinery ``np.unique`` runs through on small arrays — the patch
    path calls this on boundary-sized inputs, where the hash setup alone
    costs more than the whole sort.
    """
    if x.size == 0:
        return x.astype(np.intp)
    s = np.sort(x)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _send_side(
    partition: IntervalPartition,
    rank: int,
    cross_src: np.ndarray,
    cross_nbr: np.ndarray,
) -> dict[int, np.ndarray]:
    """Send lists (sorted local indices per destination), derived locally
    from the block's cross references (owned source, off-block target).

    By symmetry, destination d references exactly my vertices that have an
    edge to a vertex owned by d.
    """
    if cross_src.size == 0:
        return {}
    lo, _ = partition.interval(rank)
    dest = partition.owner_of(cross_nbr)
    n = partition.num_elements
    pair_key = dest * np.intp(n) + cross_src
    uniq = _sorted_unique(pair_key)  # grouped by dest, ascending global
    u_dest = uniq // n
    u_src = uniq % n
    send_lists: dict[int, np.ndarray] = {}
    change = np.flatnonzero(np.diff(u_dest)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [uniq.size]])
    for s, e in zip(starts, ends):
        d = int(u_dest[s])
        send_lists[d] = (u_src[s:e] - lo).astype(np.intp)
    return send_lists


def _sorted_schedule(
    graph: CSRGraph, partition: IntervalPartition, rank: int
) -> tuple[CommSchedule, dict[str, int]]:
    """The (identical) schedule produced by sort1 and sort2, plus sizes."""
    lo, hi = partition.interval(rank)
    src, nbr = local_references(graph, partition, rank)
    off_mask = (nbr < lo) | (nbr >= hi)
    off = nbr[off_mask]
    ghost_globals = np.unique(off)  # dedup ("hash table") + ascending order
    recv_lists, ghost_globals = _recv_side_sorted(
        partition, rank, ghost_globals
    )
    send_lists = _send_side(partition, rank, src[off_mask], off)
    sizes = {
        "refs": int(nbr.size),
        "ghosts": int(ghost_globals.size),
        "sends": int(sum(a.size for a in send_lists.values())),
    }
    sched = CommSchedule(
        rank=rank,
        partition=partition,
        send_lists=send_lists,
        recv_lists=recv_lists,
        ghost_globals=ghost_globals,
    )
    return sched, sizes


def build_schedule_sort1(
    graph: CSRGraph,
    partition: IntervalPartition,
    rank: int,
    *,
    ctx: "RankContext | None" = None,
    cost_model: InspectorCostModel = InspectorCostModel(),
) -> CommSchedule:
    """Schedule via symmetry + sorting both lists (schedule_sort1).

    No communication.  Charges: dedup over all references, translation of
    the unique ghosts, an explicit sort of the permutation list *and* of
    the send lists.
    """
    sched, sizes = _sorted_schedule(graph, partition, rank)
    _charge(
        ctx, cost_model.sorted_build_cost("sort1", **sizes), "inspector-sort1"
    )
    return sched


def build_schedule_sort2(
    graph: CSRGraph,
    partition: IntervalPartition,
    rank: int,
    *,
    ctx: "RankContext | None" = None,
    cost_model: InspectorCostModel = InspectorCostModel(),
) -> CommSchedule:
    """Schedule via symmetry with the traversal-order restriction
    (schedule_sort2): identical schedule to sort1, but the send lists come
    out sorted for free, so only the permutation-list sort is charged.
    """
    sched, sizes = _sorted_schedule(graph, partition, rank)
    _charge(
        ctx, cost_model.sorted_build_cost("sort2", **sizes), "inspector-sort2"
    )
    return sched


def build_schedule_no_dedup(
    graph: CSRGraph, partition: IntervalPartition, rank: int
) -> CommSchedule:
    """A schedule *without* duplicate-access removal — the naive baseline.

    Sec. 2 lists "the removal of duplicate accesses" among the
    communication optimizations; this builder omits it so the benefit can
    be measured: every off-processor *reference* gets its own ghost slot,
    so a boundary vertex referenced by k of my vertices is shipped k times
    per gather.  Symmetry still lets both sides derive the multiset order
    locally (one entry per cross edge, sorted by the referenced global id),
    so the schedule is correct, just fatter.  Building it charges no
    inspector time.
    """
    lo, hi = partition.interval(rank)
    src, nbr = local_references(graph, partition, rank)
    off_mask = (nbr < lo) | (nbr >= hi)
    off = np.sort(nbr[off_mask])  # duplicates retained
    recv_lists, ghost_globals = _recv_side_sorted(partition, rank, off)

    # Send side with multiplicity: one entry per cross edge (dest block,
    # my vertex), ordered by (dest, my global id) to match the receiver's
    # per-segment ascending order.
    src_off = src[off_mask]
    dest = (
        partition.owner_of(nbr[off_mask])
        if off_mask.any()
        else np.empty(0, np.intp)
    )
    send_lists = {}
    if src_off.size:
        order = np.lexsort((src_off, dest))
        d_sorted = dest[order]
        s_sorted = src_off[order]
        change = np.flatnonzero(np.diff(d_sorted)) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [d_sorted.size]])
        for s, e in zip(starts, ends):
            send_lists[int(d_sorted[s])] = (s_sorted[s:e] - lo).astype(
                np.intp
            )
    return CommSchedule(
        rank=rank,
        partition=partition,
        send_lists=send_lists,
        recv_lists=recv_lists,
        ghost_globals=ghost_globals,
    )


def build_schedule_simple(
    graph: CSRGraph,
    partition: IntervalPartition,
    *,
    ctx: "RankContext",
    cost_model: InspectorCostModel = InspectorCostModel(),
) -> CommSchedule:
    """Schedule via an explicit distributed translation table (the
    "Simple Strategy" of Table 3).  SPMD collective: all ranks call it.

    Round 1: dereference the deduplicated off-processor references through
    the distributed table (query/reply to table-home ranks).
    Round 2: ship each home processor the list of its elements we need, so
    it can build its send list (in request order — no sorting anywhere).
    """
    rank = ctx.rank
    lo, hi = partition.interval(rank)
    src, nbr = local_references(graph, partition, rank)
    off_mask = (nbr < lo) | (nbr >= hi)
    off = nbr[off_mask]
    # Dedup preserving first-appearance order (the hash-table order of the
    # paper's Fig. 4 "before sorting" lists).
    ghost_globals, first_pos = np.unique(off, return_index=True)
    ghost_globals = ghost_globals[np.argsort(first_pos, kind="stable")]
    _charge(ctx, cost_model.sec_per_ref * nbr.size, "inspector-simple-dedup")

    table = DistributedTranslationTable(partition, rank)
    # Per-message software setup for the query/reply protocol (rounds 1+2
    # below plus the two count-allgathers): this is the term that grows with
    # the processor count and eventually sinks the simple strategy.
    from repro.runtime.translation import table_home

    n_homes = int(
        np.unique(table_home(ghost_globals, partition.num_elements, ctx.size)).size
        if ghost_globals.size
        else 0
    )
    n_owners = int(np.unique(partition.owner_of(ghost_globals)).size
                   if ghost_globals.size else 0)
    setups = 2 * n_homes + n_owners + 4  # queries+replies, requests, allgathers
    _charge(ctx, cost_model.sec_per_message_setup * setups,
            "inspector-simple-setup")
    owners, locals_ = table.dereference_collective(ctx, ghost_globals)

    # Group ghost slots by owner, preserving request order within groups.
    recv_lists: dict[int, np.ndarray] = {}
    request_out: dict[int, np.ndarray] = {}
    groups = _group_by_value(owners)
    for o in sorted(groups):
        pos = groups[o]
        if o == rank:
            raise ScheduleError(
                f"rank {rank}: off-processor reference resolved to itself"
            )
        recv_lists[o] = pos.astype(np.intp)
        request_out[o] = locals_[pos].astype(np.intp)
    _charge(
        ctx,
        cost_model.sec_per_linear_op * ghost_globals.size,
        "inspector-simple-group",
    )

    # Round 2: every home processor learns which of its elements to send.
    counts = np.zeros(ctx.size, dtype=np.intp)
    for d, arr in request_out.items():
        counts[d] = arr.size
    all_counts = ctx.allgather(counts)
    expect_from = [
        s for s in range(ctx.size) if s != rank and all_counts[s][rank] > 0
    ]
    incoming = ctx.alltoallv(request_out, expect_from, tag=Tags.SCHEDULE_REQUEST)
    send_lists = {
        int(s): np.ascontiguousarray(arr, dtype=np.intp)
        for s, arr in incoming.items()
        if s != rank
    }
    _charge(
        ctx,
        cost_model.sec_per_linear_op
        * sum(a.size for a in send_lists.values()),
        "inspector-simple-store",
    )
    return CommSchedule(
        rank=rank,
        partition=partition,
        send_lists=send_lists,
        recv_lists=recv_lists,
        ghost_globals=ghost_globals,
    )
