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
