"""Translation tables: global index -> (home processor, local index).

Two mechanisms from Sec. 3.2's discussion:

* :meth:`IntervalPartition.dereference
  <repro.partition.intervals.IntervalPartition.dereference>` — the paper's
  contribution: with a 1-D contiguous partition, the replicated list of
  per-processor (first, last) bounds is a complete translation table in
  O(p) memory with O(log p) communication-free dereference (Fig. 3).
* :class:`DistributedTranslationTable` — the entries block-distributed over
  processors: O(n/p) memory but dereference *requires communication*; this
  is what makes the "Simple Strategy" schedule build slow in Table 3.

The third, the classic PARTI table with the full (processor, local) entry
per element replicated everywhere, is O(n) memory per processor ("not
feasible for applications with large data sets") and is not built here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import TranslationError
from repro.net.message import Tags
from repro.partition.intervals import IntervalPartition

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "DistributedTranslationTable",
    "table_home",
]

#: Unit-speed seconds a rank spends reading one table entry for a query.
LOOKUP_SECONDS = 2.0e-6


def table_home(global_indices: np.ndarray, n: int, p: int) -> np.ndarray:
    """Which rank stores the table entry for each index (block distribution).

    Entry *g* lives on rank ``g // ceil(n/p)`` — every rank can compute this
    closed form, so *finding* the table entry needs no communication, only
    *reading* it does.
    """
    if n <= 0 or p <= 0:
        raise TranslationError(f"need n > 0 and p > 0, got n={n} p={p}")
    block = -(-n // p)  # ceil division
    gi = np.asarray(global_indices, dtype=np.intp)
    return np.minimum(gi // block, p - 1)


class DistributedTranslationTable:
    """Per-element table block-distributed across the processors.

    Each rank stores the (owner, local) entries for its block of the table
    index space.  :meth:`dereference_collective` is an SPMD collective: all
    ranks must call it together, exchanging query/reply messages — the
    communication the paper's interval table eliminates.
    """

    def __init__(self, partition: IntervalPartition, rank: int):
        self.partition = partition
        self.rank = rank
        n = partition.num_elements
        p = partition.num_processors
        block = -(-n // p) if p else 0
        lo = min(rank * block, n)
        hi = min(lo + block, n)
        gi = np.arange(lo, hi, dtype=np.intp)
        owner, local = partition.dereference(gi)
        self._lo = lo
        self._owner = owner.copy()
        self._local = local.copy()

    def lookup_local(
        self, global_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Look up entries stored on *this* rank."""
        gi = np.asarray(global_indices, dtype=np.intp)
        off = gi - self._lo
        if off.size and (off.min() < 0 or off.max() >= self._owner.size):
            raise TranslationError(
                f"rank {self.rank} asked for table entries it does not store"
            )
        return self._owner[off], self._local[off]

    def dereference_collective(
        self,
        ctx: "RankContext",
        global_indices: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """SPMD collective dereference through query/reply messages.

        Every rank passes its own query array (possibly empty).  Returns
        (owner, local) aligned with the query order.  Communication
        pattern: queries are exchanged with the table-home ranks discovered
        from the closed-form distribution; the pattern is made globally
        known with one allgather of per-destination counts.
        """
        gi = np.asarray(global_indices, dtype=np.intp)
        n = self.partition.num_elements
        p = ctx.size
        homes = table_home(gi, n, p) if gi.size else np.empty(0, dtype=np.intp)
        order = np.argsort(homes, kind="stable")
        sorted_gi = gi[order]
        sorted_homes = homes[order]
        # Split queries per home rank.
        counts = np.bincount(sorted_homes, minlength=p)
        # Everyone learns who queries whom (the unavoidable extra round).
        all_counts = ctx.allgather(counts)
        queries_out: dict[int, np.ndarray] = {}
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for dest in range(p):
            if counts[dest] and dest != ctx.rank:
                queries_out[dest] = sorted_gi[offsets[dest] : offsets[dest + 1]]
        expect_queries = [
            src for src in range(p) if src != ctx.rank and all_counts[src][ctx.rank] > 0
        ]
        incoming = ctx.alltoallv(queries_out, expect_queries, tag=Tags.SCHEDULE_REQUEST)

        # Answer queries from the locally stored block.
        replies_out: dict[int, np.ndarray] = {}
        for src, q in incoming.items():
            if src == ctx.rank:
                continue
            owner, local = self.lookup_local(q)
            ctx.compute(q.size * LOOKUP_SECONDS, label="table-lookup")
            replies_out[src] = np.stack([owner, local], axis=0)
        expect_replies = [d for d in queries_out]
        replies = ctx.alltoallv(replies_out, expect_replies, tag=Tags.SCHEDULE_REPLY)

        # Assemble results back in query order.
        owner_sorted = np.empty(gi.size, dtype=np.intp)
        local_sorted = np.empty(gi.size, dtype=np.intp)
        for home in range(p):
            seg = slice(offsets[home], offsets[home + 1])
            if offsets[home + 1] == offsets[home]:
                continue
            if home == ctx.rank:
                own, loc = self.lookup_local(sorted_gi[seg])
                ctx.compute((offsets[home + 1] - offsets[home]) * LOOKUP_SECONDS,
                            label="table-lookup")
            else:
                own, loc = replies[home][0], replies[home][1]
            owner_sorted[seg] = own
            local_sorted[seg] = loc
        owner = np.empty(gi.size, dtype=np.intp)
        local = np.empty(gi.size, dtype=np.intp)
        owner[order] = owner_sorted
        local[order] = local_sorted
        return owner, local
