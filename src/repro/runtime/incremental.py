"""Incremental inspector rebuild: epoch-to-epoch Phase B deltas.

The paper re-runs all of Phase B "whenever data is redistributed"
(Sec. 3).  Most redistributions, though, only *shift interval
boundaries*: after a remap the typical rank keeps almost all of its
block, so almost all of its ghost set, send lists and translated kernel
addresses are unchanged.  This module exploits that:

* :func:`diff_interval` computes a rank's boundary diff between two
  :class:`~repro.partition.intervals.IntervalPartition` objects — the
  kept intersection plus up to two *lost* and two *gained* contiguous
  ranges (pure interval arithmetic, O(1));
* :class:`IncrementalInspector` caches the rank's **cross references**
  (the off-block adjacency entries — exactly the inspector's raw input
  that survives a boundary shift) and *patches* the previous
  :class:`~repro.runtime.schedule.CommSchedule` and
  :class:`~repro.runtime.kernels.KernelPlan` into the new partition's,
  touching O(diff x degree + boundary) data instead of O(n/p + refs);
* a deterministic crossover test falls back to
  :func:`~repro.runtime.inspector.run_inspector` when the diff is too
  large to be worth patching.  Both sides are priced by the
  :class:`InspectorCostModel` method that charges the real work
  (``sorted_build_cost`` / ``patch_cost``), fed the sizes known before
  it starts.

**Bit-identity contract.**  The patched schedule and plan are equal,
array for array, to what a from-scratch ``sort1``/``sort2`` build would
produce: the ghost buffer is ``np.unique`` of the same
cross-reference multiset, the recv side reuses
:func:`~repro.runtime.schedule_builders._recv_side_sorted` verbatim, and
the send side *is*
:func:`~repro.runtime.schedule_builders._send_side`, fed the patched
cross references.  The property suite
in ``tests/test_incremental.py`` pins this through randomized remap
sequences.

The patch path requires the sorting strategies' symmetry assumption
(an edge's reference appears in both endpoint rows — already mandatory
for ``sort1``/``sort2``); the ``simple`` strategy's request-ordered
ghost buffers cannot be patched and are rejected at construction.

Virtual time: a patch charges ``"inspector-incremental"`` — a
deterministic function of the diff's structural sizes, and
much smaller than a full build's charge.  That shrinkage feeds the
session's learned rebuild cost, making *more* remaps pass
the profitability test — a perf change that also improves adaptive
quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.inspector import InspectorResult, run_inspector
from repro.runtime.kernels import (
    KernelPlan,
    index_type,
    sorted_ghost_slots,
    translate_local,
)
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    InspectorCostModel,
    _charge,
    _recv_side_sorted,
    _send_side,
    _sorted_unique,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "IntervalDiff",
    "diff_interval",
    "IncrementalInspector",
    "check_inspector_mode",
]

#: Phase B rebuild modes after a remap (``ProgramConfig.inspector_mode``).
INSPECTOR_MODES = ("full", "incremental")


def check_inspector_mode(mode: str, strategy: str) -> None:
    """The one rule on ``inspector_mode``: a known mode, and a patchable
    schedule strategy when it is ``"incremental"``."""
    if mode not in INSPECTOR_MODES:
        raise ScheduleError(
            f"inspector_mode must be one of {INSPECTOR_MODES}, got {mode!r}"
        )
    patchable = IncrementalInspector.PATCHABLE
    if mode == "incremental" and strategy not in patchable:
        raise ScheduleError(
            f"inspector_mode='incremental' requires a sorting strategy "
            f"{patchable}, got {strategy!r} (the simple strategy's "
            f"request-ordered ghost buffers cannot be patched)"
        )


@dataclass(frozen=True)
class IntervalDiff:
    """One rank's boundary diff between two interval partitions.

    ``kept`` is the (possibly empty) intersection ``[keep_lo, keep_hi)``;
    ``lost``/``gained`` are the up-to-two contiguous half-open ranges the
    rank gave up / acquired.  Together they tile the old and new
    intervals exactly: ``kept + lost == old`` and ``kept + gained == new``
    with no overlaps (the property suite pins this).
    """

    rank: int
    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int
    keep_lo: int
    keep_hi: int
    lost: tuple[tuple[int, int], ...]
    gained: tuple[tuple[int, int], ...]

    @property
    def n_kept(self) -> int:
        return self.keep_hi - self.keep_lo

    @property
    def n_lost(self) -> int:
        return sum(hi - lo for lo, hi in self.lost)

    @property
    def n_gained(self) -> int:
        return sum(hi - lo for lo, hi in self.gained)


def diff_interval(
    old: IntervalPartition, new: IntervalPartition, rank: int
) -> IntervalDiff:
    """Classify *rank*'s elements as kept/gained/lost between partitions."""
    if old.num_elements != new.num_elements:
        raise ScheduleError(
            f"cannot diff partitions of {old.num_elements} vs "
            f"{new.num_elements} elements"
        )
    lo0, hi0 = old.interval(rank)
    lo1, hi1 = new.interval(rank)
    keep_lo, keep_hi = max(lo0, lo1), min(hi0, hi1)
    if keep_hi <= keep_lo:
        # Disjoint (or one side empty): everything moved.
        keep_lo = keep_hi = lo1
        lost = ((lo0, hi0),) if hi0 > lo0 else ()
        gained = ((lo1, hi1),) if hi1 > lo1 else ()
    else:
        lost = tuple(
            (lo, hi)
            for lo, hi in ((lo0, keep_lo), (keep_hi, hi0))
            if hi > lo
        )
        gained = tuple(
            (lo, hi)
            for lo, hi in ((lo1, keep_lo), (keep_hi, hi1))
            if hi > lo
        )
    return IntervalDiff(
        rank=rank,
        old_lo=lo0, old_hi=hi0, new_lo=lo1, new_hi=hi1,
        keep_lo=keep_lo, keep_hi=keep_hi,
        lost=lost, gained=gained,
    )


def _in_ranges(
    x: np.ndarray, ranges: tuple[tuple[int, int], ...]
) -> np.ndarray:
    mask = np.zeros(x.shape, dtype=bool)
    for lo, hi in ranges:
        mask |= (x >= lo) & (x < hi)
    return mask


def _range_refs(graph: CSRGraph, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """All adjacency references whose source lies in ``[lo, hi)``."""
    start, stop = graph.indptr[lo], graph.indptr[hi]
    nbr = graph.indices[start:stop].astype(np.intp, copy=False)
    counts = graph.indptr[lo + 1 : hi + 1] - graph.indptr[lo:hi]
    src = np.repeat(np.arange(lo, hi, dtype=np.intp), counts)
    return src, nbr


def _range_ref_count(graph: CSRGraph, ranges: tuple[tuple[int, int], ...]) -> int:
    return int(sum(graph.indptr[hi] - graph.indptr[lo] for lo, hi in ranges))


class IncrementalInspector:
    """Per-rank incremental Phase B state.

    Construction runs one full inspector build (charged as usual) and
    caches the rank's cross references; :meth:`rebuild` then patches the
    cached result to each new partition, falling back to a full
    :func:`run_inspector` when the crossover test says the diff is too
    large (or the intersection is empty).

    The instance assumes the *graph* is immutable for its lifetime and
    diffs each new partition against the partition its current result
    was built for — which is what the recovery path needs, where the
    session's own ``partition`` transits through the checkpoint's.
    """

    #: Strategies whose schedules the patch path reproduces.
    PATCHABLE = ("sort1", "sort2")

    def __init__(
        self,
        graph: CSRGraph,
        partition: IntervalPartition,
        rank: int,
        *,
        strategy: str = "sort2",
        ctx: "RankContext | None" = None,
        cost_model: InspectorCostModel = InspectorCostModel(),
    ):
        check_inspector_mode("incremental", strategy)
        self.graph = graph
        self.rank = rank
        self.strategy = strategy
        self.ctx = ctx
        self.cost_model = cost_model
        self.num_patches = 0
        self.num_full_rebuilds = 0
        self.last_mode = "full"
        self.last_patch_cost = 0.0
        self.result = self._full_build(partition)

    # ------------------------------------------------------------------ #
    # full-build path (also the fallback)
    # ------------------------------------------------------------------ #

    def _full_build(self, partition: IntervalPartition) -> InspectorResult:
        result = run_inspector(
            self.graph,
            partition,
            self.rank,
            strategy=self.strategy,
            ctx=self.ctx,
            cost_model=self.cost_model,
        )
        self._capture(partition, result)
        return result

    def _capture(
        self, partition: IntervalPartition, result: InspectorResult
    ) -> None:
        """Refresh the cross-reference cache after a full build.

        Bookkeeping only — it mirrors information the build just derived,
        so no extra virtual time is charged.
        """
        plan = result.kernel_plan
        # Positions of the off-block references within the block's
        # reference array (== the kernel plan's slot order), ascending:
        # exactly the slots past the local block.  The patch path uses
        # these to locate every slot it must rewrite in O(boundary)
        # instead of scanning all O(refs) slot values.
        off_pos = np.flatnonzero(plan.slots >= plan.n_local)
        lo = partition.interval(self.rank)[0]
        self.cross_src = lo + np.searchsorted(plan.indptr, off_pos, "right") - 1
        self.cross_nbr = result.schedule.ghost_globals[
            plan.slots[off_pos] - plan.n_local
        ].astype(np.intp, copy=False)
        self._off_pos = off_pos
        self.partition = partition
        self.result = result

    # ------------------------------------------------------------------ #
    # the crossover: both sides priced by the formulas that charge them
    # ------------------------------------------------------------------ #
    # Known before any work: the new block's reference count (exact, from
    # indptr), the moved rows' reference count (exact), and the current
    # cross-reference, ghost and send sizes, which stand in for the new
    # partition's (a boundary shift changes them by boundary-sized
    # amounts).  Deterministic.

    def _full_cost_estimate(self, d: IntervalDiff) -> float:
        """What ``sort1``/``sort2`` would charge for the new block."""
        indptr = self.graph.indptr
        schedule = self.result.schedule
        return self.cost_model.sorted_build_cost(
            self.strategy,
            refs=int(indptr[d.new_hi] - indptr[d.new_lo]),
            ghosts=schedule.ghost_size,
            sends=schedule.send_volume,
        )

    def _patch_cost_estimate(self, d: IntervalDiff) -> float:
        """What :meth:`_patch` would charge for *d*, from pre-patch sizes.

        The sort of the added cross references is left out: it is
        boundary-sized and unknown until the moved rows are scanned, and
        the pre-patch bound on it (every reference of every moved row)
        overstates the whole charge 10-34x, where leaving it out stays
        within 2x (docs/benchmarks.md, "Incremental crossover").
        """
        schedule = self.result.schedule
        return self.cost_model.patch_cost(
            diff_refs=_range_ref_count(self.graph, d.lost + d.gained),
            cross=2 * int(self.cross_src.size),
            ghosts=schedule.ghost_size,
            sends=schedule.send_volume,
            added=0,
        )

    # ------------------------------------------------------------------ #
    # the patch path
    # ------------------------------------------------------------------ #

    def rebuild(
        self,
        new_partition: IntervalPartition,
        *,
        force: str | None = None,
    ) -> InspectorResult:
        """Phase B for *new_partition*: patch if profitable, else full.

        ``force`` pins the decision for tests and measurements:
        ``"patch"`` always patches (provided the intersection is
        non-empty), ``"full"`` always rebuilds, ``None`` (default) runs
        the crossover test.
        """
        if force not in (None, "patch", "full"):
            raise ScheduleError(f"force must be None/'patch'/'full', got {force!r}")
        d = diff_interval(self.partition, new_partition, self.rank)
        patchable = d.n_kept > 0
        if force == "patch":
            if not patchable:
                raise ScheduleError(
                    f"rank {self.rank}: cannot force a patch across a "
                    f"disjoint interval move"
                )
            take_patch = True
        elif force == "full":
            take_patch = False
        else:
            take_patch = patchable and (
                self._patch_cost_estimate(d) < self._full_cost_estimate(d)
            )
        if not take_patch:
            self.num_full_rebuilds += 1
            self.last_mode = "full"
            self.last_patch_cost = 0.0
            return self._full_build(new_partition)
        result = self._patch(new_partition, d)
        self.num_patches += 1
        self.last_mode = "patched"
        # The full path counts itself inside run_inspector; the patch
        # path is the other arm of the same decision.
        if self.ctx is not None:
            self.ctx.metrics.count("inspector.patch_builds")
        return result

    def _patch(
        self, new_partition: IntervalPartition, d: IntervalDiff
    ) -> InspectorResult:
        graph = self.graph
        rank = self.rank
        ctx = self.ctx
        t0 = ctx.clock if ctx is not None else 0.0
        lo1, hi1 = d.new_lo, d.new_hi

        # --- cross-reference update ----------------------------------- #
        # Keep entries whose source stays owned and whose target did not
        # just become local; the target cannot enter the kept interval
        # (it was off the OLD block, and kept is a subset of it).
        keep = (self.cross_src >= d.keep_lo) & (self.cross_src < d.keep_hi)
        if d.gained:
            keep &= ~_in_ranges(self.cross_nbr, d.gained)
        kept_src = self.cross_src[keep]
        kept_nbr = self.cross_nbr[keep]
        added_src = [kept_src]
        added_nbr = [kept_nbr]
        added = 0
        # Gained vertices contribute their own off-block references.
        for glo, ghi in d.gained:
            src_g, nbr_g = _range_refs(graph, glo, ghi)
            off = (nbr_g < lo1) | (nbr_g >= hi1)
            src_off = src_g[off]
            added_src.append(src_off)
            added_nbr.append(nbr_g[off])
            added += src_off.size
        # Lost vertices turn kept->lost edges into cross references; the
        # sorting strategies' symmetry assumption lets us find them by
        # scanning the lost rows for neighbors in the kept interval.
        back_rows = []
        for llo, lhi in d.lost:
            src_l, nbr_l = _range_refs(graph, llo, lhi)
            back = (nbr_l >= d.keep_lo) & (nbr_l < d.keep_hi)
            back_src = nbr_l[back]
            added_src.append(back_src)
            added_nbr.append(src_l[back])
            back_rows.append(back_src)
            added += back_src.size
        cross_src = np.concatenate(added_src)
        cross_nbr = np.concatenate(added_nbr)

        # --- exceptional slot positions ------------------------------- #
        # Every kept-row slot the kernel-plan patch must rewrite, located
        # in O(boundary) work: the cached off-block positions, plus —
        # via the same symmetry — references into the lost ranges, found
        # by expanding only the rows the lost-row scan just named.
        s0 = int(graph.indptr[d.keep_lo] - graph.indptr[d.old_lo])
        s1 = int(graph.indptr[d.keep_hi] - graph.indptr[d.old_lo])
        o = self._off_pos
        i0, i1 = np.searchsorted(o, (s0, s1))
        exc_pos = o[i0:i1]
        back_all = (
            np.concatenate(back_rows) if back_rows else np.empty(0, np.intp)
        )
        if back_all.size:
            gs = _sorted_unique(back_all)
            lens = graph.indptr[gs + 1] - graph.indptr[gs]
            row0 = graph.indptr[gs] - graph.indptr[d.old_lo]
            shift = row0 - np.concatenate(
                [np.zeros(1, np.intp), np.cumsum(lens[:-1])]
            )
            cand = np.repeat(shift, lens) + np.arange(
                int(lens.sum()), dtype=np.intp
            )
            vals = self.result.kernel_plan.slots[cand]
            k_lo = d.keep_lo - d.old_lo
            k_hi = d.keep_hi - d.old_lo
            lost_pos = cand[(vals < k_lo) | (vals >= k_hi)]
            exc_pos = _sorted_unique(np.concatenate([exc_pos, lost_pos]))

        # --- schedule -------------------------------------------------- #
        # Same pipeline as _sorted_schedule, fed the patched multiset:
        # unique ghost set, run-grouped recv side, pair-key send side.
        ghost_globals = _sorted_unique(cross_nbr)
        recv_lists, ghost_globals = _recv_side_sorted(
            new_partition, rank, ghost_globals
        )
        send_lists = _send_side(new_partition, rank, cross_src, cross_nbr)
        schedule = CommSchedule(
            rank=rank,
            partition=new_partition,
            send_lists=send_lists,
            recv_lists=recv_lists,
            ghost_globals=ghost_globals,
        )
        plan, off_pos = self._patch_kernel_plan(
            new_partition, d, ghost_globals, exc_pos - s0
        )

        # --- virtual charge ------------------------------------------- #
        # Deterministic in the diff's structural sizes.
        cost = self.cost_model.patch_cost(
            diff_refs=_range_ref_count(graph, d.lost + d.gained),
            cross=int(self.cross_src.size + cross_src.size),
            ghosts=schedule.ghost_size,
            sends=schedule.send_volume,
            added=added,
        )
        _charge(ctx, cost, "inspector-incremental")
        self.last_patch_cost = cost

        build_time = (ctx.clock - t0) if ctx is not None else 0.0
        result = InspectorResult(
            schedule=schedule,
            kernel_plan=plan,
            strategy=self.strategy,
            build_time=build_time,
        )
        self.cross_src = cross_src
        self.cross_nbr = cross_nbr
        self._off_pos = off_pos
        self.partition = new_partition
        self.result = result
        return result

    def _patch_kernel_plan(
        self,
        new_partition: IntervalPartition,
        d: IntervalDiff,
        ghost_globals: np.ndarray,
        exc: np.ndarray,
    ) -> tuple[KernelPlan, np.ndarray]:
        """Remap kept rows' slots by a constant shift plus boundary
        fixups; translate gained rows from scratch.  Bit-identical to
        :func:`~repro.runtime.kernels.build_kernel_plan` output.

        *exc* holds the positions (relative to the kept slot segment,
        ascending) of every kept-row reference whose target is not in
        the kept interval — the only slots the uniform shift gets wrong.
        Also returns the new off-block reference positions (the
        ``_off_pos`` cache for the next patch).
        """
        graph = self.graph
        old_plan = self.result.kernel_plan
        old_ghost = self.result.schedule.ghost_globals
        n_local0 = old_plan.n_local
        lo0 = d.old_lo
        lo1, hi1 = d.new_lo, d.new_hi
        n_local1 = hi1 - lo1

        # A kept row's reference into the kept interval maps by the
        # uniform shift lo0 - lo1 (global g: old slot g - lo0, new slot
        # g - lo1): one streaming add over the kept segment, then the
        # O(boundary)-sized exception set is remapped individually.
        s0 = int(graph.indptr[d.keep_lo] - graph.indptr[lo0])
        s1 = int(graph.indptr[d.keep_hi] - graph.indptr[lo0])
        old_slots = old_plan.slots[s0:s1]

        # Assemble straight into the final array (fresh-left | kept |
        # fresh-right) so the kept segment is written exactly once; the
        # full build's dtype rule, so the two paths give equal plans.
        n_ghost = int(ghost_globals.size)
        slots = np.empty(
            int(graph.indptr[hi1] - graph.indptr[lo1]),
            dtype=index_type(n_local1 + n_ghost),
        )
        left = [r for r in d.gained if r[1] <= d.keep_lo]
        right = [r for r in d.gained if r[0] >= d.keep_hi]
        head = sum(
            int(graph.indptr[ghi] - graph.indptr[glo]) for glo, ghi in left
        )
        mapped = slots[head : head + (s1 - s0)]
        np.add(old_slots, lo0 - lo1, out=mapped)

        def ghost_slots(off: np.ndarray, rows: str) -> np.ndarray:
            translated = sorted_ghost_slots(ghost_globals, off, n_local1)
            if translated is None:
                raise ScheduleError(
                    f"rank {self.rank}: {rows} row references a global "
                    f"missing from the patched ghost buffer (asymmetric "
                    f"adjacency?)"
                )
            return translated

        kept_off = np.empty(0, dtype=np.intp)
        if exc.size:
            es = old_slots[exc]
            g = np.empty(es.size, dtype=np.intp)
            was_local = es < n_local0
            g[was_local] = es[was_local] + lo0
            g[~was_local] = old_ghost[es[~was_local] - n_local0]
            new_slot = np.empty(es.size, dtype=np.intp)
            now_local = (g >= lo1) & (g < hi1)
            new_slot[now_local] = g[now_local] - lo1
            new_slot[~now_local] = ghost_slots(g[~now_local], "kept")
            mapped[exc] = new_slot
            kept_off = head + exc[~now_local]

        # Gained rows: fresh translation (their references are all in the
        # patched ghost buffer or the new local block by construction),
        # written into the pre-sized output segment; returns the
        # positions of the row range's off-block references.
        def fresh(out: np.ndarray, base: int, glo: int, ghi: int) -> np.ndarray:
            nbr = graph.indices[graph.indptr[glo] : graph.indptr[ghi]]
            off_idx = translate_local(out, nbr, lo1, hi1)
            out[off_idx] = ghost_slots(nbr[off_idx], "gained")
            return base + off_idx

        off_parts = []
        cursor = 0
        for glo, ghi in left:
            m = int(graph.indptr[ghi] - graph.indptr[glo])
            off_parts.append(fresh(slots[cursor : cursor + m], cursor, glo, ghi))
            cursor += m
        off_parts.append(kept_off)
        cursor = head + (s1 - s0)
        for glo, ghi in right:
            m = int(graph.indptr[ghi] - graph.indptr[glo])
            off_parts.append(fresh(slots[cursor : cursor + m], cursor, glo, ghi))
            cursor += m
        # Each piece is ascending and pieces cover disjoint ascending
        # position ranges, so the concatenation is already sorted.
        off_pos = np.concatenate(off_parts)

        plan = KernelPlan(
            rank=self.rank,
            n_local=n_local1,
            n_ghost=n_ghost,
            slots=slots,
            indptr=graph.indptr[lo1 : hi1 + 1] - graph.indptr[lo1],
        )
        return plan, off_pos
