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
much smaller than a full build's charge.  :class:`RebuildPrice` puts
that same charge on a remap before it is approved, so a cheaper rebuild
lets *more* remaps pass the profitability test.
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
    "RebuildPrice",
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


def _range_refs(
    graph: CSRGraph, lo: int, hi: int, lo_t: int, hi_t: int, inside: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(source, target) of the references whose source lies in
    ``[lo, hi)`` and whose target lies inside ``[lo_t, hi_t)`` (or
    outside it, with ``inside=False``), in reference order."""
    start = graph.indptr[lo]
    nbr = graph.indices[start : graph.indptr[hi]]
    within = (nbr >= lo_t) & (nbr < hi_t)
    pos = np.flatnonzero(within if inside else ~within)
    src = np.searchsorted(graph.indptr, pos + start, "right") - 1
    return src, nbr[pos].astype(np.intp)


def _range_ref_count(graph: CSRGraph, ranges: tuple[tuple[int, int], ...]) -> int:
    return int(sum(graph.indptr[hi] - graph.indptr[lo] for lo, hi in ranges))


def _patched_cross(
    graph: CSRGraph, cross_src: np.ndarray, cross_nbr: np.ndarray,
    d: IntervalDiff,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], int]:
    """The new block's cross references, patched from the old block's
    through the boundary diff *d*.

    Returns the new (source, target) arrays, the kept rows each lost
    range names (its back references' sources) and how many references
    were added.  Needs the diff to keep a non-empty intersection.
    """
    lo1, hi1 = d.new_lo, d.new_hi
    # Keep entries whose source stays owned and whose target did not
    # just become local; the target cannot enter the kept interval
    # (it was off the OLD block, and kept is a subset of it).
    keep = (cross_src >= d.keep_lo) & (cross_src < d.keep_hi)
    if d.gained:
        keep &= ~_in_ranges(cross_nbr, d.gained)
    added_src = [cross_src[keep]]
    added_nbr = [cross_nbr[keep]]
    added = 0
    # Gained vertices contribute their own off-block references.
    for glo, ghi in d.gained:
        src_off, nbr_off = _range_refs(graph, glo, ghi, lo1, hi1, False)
        added_src.append(src_off)
        added_nbr.append(nbr_off)
        added += src_off.size
    # Lost vertices turn kept->lost edges into cross references; the
    # sorting strategies' symmetry assumption lets us find them by
    # scanning the lost rows for neighbors in the kept interval.
    back_rows = []
    for llo, lhi in d.lost:
        src_l, back_src = _range_refs(
            graph, llo, lhi, d.keep_lo, d.keep_hi, True
        )
        added_src.append(back_src)
        added_nbr.append(src_l)
        back_rows.append(back_src)
        added += back_src.size
    return (
        np.concatenate(added_src), np.concatenate(added_nbr), back_rows, added
    )


def _send_volume(
    partition: IntervalPartition, cross_src: np.ndarray, cross_nbr: np.ndarray
) -> int:
    """The block's send volume from its cross references: one entry per
    distinct (destination, owned source) pair, as :func:`_send_side`
    builds the lists."""
    if cross_src.size == 0:
        return 0
    n = np.intp(partition.num_elements)
    return int(_sorted_unique(partition.owner_of(cross_nbr) * n + cross_src).size)


def _patch_estimate(
    cost_model: InspectorCostModel, graph: CSRGraph, d: IntervalDiff, *,
    cross: int, ghosts: int, sends: int,
) -> float:
    """The crossover's price of patching *d*, from pre-patch sizes.

    The sort of the added cross references is left out: it is
    boundary-sized and unknown until the moved rows are scanned, and the
    pre-patch bound on it (every reference of every moved row) overstates
    the whole charge 10-34x, where leaving it out stays within 2x
    (docs/benchmarks.md, "Incremental crossover").
    """
    return cost_model.patch_cost(
        diff_refs=_range_ref_count(graph, d.lost + d.gained),
        cross=2 * cross,
        ghosts=ghosts,
        sends=sends,
        added=0,
    )


def _full_estimate(
    cost_model: InspectorCostModel, strategy: str, graph: CSRGraph,
    d: IntervalDiff, *, ghosts: int, sends: int,
) -> float:
    """What a full build of *d*'s new block charges, at these ghost and
    send sizes.  The ``simple`` strategy is priced by its local dedup and
    grouping passes only: its query rounds are messages, not a formula."""
    refs = int(graph.indptr[d.new_hi] - graph.indptr[d.new_lo])
    if strategy == "simple":
        return cost_model.sec_per_ref * refs + cost_model.sec_per_linear_op * ghosts
    return cost_model.sorted_build_cost(
        strategy, refs=refs, ghosts=ghosts, sends=sends
    )


def _takes_patch(
    cost_model: InspectorCostModel, strategy: str, graph: CSRGraph,
    d: IntervalDiff, *, cross: int, ghosts: int, sends: int,
) -> bool:
    """The crossover: whether patching *d* is priced below a full build.

    Both sides are priced by the formulas that charge them, from what is
    known before any work: the new block's reference count (exact, from
    indptr), the moved rows' reference count (exact), and the current
    block's *cross* reference, ghost and send sizes, which stand in for
    the new block's (a boundary shift changes them by boundary-sized
    amounts).  Deterministic.
    """
    if d.n_kept == 0:
        return False
    patch = _patch_estimate(
        cost_model, graph, d, cross=cross, ghosts=ghosts, sends=sends
    )
    return patch < _full_estimate(
        cost_model, strategy, graph, d, ghosts=ghosts, sends=sends
    )


@dataclass(frozen=True)
class _BlockBoundary:
    """One block's cross references and the schedule sizes they fix."""

    src: np.ndarray
    nbr: np.ndarray
    ghosts: int
    sends: int


def _boundary(
    partition: IntervalPartition, src: np.ndarray, nbr: np.ndarray
) -> _BlockBoundary:
    return _BlockBoundary(
        src, nbr, int(_sorted_unique(nbr).size) if nbr.size else 0,
        _send_volume(partition, src, nbr),
    )


class RebuildPrice:
    """What each rank's Phase B rebuild will charge for a remap, before it
    runs: the price :func:`~repro.runtime.adaptive.strategy.decide` puts
    on the rebuild.

    Every rank holds the whole graph, so the price of any rank's rebuild
    is a replicated computation: the same cost-model formula the rebuild
    charges (``patch_cost`` of the rank's boundary diff, or the full
    build's charge in full mode and when the crossover falls back), fed
    the sizes the rebuild will see.  Those are exact: the new block's
    cross references are patched from the old block's exactly as
    :class:`IncrementalInspector` patches them, so the ghost and send
    sizes, and the number of added references, are the rebuild's own.
    The result is in unloaded seconds; the caller scales each rank's by
    its slowdown.

    The old partition's cross references cost one pass over the graph's
    references.  The last call's old partition and candidate are kept:
    the next check prices from one of them (the candidate after a remap).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        strategy: str,
        mode: str,
        cost_model: InspectorCostModel,
    ):
        self.graph = graph
        self.strategy = strategy
        self.incremental = mode == "incremental"
        self.cost_model = cost_model
        self._cache: dict[bytes, list[_BlockBoundary]] = {}

    @staticmethod
    def _key(partition: IntervalPartition) -> bytes:
        return partition.bounds.tobytes() + partition.owners.tobytes()

    def _blocks(self, partition: IntervalPartition) -> list[_BlockBoundary]:
        blocks = self._cache.get(self._key(partition))
        if blocks is None:
            blocks = [
                _boundary(partition, *_range_refs(self.graph, lo, hi, lo, hi, False))
                for lo, hi in map(
                    partition.interval, range(partition.num_processors)
                )
            ]
        return blocks

    def seconds(
        self, old: IntervalPartition, new: IntervalPartition
    ) -> np.ndarray:
        """Per rank, the unloaded virtual seconds its rebuild for the
        remap *old* -> *new* charges."""
        graph = self.graph
        cost = self.cost_model
        before = self._blocks(old)
        after = []
        price = np.zeros(old.num_processors, dtype=np.float64)
        for rank, was in enumerate(before):
            d = diff_interval(old, new, rank)
            if d.n_kept:
                src, nbr, _, added = _patched_cross(graph, was.src, was.nbr, d)
            else:
                lo, hi = d.new_lo, d.new_hi
                src, nbr = _range_refs(graph, lo, hi, lo, hi, False)
                added = 0
            now = _boundary(new, src, nbr)
            after.append(now)
            if d.new_hi == d.new_lo:
                continue
            if self.incremental and _takes_patch(
                cost, self.strategy, graph, d,
                cross=int(was.src.size), ghosts=was.ghosts, sends=was.sends,
            ):
                price[rank] = cost.patch_cost(
                    diff_refs=_range_ref_count(graph, d.lost + d.gained),
                    cross=int(was.src.size + src.size),
                    ghosts=now.ghosts,
                    sends=now.sends,
                    added=added,
                )
            else:
                price[rank] = _full_estimate(
                    cost, self.strategy, graph, d,
                    ghosts=now.ghosts, sends=now.sends,
                )
        self._cache = {self._key(old): before, self._key(new): after}
        return price


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

    def _sizes(self) -> dict[str, int]:
        """The current block's cross-reference, ghost and send sizes."""
        schedule = self.result.schedule
        return dict(
            cross=int(self.cross_src.size),
            ghosts=schedule.ghost_size,
            sends=schedule.send_volume,
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
            take_patch = patchable and _takes_patch(
                self.cost_model, self.strategy, self.graph, d, **self._sizes()
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
        cross_src, cross_nbr, back_rows, added = _patched_cross(
            graph, self.cross_src, self.cross_nbr, d
        )

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
