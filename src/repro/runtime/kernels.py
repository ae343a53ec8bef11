"""The irregular loop (paper Fig. 8) and its parallel execution plan.

The paper's kernel, verbatim::

    for each vertex i:
        t[i] = sum over neighbors j of y[ia(j)]
    for each vertex i:
        y[i] = t[i] / degree(i)

i.e. one Jacobi-style neighbor-averaging sweep through an indirection
array.  :func:`run_sequential` is the single-machine form;
:class:`KernelPlan` is the per-rank compiled form produced by the
inspector (address-translated slots into the combined [local | ghost]
buffer).  Both apply one kernel, :class:`RowSegments`: a segmented sum
that accumulates each row's references in array order starting from 0.0
— exactly the loop's ``t[i] += y[ia(k)]`` — so the vectorized sweeps are
bit-identical to the literal transcription of Fig. 8 over a plan, not
merely close to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.schedule import CommSchedule
from repro.utils.lazy import lazy_attribute

__all__ = [
    "KernelCostModel",
    "KernelPlan",
    "RowSegments",
    "build_kernel_plan",
    "sorted_ghost_slots",
    "run_sequential",
]


@dataclass(frozen=True)
class KernelCostModel:
    """Virtual cost of one kernel sweep, per reference and per vertex.

    Defaults calibrated so the paper's workload (30,269 vertices, 44,929
    edges, 500 iterations) takes ~0.2 virtual seconds per iteration on a
    speed-1.0 workstation — matching Table 4's 97.61 s single-machine run.
    """

    sec_per_reference: float = 2.0e-6
    sec_per_vertex: float = 0.5e-6

    def sweep_seconds(self, n_references: int, n_vertices: int) -> float:
        return (
            self.sec_per_reference * n_references
            + self.sec_per_vertex * n_vertices
        )


class RowSegments:
    """The loop invariants of a row-wise sweep over consecutive segments.

    Row ``i`` owns the next ``counts[i]`` references of a flat
    per-reference array; reference ``k`` reads ``values[index[k]]`` (or
    ``values[k]`` when *index* is ``None``).  Everything that depends only
    on ``counts`` and ``index`` is derived here, once:

    * rows are *ranked* by descending reference count (stable), and the
      references laid out column-major — column ``j`` holds the ``j``-th
      reference of every row with more than ``j``, i.e. a prefix of the
      ranked rows — so a sweep is one gather (``values[gather]``) and one
      contiguous ``np.add`` per column into a zeroed accumulator;
    * column adds stop at the first column shorter than the number of
      columns still to go; the remaining references of those few long rows
      go through one ``np.add.at`` in array order.  That bounds the column
      adds by ``sqrt(2 * m)`` for ``m`` references (a hub row costs one
      ``add.at`` element per reference, not one ``np.add`` call).

    Every row therefore still adds its references in array order starting
    from 0.0 — the summation order of the Fig. 8 loop — so results are
    bit-identical to it, including −0.0, infinities and a NaN's payload.
    (Where two *different* NaNs meet in one add, IEEE 754 leaves the
    survivor to the implementation; numpy's scalar and array adds differ.)
    """

    __slots__ = (
        "n_rows", "gather", "columns", "tail_rows", "tail_start",
        "unrank", "divisor", "empty",
    )

    def __init__(self, counts: np.ndarray, index: np.ndarray | None = None) -> None:
        counts = np.asarray(counts, dtype=np.intp)
        n = self.n_rows = int(counts.size)
        width = int(counts.max()) if n else 0
        # A stable sort of small unsigned keys is numpy's radix sort.
        order = np.argsort(
            (width - counts).astype(np.min_scalar_type(width)), kind="stable"
        )
        ranked = counts[order]
        starts = (np.cumsum(counts) - counts)[order]
        # longer[j]: how many rows have more than j references, i.e. the
        # length of column j.
        longer = np.searchsorted(-ranked, -np.arange(width))
        short = np.flatnonzero(longer < width - np.arange(width))
        n_cols = int(short[0]) if short.size else width
        bounds = np.zeros(n_cols + 1, dtype=np.intp)
        np.cumsum(longer[:n_cols], out=bounds[1:])
        #: ``(rows, lo, hi)`` of every column: ``laid[lo:hi]`` adds into
        #: the first ``rows`` ranked rows.
        self.columns = list(
            zip(longer[:n_cols].tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
        )
        # The tail: references n_cols.. of every row longer than n_cols,
        # row by row in array order.
        n_long = int(longer[n_cols]) if n_cols < width else 0
        rest = ranked[:n_long] - n_cols
        self.tail_rows = np.repeat(np.arange(n_long, dtype=np.intp), rest)
        self.tail_start = int(bounds[-1])
        #: Where each laid-out reference reads its value: *index* composed
        #: with the layout — the one per-reference array kept.  Filled one
        #: column at a time, so building holds no second per-reference array.
        self.gather = np.empty(self.tail_start + self.tail_rows.size, dtype=np.intp)

        def place(lo: int, hi: int, positions: np.ndarray) -> None:
            self.gather[lo:hi] = positions if index is None else index[positions]

        for j, (rows, lo, hi) in enumerate(self.columns):
            place(lo, hi, starts[:rows] + j)
        if self.tail_rows.size:
            first = np.cumsum(rest) - rest
            place(
                self.tail_start, self.gather.size,
                starts[self.tail_rows] + n_cols
                + np.arange(self.tail_rows.size) - first[self.tail_rows],
            )
        #: Ranked position of every row (the inverse of *order*).
        self.unrank = np.empty(n, dtype=np.intp)
        self.unrank[order] = np.arange(n, dtype=np.intp)
        #: Rows without references (``None`` when every row has one).
        self.empty = counts == 0 if n and ranked[-1] == 0 else None
        #: Float reference counts in ranked order (empty rows divide by 1).
        self.divisor = np.maximum(ranked, 1.0)

    def _ranked_sums(self, values: np.ndarray) -> np.ndarray:
        laid = values[self.gather]
        t = np.zeros(self.n_rows)
        for rows, lo, hi in self.columns:
            head = t[:rows]
            np.add(head, laid[lo:hi], head)
        if self.tail_rows.size:
            np.add.at(t, self.tail_rows, laid[self.tail_start :])
        return t

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row sum of the referenced *values*; empty rows get 0."""
        return self._ranked_sums(values)[self.unrank]

    def means(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Per-row mean of the referenced *values*; empty rows take their
        value in *keep*."""
        t = self._ranked_sums(values)
        out = np.divide(t, self.divisor, out=t)[self.unrank]
        if self.empty is not None:
            out[self.empty] = keep[self.empty]
        return out


def _as_vertex_values(graph: CSRGraph, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (graph.num_vertices,):
        raise ScheduleError(
            f"y has shape {y.shape}, expected ({graph.num_vertices},)"
        )
    return y


def run_sequential(
    graph: CSRGraph, y0: np.ndarray, iterations: int
) -> np.ndarray:
    """Run the Fig. 8 loop *iterations* times sequentially (the oracle for
    the parallel runs and the T(p_i) baseline of the Sec. 4 efficiency)."""
    y = _as_vertex_values(graph, y0).copy()
    segments = RowSegments(graph.degrees, graph.indices)
    for _ in range(iterations):
        y = segments.means(y, y)
    return y


@dataclass(frozen=True)
class KernelPlan:
    """Per-rank compiled kernel: translated addresses, ready to sweep.

    ``slots`` indexes the combined ``[local | ghost]`` value buffer;
    ``starts``/``counts`` delimit each owned vertex's neighbor segment —
    the executor-phase output of the paper's address translation.
    """

    rank: int
    n_local: int
    slots: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.starts.shape != self.counts.shape or self.starts.ndim != 1:
            raise ScheduleError("starts/counts must be equal-length 1-D")
        if self.starts.size != self.n_local:
            raise ScheduleError(
                f"plan covers {self.starts.size} vertices, block holds "
                f"{self.n_local}"
            )

    @property
    def n_references(self) -> int:
        return int(self.slots.size)

    @lazy_attribute
    def segments(self) -> RowSegments:
        """The plan's row segments, derived on first use and kept for its
        lifetime: no sweep repeats plan-only work."""
        return RowSegments(self.counts, self.slots)

    def sweep(self, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        """One vectorized kernel sweep over this rank's vertices."""
        if local_y.shape != (self.n_local,):
            # A longer block would silently read slots >= n_local from
            # its own tail instead of the ghost buffer.
            raise ScheduleError(
                f"rank {self.rank}: local data has shape {local_y.shape}, "
                f"plan covers {self.n_local} vertices"
            )
        combined = np.concatenate([local_y, ghost]) if ghost.size else local_y
        return self.segments.means(combined, local_y)


def sorted_ghost_slots(
    ghost_sorted: np.ndarray, off: np.ndarray, n_local: int
) -> np.ndarray | None:
    """Combined-buffer slots (``n_local + position``) of the off-block
    globals *off* in an **ascending** ghost buffer, or ``None`` when some
    reference is not found there (the buffer is not sorted, or lacks it).
    """
    if off.size == 0:
        return np.empty(0, dtype=np.intp)
    g = ghost_sorted.size
    if g == 0:
        return None
    pos = np.searchsorted(ghost_sorted, off)
    found = (pos < g) & (ghost_sorted[np.minimum(pos, g - 1)] == off)
    return n_local + pos if found.all() else None


def build_kernel_plan(
    graph: CSRGraph,
    partition: IntervalPartition,
    schedule: CommSchedule,
    *,
    backend: str | None = None,
) -> KernelPlan:
    """Translate the global Fig. 8 indirection into local+ghost slots.

    The address translation of Sec. 2 item 4: local neighbors become
    offsets into the local block; off-processor neighbors become
    ``n_local + position`` in the (sorted or request-ordered) ghost buffer.
    """
    from repro.runtime.backend import resolve_backend

    rank = schedule.rank
    lo, hi = partition.interval(rank)
    n_local = hi - lo
    start, stop = graph.indptr[lo], graph.indptr[hi]
    nbr = graph.indices[start:stop]
    counts = np.diff(graph.indptr[lo : hi + 1]).astype(np.intp)
    if resolve_backend(backend) == "reference":
        from repro.runtime.reference import kernel_slots_loop

        try:
            slots = kernel_slots_loop(nbr, lo, hi, schedule.ghost_globals)
        except ScheduleError as exc:
            raise ScheduleError(f"rank {rank}: {exc}") from None
    else:
        slots = np.empty(nbr.size, dtype=np.intp)
        local_mask = (nbr >= lo) & (nbr < hi)
        slots[local_mask] = nbr[local_mask] - lo
        off = nbr[~local_mask]
        ghost = schedule.ghost_globals
        off_slots = sorted_ghost_slots(ghost, off, n_local)
        if off_slots is None:
            # Request-ordered ghost buffers (simple strategy) are not
            # sorted; fall back to a dictionary translation.
            lookup = {int(g): i for i, g in enumerate(ghost)}
            try:
                off_slots = n_local + np.fromiter(
                    (lookup[int(g)] for g in off),
                    dtype=np.intp,
                    count=off.size,
                )
            except KeyError as exc:
                raise ScheduleError(
                    f"rank {rank}: reference {exc} missing from ghost "
                    "buffer"
                ) from None
        slots[~local_mask] = off_slots
    # An empty interval (a drained or standby rank under elastic
    # membership) has no vertices and therefore no segment starts.
    starts = np.zeros(counts.size, dtype=np.intp)
    if counts.size:
        starts[1:] = np.cumsum(counts[:-1])
    return KernelPlan(
        rank=rank, n_local=n_local, slots=slots, starts=starts, counts=counts
    )
