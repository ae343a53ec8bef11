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
buffer).  Both apply one kernel, :class:`RowOperator`: a CSR matrix of
ones whose product accumulates each row's references in array order
starting from 0.0 — exactly the loop's ``t[i] += y[ia(k)]`` — so the
vectorized sweeps are bit-identical to the literal transcription of
Fig. 8 over a plan, not merely close to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.schedule import CommSchedule
from repro.utils.lazy import lazy_attribute

__all__ = [
    "KernelCostModel",
    "KernelPlan",
    "RowOperator",
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


class RowOperator:
    """Row-wise sums and means through one CSR matrix of ones.

    Row ``i`` reads ``values[index[k]]`` for ``k`` in
    ``indptr[i]:indptr[i + 1]``.  *index* must lie in ``[0, n_cols)``:
    scipy's ``csr_matvec`` reads without bounds checks, so the caller
    checks once, where it builds the operator.

    ``csr_matvec`` adds each row's products in array order, starting from
    the zeroed output, and ``1.0 * x`` is exact, so every row sum is the
    Fig. 8 loop's ``t[i] += y[ia(k)]`` bit for bit, even in an
    FMA-contracted build: −0.0, infinities and a NaN's payload included.
    (Where two *different* NaNs meet in one add, IEEE 754 leaves the
    survivor to the implementation.)  A sweep is one matrix-vector
    product, so it releases and retakes the GIL once, however many rows
    are hubs.
    """

    __slots__ = ("matrix", "divisor", "empty")

    def __init__(self, indptr: np.ndarray, index: np.ndarray, n_cols: int) -> None:
        degrees = np.diff(indptr)
        self.matrix = csr_matrix(
            (np.ones(index.size), index, indptr), shape=(degrees.size, n_cols)
        )
        #: Float reference counts (empty rows divide by 1).
        self.divisor = np.maximum(degrees, 1.0)
        empty = np.flatnonzero(degrees == 0)
        #: Rows without references (``None`` when every row has one).
        self.empty = empty if empty.size else None

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row sum of the referenced *values*; empty rows get 0."""
        return self.matrix @ values

    def means(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Per-row mean of the referenced *values*; empty rows take their
        value in *keep*."""
        t = self.matrix @ values
        np.divide(t, self.divisor, out=t)
        if self.empty is not None:
            t[self.empty] = keep[self.empty]
        return t


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
    rows = RowOperator(graph.indptr, graph.indices, graph.num_vertices)
    for _ in range(iterations):
        y = rows.means(y, y)
    return y


@dataclass(frozen=True, eq=False)
class KernelPlan:
    """Per-rank compiled kernel: translated addresses, ready to sweep.

    ``slots`` indexes the combined ``[local | ghost]`` value buffer of
    ``n_local + n_ghost`` values; ``indptr`` delimits each owned vertex's
    neighbor segment in it — the executor-phase output of the paper's
    address translation.
    """

    rank: int
    n_local: int
    n_ghost: int
    slots: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        # The row operator reads without bounds checks: a plan that
        # passes here cannot make a sweep read outside its buffers.
        rows, slots = self.indptr, self.slots
        if (
            rows.shape != (self.n_local + 1,)
            or rows[0] != 0
            or rows[-1] != slots.size
            or (rows[1:] < rows[:-1]).any()
        ):
            raise ScheduleError(
                f"rank {self.rank}: indptr does not delimit {slots.size} "
                f"references over {self.n_local} vertices"
            )
        width = self.n_local + self.n_ghost
        if slots.size and (slots.min() < 0 or slots.max() >= width):
            raise ScheduleError(
                f"rank {self.rank}: slots must lie in [0, {width}), got "
                f"[{slots.min()}, {slots.max()}]"
            )

    def __eq__(self, other: object) -> bool:
        """Field for field, the arrays element for element."""
        if not isinstance(other, KernelPlan):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.n_local == other.n_local
            and self.n_ghost == other.n_ghost
            and np.array_equal(self.slots, other.slots)
            and np.array_equal(self.indptr, other.indptr)
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def n_references(self) -> int:
        return int(self.slots.size)

    @lazy_attribute
    def rows(self) -> RowOperator:
        """The plan's row operator, built on first use and kept for its
        lifetime: no sweep repeats plan-only work."""
        return RowOperator(self.indptr, self.slots, self.n_local + self.n_ghost)

    def sweep(self, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        """One vectorized kernel sweep over this rank's vertices."""
        if local_y.shape != (self.n_local,):
            # A longer block would silently read slots >= n_local from
            # its own tail instead of the ghost buffer.
            raise ScheduleError(
                f"rank {self.rank}: local data has shape {local_y.shape}, "
                f"plan covers {self.n_local} vertices"
            )
        if ghost.shape != (self.n_ghost,):
            raise ScheduleError(
                f"rank {self.rank}: ghost buffer has shape {ghost.shape}, "
                f"plan reads {self.n_ghost} ghosts"
            )
        combined = np.concatenate([local_y, ghost]) if ghost.size else local_y
        return self.rows.means(combined, local_y)


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
) -> KernelPlan:
    """Translate the global Fig. 8 indirection into local+ghost slots.

    The address translation of Sec. 2 item 4: local neighbors become
    offsets into the local block; off-processor neighbors become
    ``n_local + position`` in the (sorted or request-ordered) ghost buffer.
    """
    rank = schedule.rank
    lo, hi = partition.interval(rank)
    n_local = hi - lo
    indptr = graph.indptr[lo : hi + 1] - graph.indptr[lo]
    nbr = graph.indices[graph.indptr[lo] : graph.indptr[hi]]
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
                f"rank {rank}: reference {exc} missing from ghost buffer"
            ) from None
    slots[~local_mask] = off_slots
    return KernelPlan(
        rank=rank,
        n_local=n_local,
        n_ghost=schedule.ghost_size,
        slots=slots,
        indptr=indptr,
    )
