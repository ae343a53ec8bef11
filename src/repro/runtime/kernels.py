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

import threading
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ConfigurationError, ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.schedule import CommSchedule
from repro.utils.lazy import lazy_attribute

__all__ = [
    "KernelCostModel",
    "KernelPlan",
    "RowOperator",
    "build_kernel_plan",
    "index_type",
    "sorted_ghost_slots",
    "run_sequential",
    "translate_local",
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


_INT32_MAX = np.iinfo(np.int32).max


def index_type(*sizes: int) -> type:
    """scipy's own narrowing rule: ``int32`` when every size fits it,
    else ``intp``.  int32 arrays reach ``csr_matvec`` as they are,
    without a scan of their contents or a copy."""
    return np.int32 if max(sizes, default=0) <= _INT32_MAX else np.intp


_ones = np.ones(0)
_ones.flags.writeable = False
_ones_lock = threading.Lock()


def _shared_ones(n: int) -> np.ndarray:
    """A read-only view of *n* ones into one vector every
    :class:`RowOperator` of the process shares: the matrices differ only
    in their index arrays."""
    global _ones
    with _ones_lock:
        if _ones.size < n:
            _ones = np.ones(n)
            _ones.flags.writeable = False
        return _ones[:n]


class RowOperator:
    """Row-wise means through one CSR matrix of ones.

    Row ``i`` reads ``values[index[k]]`` for ``k`` in
    ``indptr[i]:indptr[i + 1]``.  *index* must lie in ``[0, n_cols)``:
    scipy's ``csr_matvec`` reads without bounds checks, so the caller
    checks once, where it builds the operator.

    The matrix holds the rows grouped by length (a stable sort on
    ``min(length, 255)``), each row's references still in their order,
    so the product's inner loop runs the same trip count row after row
    instead of changing it at every row; one ``take`` of ``inverse``
    puts the results back in row order.

    ``csr_matvec`` adds each row's products in array order, starting from
    the zeroed output, and ``1.0 * x`` is exact, so every row sum is the
    Fig. 8 loop's ``t[i] += y[ia(k)]`` bit for bit, even in an
    FMA-contracted build: −0.0, infinities and a NaN's payload included.
    (Where two *different* NaNs meet in one add, IEEE 754 leaves the
    survivor to the implementation.)  Which row is computed when changes
    no row's sum.  A sweep is one matrix-vector product, a divide and a
    ``take``, however many rows are hubs: three GIL hand-offs.

    The matrix's data is a view of one read-only vector of ones shared
    by every operator (``csr_matvec`` only reads it), so the operator
    holds 4 bytes per reference where its index type is int32.
    """

    __slots__ = ("matrix", "divisor", "inverse", "empty")

    def __init__(self, indptr: np.ndarray, index: np.ndarray, n_cols: int) -> None:
        n_rows, nnz = indptr.size - 1, index.size
        itype = index_type(n_rows, n_cols, nnz)
        degrees = indptr[1:] - indptr[:-1]
        # uint8 keys take numpy's radix sort; rows of 255 or more
        # references share the last group, in row order.
        order = np.minimum(degrees, 255).astype(np.uint8).argsort(kind="stable")
        lengths = degrees.take(order)
        grouped = np.zeros(n_rows + 1, dtype=itype)
        lengths.cumsum(out=grouped[1:])
        # Where each grouped reference sits in *index*: its row's start
        # there plus its offset inside the row, in the index type.
        at = (indptr[:-1].take(order) - grouped[:-1]).astype(itype).repeat(lengths)
        at += np.arange(nnz, dtype=itype)
        columns = index.take(at)
        # Freed before the cast: the sim world's rank threads build at
        # once, and their temporaries set its peak.
        del at
        # A plan's slots already have the index type: no copy.
        columns = columns.astype(itype, copy=False)
        # Filled in after construction: the constructor copies a view
        # smaller than half its base ("prune"), as most views of the
        # shared ones are.
        self.matrix = csr_matrix((n_rows, n_cols))
        self.matrix.indptr, self.matrix.indices = grouped, columns
        self.matrix.data = _shared_ones(nnz)
        #: Float reference counts in grouped order (empty rows divide by 1).
        self.divisor = np.maximum(lengths, 1.0)
        #: Each row's position in the grouped order.
        self.inverse = np.empty(n_rows, dtype=np.intp)
        self.inverse[order] = np.arange(n_rows)
        # Empty rows sort first, in row order.
        n_empty = n_rows - np.count_nonzero(degrees)
        #: Rows without references (``None`` when every row has one).
        self.empty = order[:n_empty].copy() if n_empty else None

    def means(self, values: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Per-row mean of the referenced *values*; empty rows take their
        value in *keep*."""
        t = self.matrix @ values
        np.divide(t, self.divisor, out=t)
        t = t.take(self.inverse)
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
    the parallel runs and the T(p_i) baseline of the Sec. 4 efficiency).
    Zero iterations return a copy of *y0*."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
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
    address translation.  ``slots`` has the dtype
    ``index_type(n_local + n_ghost)``: int32 unless the buffer outgrows it.
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
        """Field for field, the arrays element for element, the slots'
        dtype too (``np.array_equal`` ignores it)."""
        if not isinstance(other, KernelPlan):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.n_local == other.n_local
            and self.n_ghost == other.n_ghost
            and self.slots.dtype == other.slots.dtype
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


def translate_local(out: np.ndarray, nbr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Write ``nbr - lo`` into *out*: the slot of every reference into the
    local block ``[lo, hi)``.  Returns the positions of the other
    references, whose entries in *out* the caller overwrites."""
    np.subtract(nbr, lo, out=out, casting="unsafe")
    return np.flatnonzero((nbr < lo) | (nbr >= hi))


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
    slots = np.empty(nbr.size, dtype=index_type(n_local + schedule.ghost_size))
    off_at = translate_local(slots, nbr, lo, hi)
    off = nbr[off_at]
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
    slots[off_at] = off_slots
    return KernelPlan(
        rank=rank,
        n_local=n_local,
        n_ghost=schedule.ghost_size,
        slots=slots,
        indptr=indptr,
    )
