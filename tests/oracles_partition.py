"""Reference implementations the array versions in ``repro.partition`` replaced.

**Bisection orderings.**  The one-box-at-a-time bodies that
``repro.partition.rcb`` and ``repro.partition.inertial`` shipped before the
level-synchronous driver (``repro.partition.bisection``) replaced them.
``rcb_order`` must reproduce ``rcb_order_oracle``'s permutation exactly
whenever the ``coords + jitter`` keys are distinct, and ``inertial_order``
is held to ``inertial_order_oracle``'s partition quality.  One Python step
per tree node — do not call these on meshes much beyond 30k vertices.
``principal_axis`` runs the shipped per-box axis solver on one box so it
can be compared with ``principal_axis_oracle``.

**Arrangements (Sec. 3.4).**  ``mcr_oracle`` and ``brute_force_oracle`` are
the bodies ``minimize_cost_redistribution`` and ``brute_force_arrangement``
shipped before the batch row scorer: one validated ``IntervalPartition``
per candidate arrangement, scored by ``gain_oracle`` — ``union1d`` segments
walked twice, the second time through a Python loop that coalesces adjacent
slabs, over candidates built one at a time by ``move`` (Fig. 7's MOVE).
The shipped functions must return exactly what these return.

**Hilbert keys.**  ``hilbert_keys_2d_oracle`` is the one-bit-per-step
rotation walk that the table-driven ``hilbert_keys_2d`` replaced; keys must
be ``array_equal`` for every ``bits``.

**Lattice snapping.**  ``quantize_coords_oracle`` is the whole-array body
``quantize_coords`` shipped before it reduced and scaled one column at a
time; the lattice points must be ``array_equal``.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.graph.csr import CSRGraph
from repro.errors import PartitionError
from repro.partition.arrangement import RedistributionCostModel
from repro.partition.inertial import _principal_axes
from repro.partition.intervals import IntervalPartition, partition_list
from repro.partition.sfc import quantize_coords
from repro.utils.rng import as_generator

__all__ = [
    "rcb_order_oracle",
    "inertial_order_oracle",
    "principal_axis",
    "principal_axis_oracle",
    "segments_oracle",
    "overlap_oracle",
    "messages_oracle",
    "gain_oracle",
    "move",
    "mcr_oracle",
    "brute_force_oracle",
    "hilbert_keys_2d_oracle",
    "quantize_coords_oracle",
]


def _jitter(coords: np.ndarray, n: int) -> np.ndarray:
    rng = as_generator(0)
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    return rng.uniform(-1e-9, 1e-9, size=n) * scale


def _split_axis(coords: np.ndarray, idx: np.ndarray) -> int:
    """Choose the axis to split: the widest extent."""
    sub = coords[idx]
    extents = sub.max(axis=0) - sub.min(axis=0)
    return int(np.argmax(extents))


def _median_split(
    coords: np.ndarray,
    idx: np.ndarray,
    axis: int,
    jitter: np.ndarray,
    stable_ties: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Split *idx* at the median of coordinate *axis*, sizes n//2 / n-n//2."""
    keys = coords[idx, axis] + jitter[idx]
    half = idx.size // 2
    if stable_ties:
        part = np.lexsort((idx, keys))
    else:
        part = np.argpartition(keys, half - 1) if half > 0 else np.arange(idx.size)
    return idx[part[:half]], idx[part[half:]]


def rcb_order_oracle(graph: CSRGraph, *, stable_ties: bool = False) -> np.ndarray:
    """RCB visit order, one explicit-stack step per box.

    The shipped body left equal keys to ``argpartition``'s introselect;
    ``stable_ties=True`` states the rule ``rcb_order`` now guarantees —
    equal keys split by vertex id — so tie-heavy inputs have an oracle too.
    """
    coords = graph.coords
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    jitter = _jitter(coords, n)
    order = np.empty(n, dtype=np.intp)
    out = 0
    # Children pushed hi-first so the lo side is emitted first.
    stack: list[tuple[np.ndarray, int]] = [(np.arange(n, dtype=np.intp), 0)]
    while stack:
        idx, depth = stack.pop()
        if idx.size <= 1:
            order[out : out + idx.size] = idx
            out += idx.size
            continue
        axis = _split_axis(coords, idx)
        lo, hi = _median_split(coords, idx, axis, jitter, stable_ties)
        stack.append((hi, depth + 1))
        stack.append((lo, depth + 1))
    assert out == n
    return order


def principal_axis(points: np.ndarray) -> np.ndarray:
    """The shipped per-box solver on one box of *points*."""
    points = np.asarray(points, dtype=np.float64)
    return _principal_axes(list(points.T), np.zeros(1, dtype=np.intp))[0]


def principal_axis_oracle(points: np.ndarray) -> np.ndarray:
    """Unit vector of maximum spread; x axis for degenerate point sets."""
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered
    if not np.all(np.isfinite(cov)) or np.allclose(cov, 0):
        axis = np.zeros(points.shape[1])
        axis[0] = 1.0
        return axis
    _, eigvecs = np.linalg.eigh(cov)
    axis = eigvecs[:, -1]
    lead = np.flatnonzero(np.abs(axis) > 1e-12)
    if lead.size and axis[lead[0]] < 0:
        axis = -axis
    return axis


def inertial_order_oracle(graph: CSRGraph) -> np.ndarray:
    """Inertial bisection visit order, one explicit-stack step per box."""
    coords = graph.coords
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    jitter = _jitter(coords, n)
    order = np.empty(n, dtype=np.intp)
    out = 0
    stack: list[np.ndarray] = [np.arange(n, dtype=np.intp)]
    while stack:
        idx = stack.pop()
        if idx.size <= 2:
            # Tiny boxes are ordered by their x projection.
            if idx.size == 2:
                keys = coords[idx, 0] + jitter[idx]
                idx = idx[np.argsort(keys)]
            order[out : out + idx.size] = idx
            out += idx.size
            continue
        axis = principal_axis_oracle(coords[idx])
        keys = coords[idx] @ axis + jitter[idx]
        half = idx.size // 2
        part = np.argpartition(keys, half - 1)
        stack.append(idx[part[half:]])
        stack.append(idx[part[:half]])
    assert out == n
    return order


def segments_oracle(
    old: IntervalPartition, new: IntervalPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(boundaries, old owner, new owner) of the non-empty elementary segments."""
    cuts = np.union1d(old.bounds, new.bounds)
    if cuts.size < 2:
        return cuts, np.empty(0, np.intp), np.empty(0, np.intp)
    mids = cuts[:-1]  # left endpoint identifies each non-empty segment
    widths = np.diff(cuts)
    keep = widths > 0
    mids = mids[keep]
    cuts = np.concatenate([mids, [cuts[-1]]])
    old_block = np.searchsorted(old.bounds, mids, side="right") - 1
    new_block = np.searchsorted(new.bounds, mids, side="right") - 1
    return cuts, old.owners[old_block], new.owners[new_block]


def overlap_oracle(old: IntervalPartition, new: IntervalPartition) -> int:
    cuts, old_own, new_own = segments_oracle(old, new)
    if old_own.size == 0:
        return 0
    widths = np.diff(cuts)
    return int(widths[old_own == new_own].sum())


def messages_oracle(old: IntervalPartition, new: IntervalPartition) -> int:
    """Moving slabs, adjacent ones with the same (source, dest) coalesced."""
    cuts, old_own, new_own = segments_oracle(old, new)
    slabs: list[tuple[int, int, int]] = []  # (source, dest, hi)
    for i in range(old_own.size):
        if old_own[i] == new_own[i]:
            continue
        lo, hi = int(cuts[i]), int(cuts[i + 1])
        source, dest = int(old_own[i]), int(new_own[i])
        if slabs and slabs[-1] == (source, dest, lo):
            slabs[-1] = (source, dest, hi)
        else:
            slabs.append((source, dest, hi))
    return len(slabs)


def gain_oracle(
    old: IntervalPartition,
    new: IntervalPartition,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> float:
    return cost_model.element_weight * overlap_oracle(
        old, new
    ) - cost_model.message_weight * messages_oracle(old, new)


def move(arrangement, element: int, location: int) -> np.ndarray:
    """The MOVE primitive (paper Fig. 7).

    Relocate *element* (a processor id currently somewhere in the
    arrangement) to index *location*, shifting the intervening elements.
    The paper's example: ``MOVE([1,3,5,4,6], 5, 0) == [5,1,3,4,6]``.
    """
    arr = list(np.asarray(arrangement, dtype=np.intp))
    try:
        x = arr.index(element)
    except ValueError:
        raise PartitionError(
            f"element {element} not present in arrangement {arr}"
        ) from None
    if not (0 <= location < len(arr)):
        raise PartitionError(
            f"location {location} out of range for arrangement of size {len(arr)}"
        )
    arr.pop(x)
    arr.insert(location, element)
    return np.asarray(arr, dtype=np.intp)


def mcr_oracle(
    old_arrangement,
    old_capabilities,
    new_capabilities,
    n_elements: int,
    *,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> np.ndarray:
    """The MCR greedy (Fig. 6), one ``partition_list`` per candidate."""
    old_arr = np.asarray(old_arrangement, dtype=np.intp)
    p = old_arr.size
    old_part = partition_list(n_elements, old_capabilities, old_arr)

    def gain_of(candidate_arr: np.ndarray) -> float:
        candidate = partition_list(n_elements, new_capabilities, candidate_arr)
        return gain_oracle(old_part, candidate, cost_model)

    list_out = old_arr.copy()
    for i in range(p):
        element = int(old_arr[i])
        current = int(np.flatnonzero(list_out == element)[0])
        best_j = current
        best_gain = gain_of(list_out)
        for j in range(p):
            if j == current:
                continue
            gain = gain_of(move(list_out, element, j))
            if gain > best_gain:
                best_gain = gain
                best_j = j
        if best_j != current:
            list_out = move(list_out, element, best_j)
    return list_out


def brute_force_oracle(
    old_arrangement,
    old_capabilities,
    new_capabilities,
    n_elements: int,
    *,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> tuple[np.ndarray, float]:
    """Exhaustive optimum, one ``partition_list`` per permutation."""
    old_arr = np.asarray(old_arrangement, dtype=np.intp)
    p = old_arr.size
    old_part = partition_list(n_elements, old_capabilities, old_arr)
    best: tuple[float, tuple[int, ...]] | None = None
    for perm in itertools.permutations(range(p)):
        candidate = partition_list(n_elements, new_capabilities, np.array(perm))
        gain = gain_oracle(old_part, candidate, cost_model)
        if best is None or gain > best[0]:
            best = (gain, perm)
    assert best is not None
    return np.asarray(best[1], dtype=np.intp), float(best[0])


def hilbert_keys_2d_oracle(coords: np.ndarray, *, bits: int = 16) -> np.ndarray:
    """2-D Hilbert keys by the Lam-Shapiro rotation walk, one bit per step."""
    q = quantize_coords(coords, bits)
    x = q[:, 0].astype(np.int64)
    y = q[:, 1].astype(np.int64)
    d = np.zeros(x.shape[0], dtype=np.int64)
    s = np.int64(1) << np.int64(bits - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant (vectorized over all points).
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x_new = np.where(swap, y_f, x_f)
        y_new = np.where(swap, x_f, y_f)
        x, y = x_new, y_new
        s >>= 1
    return d.astype(np.uint64)


def quantize_coords_oracle(coords: np.ndarray, bits: int) -> np.ndarray:
    """Snap coordinates to [0, 2^bits) with axis-0 reductions over the array."""
    lo = coords.min(axis=0)
    span = coords.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    scale = (2**bits - 1) / span
    q = np.floor((coords - lo) * scale + 0.5).astype(np.uint64)
    return np.minimum(q, np.uint64(2**bits - 1))
