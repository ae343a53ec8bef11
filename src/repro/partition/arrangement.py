"""Arrangement optimization: MinimizeCostRedistribution (paper Sec. 3.4).

When capabilities adapt, the list must be re-split.  Any of the p!
*arrangements* (orders of processors along the list) gives a valid
proportional split, but they differ wildly in how much data crosses the
network: the paper's example (Fig. 5) keeps 29/100 elements in place under
the original arrangement and 65/100 under a better one, with 5 vs 3
messages.

This module implements:

* :func:`overlap_elements` / :func:`transfer_matrix` — exact data-movement
  accounting between two interval partitions;
* :func:`minimize_cost_redistribution` — the greedy O(p^3) MCR algorithm
  (Fig. 6), which scores every MOVE (Fig. 7) of a processor in one batch;
* :func:`brute_force_arrangement` — exhaustive optimum for small p (the
  "trying out all cases is feasible only for a small number of processors"
  baseline).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.partition.intervals import IntervalPartition, partition_list
from repro.utils.validation import check_permutation, check_probability_vector

__all__ = [
    "RedistributionCostModel",
    "Transfer",
    "overlap_elements",
    "transfer_matrix",
    "message_count",
    "redistribution_gain",
    "minimize_cost_redistribution",
    "brute_force_arrangement",
]


@dataclass(frozen=True)
class RedistributionCostModel:
    """Weights for the two factors of Sec. 3.4.

    "The two factors contributing to data redistribution time are the
    amount of data to be transferred and the number of messages generated."
    ``message_weight`` expresses one message's fixed cost in units of
    per-element transfer cost (latency/bandwidth trade-off); 0 reproduces a
    pure max-overlap objective.
    """

    element_weight: float = 1.0
    message_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.element_weight < 0 or self.message_weight < 0:
            raise PartitionError("cost-model weights must be non-negative")

    @classmethod
    def from_network(cls, network: object, element_nbytes: int) -> "RedistributionCostModel":
        """Derive weights from a network model's actual cost parameters.

        One element costs its serialization time; one message costs the
        fixed overhead + latency.  Any object with ``latency``,
        ``bandwidth`` and ``per_message_overhead`` attributes works.
        """
        bandwidth = float(getattr(network, "bandwidth"))
        latency = float(getattr(network, "latency"))
        overhead = float(getattr(network, "per_message_overhead", 0.0))
        elem = element_nbytes / bandwidth
        return cls(element_weight=elem, message_weight=latency + overhead)


@dataclass(frozen=True)
class Transfer:
    """One contiguous slab of the 1-D list moving between processors."""

    source: int
    dest: int
    lo: int
    hi: int  # half-open

    @property
    def count(self) -> int:
        return self.hi - self.lo


def _check_same_list(old: IntervalPartition, new: IntervalPartition) -> None:
    if old.num_elements != new.num_elements:
        raise PartitionError(
            f"partitions cover different lists: {old.num_elements} vs "
            f"{new.num_elements} elements"
        )
    if old.num_processors != new.num_processors:
        raise PartitionError(
            f"partitions have different processor counts: "
            f"{old.num_processors} vs {new.num_processors}"
        )


def _row_bounds(n: int, capabilities: np.ndarray, arrangements: np.ndarray) -> np.ndarray:
    """Bounds of ``partition_list(n, capabilities, row)`` for every row.

    *arrangements* is (k, p); the result is (k, p + 1).  Each row takes the
    floating-point steps of :func:`proportional_sizes` in the same order —
    the row's own capability sum included, which may differ in the last
    bit between two orders of the same values — so the sizes are
    ``array_equal``, not merely close.
    """
    caps = capabilities[arrangements]  # C-contiguous: sum(axis=1) is the 1-D sum per row
    exact = n * caps / caps.sum(axis=1, keepdims=True)
    sizes = np.floor(exact).astype(np.intp)
    remainder = n - sizes.sum(axis=1)
    # Largest remainder, ties to the lower block: a block gets one more
    # item when its rank under a stable descending sort of the fractional
    # parts is below the row's remainder.
    order = np.argsort(-(exact - sizes), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[1])[None, :], axis=1)
    sizes += rank < remainder[:, None]
    bounds = np.zeros((sizes.shape[0], sizes.shape[1] + 1), dtype=np.intp)
    np.cumsum(sizes, axis=1, out=bounds[:, 1:])
    return bounds


def _score_rows(
    old_bounds: np.ndarray,
    old_owners: np.ndarray,
    new_bounds: np.ndarray,
    new_owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(kept elements, messages) of redistributing *old* to each new row.

    *old_bounds* (p + 1) and *old_owners* (p) are one partition;
    *new_bounds* (k, p + 1) and *new_owners* (k, p) are k candidates over
    the same list.  Both results are exact integers of length k.

    The 2p + 2 cuts of a row, sorted, delimit its elementary segments.
    Left of a segment of positive width lie all cuts equal to its left
    end, so its block in either partition is a running count of that
    partition's cuts.  Two adjacent live segments always differ in old or
    in new owner (the cut between them is a bound of one of the two, and
    owners are permutations), hence every live segment whose owners differ
    is one message.
    """
    k, p = new_owners.shape
    cuts = np.concatenate(
        [np.broadcast_to(old_bounds, (k, p + 1)), new_bounds], axis=1
    )
    order = np.argsort(cuts, axis=1, kind="stable")
    cuts = np.take_along_axis(cuts, order, axis=1)
    widths = np.diff(cuts, axis=1)
    new_block = np.cumsum(order[:, :-1] > p, axis=1) - 1
    old_block = np.arange(2 * p + 1) - new_block - 1
    # Blocks of zero-width segments may read p; they are masked by width.
    np.minimum(new_block, p - 1, out=new_block)
    np.minimum(old_block, p - 1, out=old_block)
    same = old_owners[old_block] == np.take_along_axis(new_owners, new_block, axis=1)
    overlap = (widths * same).sum(axis=1)
    messages = ((widths > 0) & ~same).sum(axis=1)
    return overlap, messages


def _row_gains(
    old: IntervalPartition,
    new_capabilities: np.ndarray,
    arrangements: np.ndarray,
    cost_model: RedistributionCostModel,
) -> np.ndarray:
    """COST (Fig. 6) of every row of *arrangements* under *new_capabilities*."""
    overlap, messages = _score_rows(
        old.bounds,
        old.owners,
        _row_bounds(old.num_elements, new_capabilities, arrangements),
        arrangements,
    )
    return cost_model.element_weight * overlap - cost_model.message_weight * messages


def _score_pair(old: IntervalPartition, new: IntervalPartition) -> tuple[int, int]:
    _check_same_list(old, new)
    overlap, messages = _score_rows(
        old.bounds, old.owners, new.bounds[None, :], new.owners[None, :]
    )
    return int(overlap[0]), int(messages[0])


def overlap_elements(old: IntervalPartition, new: IntervalPartition) -> int:
    """Elements whose home processor is unchanged (they need not move)."""
    return _score_pair(old, new)[0]


def transfer_matrix(
    old: IntervalPartition, new: IntervalPartition
) -> list[Transfer]:
    """All slabs that must move, as (source, dest, lo, hi) transfers.

    One transfer per elementary segment whose owner changes: two adjacent
    segments never share both source and dest, so the number of transfers
    equals the number of network messages the redistribution generates
    (paper's second cost factor).
    """
    _check_same_list(old, new)
    cuts = np.union1d(old.bounds, new.bounds)
    lo, hi = cuts[:-1], cuts[1:]
    source = old.owners[np.searchsorted(old.bounds, lo, side="right") - 1]
    dest = new.owners[np.searchsorted(new.bounds, lo, side="right") - 1]
    moving = np.flatnonzero(source != dest)
    return [
        Transfer(int(source[i]), int(dest[i]), int(lo[i]), int(hi[i]))
        for i in moving
    ]


def message_count(old: IntervalPartition, new: IntervalPartition) -> int:
    """Number of point-to-point messages the redistribution generates."""
    return _score_pair(old, new)[1]


def redistribution_gain(
    old: IntervalPartition,
    new: IntervalPartition,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> float:
    """The COST function of Fig. 6 (higher is better).

    Rewards kept-in-place elements and penalizes message count:
    ``element_weight * overlap - message_weight * messages``.
    """
    overlap, messages = _score_pair(old, new)
    return cost_model.element_weight * overlap - cost_model.message_weight * messages


def _validated_instance(
    old_arrangement: Sequence[int] | np.ndarray,
    old_capabilities: Sequence[float] | np.ndarray,
    new_capabilities: Sequence[float] | np.ndarray,
    n_elements: int,
) -> tuple[IntervalPartition, np.ndarray]:
    """(old partition, new capability vector) of one rearrangement problem."""
    old_arr = check_permutation(old_arrangement)
    old_cap = check_probability_vector("old_capabilities", old_capabilities)
    new_cap = check_probability_vector("new_capabilities", new_capabilities)
    if old_cap.size != old_arr.size or new_cap.size != old_arr.size:
        raise PartitionError(
            "capability vectors must match the arrangement length"
        )
    if n_elements < 0:
        raise PartitionError(f"n_elements must be >= 0, got {n_elements}")
    return partition_list(n_elements, old_cap, old_arr), new_cap


def minimize_cost_redistribution(
    old_arrangement: Sequence[int] | np.ndarray,
    old_capabilities: Sequence[float] | np.ndarray,
    new_capabilities: Sequence[float] | np.ndarray,
    n_elements: int,
    *,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> np.ndarray:
    """The MCR greedy algorithm (paper Fig. 6), O(p^3).

    Starting from the old arrangement, each processor ``LIST[i]`` in turn is
    tried at every location ``j`` of the working arrangement; it is left at
    the location maximizing the COST (gain) of redistributing from the old
    partition (old arrangement + old capabilities) to the candidate
    partition (candidate arrangement + new capabilities).  Ties keep the
    element at its current location (no gratuitous moves) — with this
    tie-break the greedy recovers the paper's Fig. 5 arrangement
    (P0, P3, P1, P2, P4) on the paper's example.

    Returns the chosen new arrangement.  The resulting partition is obtained
    with ``partition_list(n, new_capabilities, arrangement)``.
    """
    old_part, new_cap = _validated_instance(
        old_arrangement, old_capabilities, new_capabilities, n_elements
    )
    old_arr = old_part.owners
    p = old_arr.size
    list_out = old_arr.copy()
    cols = np.arange(p)
    rows = cols[:, None]
    for element in old_arr:
        current = int(np.flatnonzero(list_out == element)[0])
        # Row j is MOVE(list_out, element, j): the locations between
        # current and j shift one step toward current.
        shift = ((cols >= current) & (cols < rows)).astype(np.intp)
        shift -= (cols > rows) & (cols <= current)
        candidates = list_out[cols + shift]
        candidates[cols, cols] = element
        gains = _row_gains(old_part, new_cap, candidates, cost_model)
        # Strictly greater moves, ties stay; among better locations the
        # lowest wins.
        best_j = int(np.argmax(gains))
        if gains[best_j] > gains[current]:
            list_out = candidates[best_j]
    return list_out


#: Permutations :func:`brute_force_arrangement` scores per batch; 9! rows
#: at once would sort a 362,880 x 20 matrix of cuts.
_BRUTE_FORCE_CHUNK = 4096


def brute_force_arrangement(
    old_arrangement: Sequence[int] | np.ndarray,
    old_capabilities: Sequence[float] | np.ndarray,
    new_capabilities: Sequence[float] | np.ndarray,
    n_elements: int,
    *,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> tuple[np.ndarray, float]:
    """Exhaustive search over all p! arrangements (small p only).

    Returns (best arrangement, its gain).  Used to measure the MCR greedy's
    optimality gap (experiment ``ablation_mcr_optimality``).
    """
    old_part, new_cap = _validated_instance(
        old_arrangement, old_capabilities, new_capabilities, n_elements
    )
    p = old_part.num_processors
    if p > 9:
        raise PartitionError(
            f"brute force over {p}! arrangements is infeasible (p <= 9)"
        )
    best_gain, best_perm = -np.inf, None
    perms = itertools.permutations(range(p))
    while chunk := list(itertools.islice(perms, _BRUTE_FORCE_CHUNK)):
        rows = np.array(chunk, dtype=np.intp)
        gains = _row_gains(old_part, new_cap, rows, cost_model)
        top = int(np.argmax(gains))  # first maximum of the chunk
        if gains[top] > best_gain:
            best_gain, best_perm = float(gains[top]), rows[top]
    assert best_perm is not None
    return best_perm, best_gain
