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
* :func:`move` — the MOVE list-rearrangement primitive (Fig. 7);
* :func:`minimize_cost_redistribution` — the greedy O(p^3) MCR algorithm
  (Fig. 6);
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
    "move",
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


def _segments(
    old: IntervalPartition, new: IntervalPartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementary segments of the list with (old owner, new owner) each.

    Returns (boundaries, old_owner_per_segment, new_owner_per_segment) where
    segment i is [boundaries[i], boundaries[i+1]).
    """
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


def overlap_elements(old: IntervalPartition, new: IntervalPartition) -> int:
    """Elements whose home processor is unchanged (they need not move)."""
    cuts, old_own, new_own = _segments(old, new)
    if old_own.size == 0:
        return 0
    widths = np.diff(cuts)
    return int(widths[old_own == new_own].sum())


def transfer_matrix(
    old: IntervalPartition, new: IntervalPartition
) -> list[Transfer]:
    """All slabs that must move, as (source, dest, lo, hi) transfers.

    Adjacent segments with the same (source, dest) pair are coalesced, so
    the number of transfers equals the number of network messages the
    redistribution generates (paper's second cost factor).
    """
    cuts, old_own, new_own = _segments(old, new)
    transfers: list[Transfer] = []
    for i in range(old_own.size):
        if old_own[i] == new_own[i]:
            continue
        lo, hi = int(cuts[i]), int(cuts[i + 1])
        if (
            transfers
            and transfers[-1].source == old_own[i]
            and transfers[-1].dest == new_own[i]
            and transfers[-1].hi == lo
        ):
            prev = transfers.pop()
            transfers.append(Transfer(prev.source, prev.dest, prev.lo, hi))
        else:
            transfers.append(Transfer(int(old_own[i]), int(new_own[i]), lo, hi))
    return transfers


def message_count(old: IntervalPartition, new: IntervalPartition) -> int:
    """Number of point-to-point messages the redistribution generates."""
    return len(transfer_matrix(old, new))


def redistribution_gain(
    old: IntervalPartition,
    new: IntervalPartition,
    cost_model: RedistributionCostModel = RedistributionCostModel(),
) -> float:
    """The COST function of Fig. 6 (higher is better).

    Rewards kept-in-place elements and penalizes message count:
    ``element_weight * overlap - message_weight * messages``.
    """
    return cost_model.element_weight * overlap_elements(
        old, new
    ) - cost_model.message_weight * message_count(old, new)


def move(arrangement: Sequence[int] | np.ndarray, element: int, location: int) -> np.ndarray:
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
    old_arr = check_permutation(old_arrangement)
    p = old_arr.size
    old_cap = check_probability_vector("old_capabilities", old_capabilities)
    new_cap = check_probability_vector("new_capabilities", new_capabilities)
    if old_cap.size != p or new_cap.size != p:
        raise PartitionError(
            "capability vectors must match the arrangement length"
        )
    if n_elements < 0:
        raise PartitionError(f"n_elements must be >= 0, got {n_elements}")
    old_part = partition_list(n_elements, old_cap, old_arr)

    def gain_of(candidate_arr: np.ndarray) -> float:
        candidate = partition_list(n_elements, new_cap, candidate_arr)
        return redistribution_gain(old_part, candidate, cost_model)

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
    old_arr = check_permutation(old_arrangement)
    p = old_arr.size
    if p > 9:
        raise PartitionError(
            f"brute force over {p}! arrangements is infeasible (p <= 9)"
        )
    old_cap = check_probability_vector("old_capabilities", old_capabilities)
    new_cap = check_probability_vector("new_capabilities", new_capabilities)
    old_part = partition_list(n_elements, old_cap, old_arr)
    best: tuple[float, tuple[int, ...]] | None = None
    for perm in itertools.permutations(range(p)):
        candidate = partition_list(n_elements, new_cap, np.array(perm))
        gain = redistribution_gain(old_part, candidate, cost_model)
        if best is None or gain > best[0]:
            best = (gain, perm)
    assert best is not None
    return np.asarray(best[1], dtype=np.intp), float(best[0])
