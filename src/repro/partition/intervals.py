"""Contiguous interval partitions of the one-dimensional list.

After the Sec. 3.1 transformation, "partitioning is equivalent to assigning
contiguous blocks of vertices to each partition.  The size of each block is
proportional to the weight of the partition."  An :class:`IntervalPartition`
is that assignment: ``p`` consecutive blocks of ``[0, n)`` plus the
*arrangement* — which processor owns which block position (Sec. 3.4).

The bounds list doubles as the paper's replicated translation table
(Fig. 3): storing first/last element per processor is all any rank needs to
dereference a global index locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.utils.lazy import lazy_attribute
from repro.utils.validation import check_permutation, check_probability_vector

__all__ = [
    "IntervalPartition",
    "proportional_sizes",
    "partition_list",
]


def proportional_sizes(n: int, capabilities: np.ndarray | Sequence[float]) -> np.ndarray:
    """Split *n* items into blocks proportional to *capabilities*.

    Largest-remainder (Hamilton) apportionment: sizes sum to exactly *n*,
    each within one item of the exact proportional share.  Ties go to the
    lower index, so results are deterministic.
    """
    cap = check_probability_vector("capabilities", capabilities)
    if n < 0:
        raise PartitionError(f"cannot partition {n} items")
    exact = n * cap / cap.sum()
    base = np.floor(exact).astype(np.intp)
    remainder = n - int(base.sum())
    if remainder:
        frac = exact - base
        # argsort ascending on (-frac, index) -> largest fractions first,
        # ties broken toward lower index.
        order = np.lexsort((np.arange(cap.size), -frac))
        base[order[:remainder]] += 1
    return base


@dataclass(frozen=True)
class IntervalPartition:
    """``p`` contiguous blocks of ``[0, n)`` with an owner per block.

    ``bounds`` has length p+1 with ``bounds[0] == 0`` and ``bounds[p] == n``;
    block ``b`` is ``[bounds[b], bounds[b+1])`` and is owned by processor
    ``owners[b]``.  ``owners`` is the paper's *arrangement*: a permutation of
    ``0..p-1``.
    """

    bounds: np.ndarray
    owners: np.ndarray

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.bounds, dtype=np.intp)
        owners = check_permutation(self.owners)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "owners", owners)
        if bounds.ndim != 1 or bounds.size != owners.size + 1:
            raise PartitionError(
                f"bounds length {bounds.size} must be owners length "
                f"{owners.size} + 1"
            )
        if bounds[0] != 0:
            raise PartitionError("bounds must start at 0")
        if np.any(np.diff(bounds) < 0):
            raise PartitionError("bounds must be non-decreasing")

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def num_processors(self) -> int:
        return self.owners.size

    @property
    def num_elements(self) -> int:
        return int(self.bounds[-1])

    @lazy_attribute
    def _block_of_owner(self) -> np.ndarray:
        blk = np.empty(self.num_processors, dtype=np.intp)
        blk[self.owners] = np.arange(self.num_processors, dtype=np.intp)
        return blk

    def block_of(self, rank: int) -> int:
        """Which block position processor *rank* occupies in the arrangement."""
        if not (0 <= rank < self.num_processors):
            raise PartitionError(f"rank {rank} out of range")
        return int(self._block_of_owner[rank])

    def interval(self, rank: int) -> tuple[int, int]:
        """Processor *rank*'s half-open interval [first, last+1) of the list."""
        b = self.block_of(rank)
        return int(self.bounds[b]), int(self.bounds[b + 1])

    def size(self, rank: int) -> int:
        lo, hi = self.interval(rank)
        return hi - lo

    def sizes(self) -> np.ndarray:
        """Elements per processor, indexed by rank."""
        block_sizes = np.diff(self.bounds)
        out = np.empty(self.num_processors, dtype=np.intp)
        out[self.owners] = block_sizes
        return out

    # ------------------------------------------------------------------ #
    # dereferencing (the Fig. 3 translation table)
    # ------------------------------------------------------------------ #

    def owner_of(self, global_index: np.ndarray | int) -> np.ndarray | int:
        """Home processor of one index or an index array (vectorized).

        This is the paper's replicated-list dereference: binary search of
        the bounds, O(log p) per index, no communication.
        """
        gi = np.asarray(global_index, dtype=np.intp)
        scalar = gi.ndim == 0
        gi_arr = np.atleast_1d(gi)
        if gi_arr.size and (gi_arr.min() < 0 or gi_arr.max() >= self.num_elements):
            raise PartitionError(
                f"global index out of range [0, {self.num_elements})"
            )
        block = np.searchsorted(self.bounds, gi_arr, side="right") - 1
        # Indices landing on an empty block's shared boundary resolve to the
        # non-empty block that actually contains them; searchsorted 'right'
        # already guarantees bounds[block] <= gi < bounds[block+1] for
        # non-empty blocks.
        owner = self.owners[block]
        return int(owner[0]) if scalar else owner

    def local_index(self, global_index: np.ndarray | int) -> np.ndarray | int:
        """Offset of a global index within its home processor's interval."""
        gi = np.asarray(global_index, dtype=np.intp)
        scalar = gi.ndim == 0
        gi_arr = np.atleast_1d(gi)
        block = np.searchsorted(self.bounds, gi_arr, side="right") - 1
        local = gi_arr - self.bounds[block]
        return int(local[0]) if scalar else local

    def dereference(
        self, global_index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(home processor, local index) for an array of global indices."""
        gi = np.asarray(global_index, dtype=np.intp)
        if gi.size and (gi.min() < 0 or gi.max() >= self.num_elements):
            raise PartitionError(
                f"global index out of range [0, {self.num_elements})"
            )
        block = np.searchsorted(self.bounds, gi, side="right") - 1
        return self.owners[block], gi - self.bounds[block]

    def to_labels(self) -> np.ndarray:
        """Per-element owner array of length n (for metrics/plotting)."""
        return np.repeat(self.owners, np.diff(self.bounds))

    def first_last(self) -> list[tuple[int, int]]:
        """The replicated translation list: (first, last) per rank, inclusive.

        ``last == first - 1`` marks an empty interval.  Matches the paper's
        Fig. 3 storage ("the first and last elements belonging to every
        processor").
        """
        out = []
        for rank in range(self.num_processors):
            lo, hi = self.interval(rank)
            out.append((lo, hi - 1))
        return out

    def __repr__(self) -> str:
        return (
            f"IntervalPartition(n={self.num_elements}, p={self.num_processors}, "
            f"owners={self.owners.tolist()}, bounds={self.bounds.tolist()})"
        )


def partition_list(
    n: int,
    capabilities: np.ndarray | Sequence[float],
    arrangement: np.ndarray | Sequence[int] | None = None,
) -> IntervalPartition:
    """Partition ``[0, n)`` proportionally to *capabilities* under an
    *arrangement* (paper Sec. 3.4).

    ``arrangement[b]`` is the processor occupying block position ``b``; the
    default is the identity arrangement (P0, P1, ..., Pp-1).  Block ``b``'s
    size is proportional to the capability of the processor placed there.
    """
    cap = check_probability_vector("capabilities", capabilities)
    p = cap.size
    if arrangement is None:
        arrangement = np.arange(p, dtype=np.intp)
    owners = check_permutation(arrangement, p)
    block_caps = cap[owners]
    sizes = proportional_sizes(n, block_caps)
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
    return IntervalPartition(bounds=bounds, owners=owners)
