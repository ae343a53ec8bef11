"""HPF-style regular distributions and redistribution between them.

Sec. 1 situates the paper against High-Performance Fortran's data
distributions; the era's canonical mechanism (HPF's ``DISTRIBUTE`` /
``REDISTRIBUTE``) moved arrays between BLOCK, CYCLIC and CYCLIC(b) layouts.
This module implements those layouts over the same 1-D element space the
STANCE interval partitions use, plus the transfer-plan computation and an
executor, so the two families can be compared head to head (experiment
``ext_hpf_redistribution``, ``repro bench run ext_hpf_redistribution``):

* a STANCE interval partition *is* a generalized (weighted) BLOCK
  distribution, so remapping between two of them moves only boundary slabs;
* BLOCK <-> CYCLIC is the worst case: almost every element moves and every
  processor pair exchanges a message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import PartitionError
from repro.net.message import Tags

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "HPFDistribution",
    "BlockDistribution",
    "CyclicDistribution",
    "BlockCyclicDistribution",
    "hpf_transfer_summary",
    "redistribute_hpf",
]


@dataclass(frozen=True)
class HPFDistribution:
    """A regular 1-D distribution of ``n`` elements over ``p`` processors."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.p < 1:
            raise PartitionError(
                f"need n >= 0 and p >= 1, got n={self.n} p={self.p}"
            )

    # -- interface -------------------------------------------------------

    def owner_of(self, gi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def global_indices(self, rank: int) -> np.ndarray:
        """All global indices owned by *rank*, in local-index order."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def _check(self, gi: np.ndarray) -> np.ndarray:
        gi = np.asarray(gi, dtype=np.intp)
        if gi.size and (gi.min() < 0 or gi.max() >= self.n):
            raise PartitionError(f"global index out of range [0, {self.n})")
        return gi

    def _check_rank(self, rank: int) -> int:
        if not (0 <= rank < self.p):
            raise PartitionError(f"rank {rank} out of range [0, {self.p})")
        return rank


@dataclass(frozen=True)
class BlockDistribution(HPFDistribution):
    """HPF BLOCK: contiguous chunks of ceil(n/p) elements."""

    @property
    def block(self) -> int:
        return -(-self.n // self.p) if self.n else 1

    def owner_of(self, gi: np.ndarray) -> np.ndarray:
        gi = self._check(gi)
        return np.minimum(gi // self.block, self.p - 1)

    def global_indices(self, rank: int) -> np.ndarray:
        rank = self._check_rank(rank)
        lo = min(rank * self.block, self.n)
        hi = min(lo + self.block, self.n)
        return np.arange(lo, hi, dtype=np.intp)


@dataclass(frozen=True)
class CyclicDistribution(HPFDistribution):
    """HPF CYCLIC: element i lives on processor i mod p."""

    def owner_of(self, gi: np.ndarray) -> np.ndarray:
        return self._check(gi) % self.p

    def global_indices(self, rank: int) -> np.ndarray:
        rank = self._check_rank(rank)
        return np.arange(rank, self.n, self.p, dtype=np.intp)


@dataclass(frozen=True)
class BlockCyclicDistribution(HPFDistribution):
    """HPF CYCLIC(b): blocks of b elements dealt round-robin."""

    b: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.b < 1:
            raise PartitionError(f"block size must be >= 1, got {self.b}")

    def owner_of(self, gi: np.ndarray) -> np.ndarray:
        return (self._check(gi) // self.b) % self.p

    def global_indices(self, rank: int) -> np.ndarray:
        rank = self._check_rank(rank)
        gi = np.arange(self.n, dtype=np.intp)
        return gi[self.owner_of(gi) == rank]


def _compatible(old: HPFDistribution, new: HPFDistribution) -> None:
    if old.n != new.n:
        raise PartitionError(
            f"distributions cover different arrays: {old.n} vs {new.n}"
        )
    if old.p != new.p:
        raise PartitionError(
            f"distributions use different processor counts: {old.p} vs {new.p}"
        )


def hpf_transfer_summary(
    old: HPFDistribution, new: HPFDistribution
) -> dict[str, int]:
    """Moved-element count and message count for old -> new.

    One message per (source, dest) pair that exchanges at least one
    element, matching HPF runtime practice of packing per-destination.
    """
    _compatible(old, new)
    gi = np.arange(old.n, dtype=np.intp)
    src = old.owner_of(gi)
    dst = new.owner_of(gi)
    moved = src != dst
    pairs = np.unique(src[moved] * np.intp(old.p) + dst[moved]).size
    return {
        "moved_elements": int(moved.sum()),
        "messages": int(pairs),
        "stationary_elements": int(old.n - moved.sum()),
    }


def redistribute_hpf(
    ctx: "RankContext",
    old: HPFDistribution,
    new: HPFDistribution,
    local_data: np.ndarray,
) -> np.ndarray:
    """Move this rank's elements from *old* to *new* (SPMD collective).

    Both layouts are closed-form, so every rank derives the full pattern
    locally (no pattern-discovery round — the same property the paper's
    interval list provides for irregular partitions).
    """
    _compatible(old, new)
    local_data = np.asarray(local_data)
    mine_old = old.global_indices(ctx.rank)
    if local_data.shape[0] != mine_old.size:
        raise PartitionError(
            f"rank {ctx.rank}: data has {local_data.shape[0]} elements, old "
            f"distribution assigns {mine_old.size}"
        )
    dst = new.owner_of(mine_old)
    outgoing: dict[int, np.ndarray] = {}
    for d in np.unique(dst):
        d = int(d)
        if d == ctx.rank:
            continue
        sel = dst == d
        # Ship (global index order is implied: both sides enumerate the
        # same sorted set), so only values travel.
        outgoing[d] = np.ascontiguousarray(local_data[sel])

    mine_new = new.global_indices(ctx.rank)
    src = old.owner_of(mine_new)
    recv_from = [int(s) for s in np.unique(src) if s != ctx.rank]
    received = ctx.alltoallv(outgoing, recv_from, tag=Tags.REDISTRIBUTE)

    out = np.empty((mine_new.size,) + local_data.shape[1:],
                   dtype=local_data.dtype)
    # Elements staying local.
    stay_new = src == ctx.rank
    if np.any(stay_new):
        stay_old_pos = np.searchsorted(mine_old, mine_new[stay_new])
        out[stay_new] = local_data[stay_old_pos]
    # Incoming: source s sends its owned elements destined here, in its
    # global order, which equals our global order for the same set.
    for s in recv_from:
        sel = src == s
        payload = np.asarray(received[s])
        if payload.shape[0] != int(sel.sum()):
            raise PartitionError(
                f"rank {ctx.rank}: payload from {s} has {payload.shape[0]} "
                f"elements, expected {int(sel.sum())}"
            )
        out[sel] = payload
    return out
