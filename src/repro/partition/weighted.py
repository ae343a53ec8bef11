"""Weighted contiguous partitioning of the one-dimensional list.

Sec. 3.1's full statement is that "each processor is assigned nodes with
computational *weight* proportional to the computational capabilities of
that processor".  :func:`partition_list` handles the uniform-weight case
(block size proportional to capability); this module handles nonuniform
per-element weights — needed for adaptive *applications* (paper footnote 1)
where refinement concentrates work in parts of the mesh.

Given weights w[0..n-1] laid out in 1-D order and capabilities c[0..p-1]
under an arrangement, :func:`partition_weighted_list` picks the block
boundaries so that each block's total weight is as close as possible to its
processor's proportional share, scanning the prefix-sum once (O(n + p log n)).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.partition.intervals import IntervalPartition
from repro.utils.validation import check_probability_vector

__all__ = ["partition_weighted_list"]


def partition_weighted_list(
    weights: np.ndarray | Sequence[float],
    capabilities: np.ndarray | Sequence[float],
) -> IntervalPartition:
    """Contiguous blocks whose *weights* are proportional to capability.

    Boundary b_k is placed where the weight prefix sum first reaches the
    cumulative capability share of the first k blocks — the natural
    generalization of Hamilton apportionment to weighted elements.  Zero
    total weight degenerates to count-proportional blocks.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise PartitionError(f"weights must be 1-D, got shape {w.shape}")
    if w.size and w.min() < 0:
        raise PartitionError("element weights must be non-negative")
    cap = check_probability_vector("capabilities", capabilities)
    n = w.size
    total = float(w.sum())
    if total <= 0:
        # No weight information: fall back to count-proportional blocks.
        from repro.partition.intervals import partition_list

        return partition_list(n, cap)
    shares = np.cumsum(cap / cap.sum())[:-1] * total
    prefix = np.cumsum(w)
    # Boundary after the element where the prefix first reaches the share.
    bounds = np.concatenate(
        [[0], np.searchsorted(prefix, shares, side="left") + 1, [n]]
    ).astype(np.intp)
    # Monotonicity can break when one huge element spans several shares;
    # clamp so bounds stay sorted (later blocks may then be empty).
    np.maximum.accumulate(bounds, out=bounds)
    bounds = np.minimum(bounds, n)
    return IntervalPartition(bounds=bounds, owners=np.arange(cap.size, dtype=np.intp))
