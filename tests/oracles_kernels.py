"""Reference implementation of the Fig. 8 segmented sum.

``BincountRowSegments`` is the body ``repro.runtime.kernels.RowSegments``
shipped before the degree-ranked column layout: the owning row of every
reference (``np.repeat``), then one ``np.bincount`` per sweep, which adds
each row's weights in array order from 0.0.  It takes per-reference
weights (``values[index]`` already gathered), not an index.  The shipped
kernel must return bitwise what this returns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BincountRowSegments"]


class BincountRowSegments:
    def __init__(self, counts: np.ndarray) -> None:
        counts = np.asarray(counts)
        self.n_rows = int(counts.size)
        self.rows = np.repeat(np.arange(self.n_rows, dtype=np.intp), counts)
        empty = counts == 0
        self.empty = empty if empty.any() else None
        self.divisor = np.where(empty, 1.0, counts)

    def sums(self, weights: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=weights, minlength=self.n_rows)

    def means(self, weights: np.ndarray, keep: np.ndarray) -> np.ndarray:
        out = self.sums(weights) / self.divisor
        if self.empty is not None:
            out[self.empty] = keep[self.empty]
        return out
