"""Reference implementations of the Fig. 8 loop and its segmented sum.

``sequential_kernel_oracle`` is the literal transcription of Fig. 8 in
pure Python loops; one sweep of ``run_sequential`` must equal it bitwise.
``sweep_reference`` is the same loop over one rank's compiled
``KernelPlan`` (local block plus ghost buffer); ``KernelPlan.sweep`` must
equal it bitwise.

``BincountRowSegments`` is the segmented sum the kernel shipped before it
became a row operator: the owning row of every reference (``np.repeat``),
then one ``np.bincount`` per sweep, which adds each row's weights in
array order from 0.0.  It takes per-reference weights (``values[index]``
already gathered), not an index.  ``repro.runtime.kernels.RowOperator``
must return bitwise what this returns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BincountRowSegments", "sequential_kernel_oracle", "sweep_reference"]


def sequential_kernel_oracle(graph, y: np.ndarray) -> np.ndarray:
    """One sweep of the Fig. 8 loop over the whole graph, element by element."""
    n = graph.num_vertices
    t = np.zeros(n)
    k = 0
    out = np.array(y, dtype=np.float64, copy=True)
    for i in range(n):
        cnt = int(graph.indptr[i + 1] - graph.indptr[i])
        for _ in range(cnt):
            t[i] += y[graph.indices[k]]
            k += 1
    for i in range(n):
        cnt = int(graph.indptr[i + 1] - graph.indptr[i])
        if cnt:
            out[i] = t[i] / cnt
    return out


def sweep_reference(plan, local_y: np.ndarray, ghost: np.ndarray) -> np.ndarray:
    """One sweep of the Fig. 8 loop over *plan*'s rank, element by element."""
    combined = np.concatenate([local_y, ghost]) if ghost.size else local_y
    out = np.array(local_y, dtype=np.float64, copy=True)
    for i in range(plan.n_local):
        lo, hi = int(plan.indptr[i]), int(plan.indptr[i + 1])
        if lo == hi:
            continue
        t = 0.0
        for k in range(lo, hi):
            t += combined[plan.slots[k]]
        out[i] = t / (hi - lo)
    return out


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
