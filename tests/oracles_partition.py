"""Recursive reference implementations of the bisection orderings.

These are the one-box-at-a-time bodies that ``repro.partition.rcb`` and
``repro.partition.inertial`` shipped before the level-synchronous driver
(``repro.partition.bisection``) replaced them.  They stay here as the
differential oracle: ``rcb_order`` must reproduce ``rcb_order_oracle``'s
permutation exactly whenever the ``coords + jitter`` keys are distinct,
and ``inertial_order`` is held to ``inertial_order_oracle``'s partition
quality.  One Python step per tree node — do not call these on meshes much
beyond 30k vertices.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_generator

__all__ = ["rcb_order_oracle", "inertial_order_oracle", "principal_axis_oracle"]


def _jitter(coords: np.ndarray, n: int, seed: SeedLike) -> np.ndarray:
    rng = as_generator(seed)
    scale = max(float(np.ptp(coords)) if coords.size else 1.0, 1e-30)
    return rng.uniform(-1e-9, 1e-9, size=n) * scale


def _split_axis(coords: np.ndarray, idx: np.ndarray, axis: int | None) -> int:
    """Choose the axis to split: widest extent, or the given axis."""
    if axis is not None:
        return axis
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


def rcb_order_oracle(
    graph: CSRGraph,
    *,
    alternate_axes: bool = False,
    seed: SeedLike = 0,
    stable_ties: bool = False,
) -> np.ndarray:
    """RCB visit order, one explicit-stack step per box.

    The shipped body left equal keys to ``argpartition``'s introselect;
    ``stable_ties=True`` states the rule ``rcb_order`` now guarantees —
    equal keys split by vertex id — so tie-heavy inputs have an oracle too.
    """
    coords = graph.coords
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    jitter = _jitter(coords, n, seed)
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
        axis = _split_axis(
            coords, idx, depth % coords.shape[1] if alternate_axes else None
        )
        lo, hi = _median_split(coords, idx, axis, jitter, stable_ties)
        stack.append((hi, depth + 1))
        stack.append((lo, depth + 1))
    assert out == n
    return order


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


def inertial_order_oracle(graph: CSRGraph, *, seed: SeedLike = 0) -> np.ndarray:
    """Inertial bisection visit order, one explicit-stack step per box."""
    coords = graph.coords
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    jitter = _jitter(coords, n, seed)
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
