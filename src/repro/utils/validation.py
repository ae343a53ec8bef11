"""Argument-validation helpers shared across the library.

These raise :class:`ValueError`/:class:`TypeError` with uniform, descriptive
messages.  Library-specific invariant failures use the exception hierarchy in
:mod:`repro.errors` instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_permutation",
    "check_probability_vector",
]


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that *value* is positive (or non-negative if not strict)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_permutation(perm: Sequence[int] | np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate that *perm* is a permutation of ``0..len(perm)-1``.

    Returns the permutation as an ``intp`` array.  Used by every ordering
    implementation to guarantee the 1-D transformation T: V -> {0..n-1}
    from Section 3.1 of the paper is a bijection.
    """
    arr = np.asarray(perm, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError(f"permutation must be 1-D, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValueError(f"permutation has length {arr.size}, expected {n}")
    seen = np.zeros(arr.size, dtype=bool)
    if arr.size:
        if arr.min() < 0 or arr.max() >= arr.size:
            raise ValueError("permutation entries out of range")
        seen[arr] = True
        if not seen.all():
            raise ValueError("permutation has repeated entries")
    return arr


def check_probability_vector(name: str, weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a vector of non-negative weights with a positive sum.

    The vector is *not* required to sum to one; callers normalize.  Used for
    processor computational-capability ratios (paper Sec. 3.4).
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if total <= 0:
        raise ValueError(f"{name} must have a positive sum")
    return arr
