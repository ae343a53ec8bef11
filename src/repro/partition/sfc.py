"""Space-filling-curve (index-based) orderings — Sec. 3.1's "index-based
partitioners".

Vertices are snapped to a 2^16 grid and sorted by their Hilbert or Morton
(Z-order) key.  Hilbert keys guarantee that consecutive 1-D positions are
adjacent grid cells, giving RCB-quality locality at sort cost; Morton is
cheaper but has long jumps at quadrant boundaries — a nice ablation pair.

The Hilbert encoding is the classic Butz/Lam-Shapiro bit-manipulation
algorithm, vectorized over all points at once and table-driven: one lookup
consumes four bits of each coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.partition.ordering import positions_from_order, require_coords

__all__ = [
    "HilbertOrdering",
    "MortonOrdering",
    "hilbert_keys_2d",
    "morton_keys",
    "quantize_coords",
    "sfc_order",
]

#: Lattice resolution of the orderings: each coordinate snaps to 2^16 cells.
_BITS = 16


def quantize_coords(coords: np.ndarray, bits: int) -> np.ndarray:
    """Snap float coordinates to the integer lattice [0, 2^bits)."""
    if not (1 <= bits <= 21):
        raise OrderingError(f"bits must be in 1..21, got {bits}")
    top = 2**bits - 1
    q = np.empty(coords.shape, dtype=np.uint64)
    # Axis by axis: reducing an (n, 2) array along axis 0 runs numpy's
    # inner loop once per row, a 1-D column reduces in one SIMD pass.
    for axis in range(coords.shape[1]):
        column = coords[:, axis]
        lo = column.min()
        span = column.max() - lo
        cell = column - lo
        cell *= top / (span if span > 0 else 1.0)
        cell += 0.5
        q[:, axis] = np.floor(cell, out=cell)
    return np.minimum(q, np.uint64(top), out=q)


def _interleave2(x: np.ndarray, y: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave two coordinate arrays into Morton keys."""
    key = np.zeros_like(x, dtype=np.uint64)
    for b in range(bits):
        bit = np.uint64(1) << np.uint64(b)
        key |= ((x & bit) != 0).astype(np.uint64) << np.uint64(2 * b)
        key |= ((y & bit) != 0).astype(np.uint64) << np.uint64(2 * b + 1)
    return key


def _interleave3(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, bits: int
) -> np.ndarray:
    key = np.zeros_like(x, dtype=np.uint64)
    for b in range(bits):
        bit = np.uint64(1) << np.uint64(b)
        key |= ((x & bit) != 0).astype(np.uint64) << np.uint64(3 * b)
        key |= ((y & bit) != 0).astype(np.uint64) << np.uint64(3 * b + 1)
        key |= ((z & bit) != 0).astype(np.uint64) << np.uint64(3 * b + 2)
    return key


def morton_keys(coords: np.ndarray, bits: int) -> np.ndarray:
    """Morton (Z-order) keys for 2-D or 3-D coordinates."""
    q = quantize_coords(coords, bits)
    if coords.shape[1] == 2:
        return _interleave2(q[:, 0], q[:, 1], bits)
    if coords.shape[1] == 3:
        return _interleave3(q[:, 0], q[:, 1], q[:, 2], bits)
    raise OrderingError(f"Morton keys support 2-D/3-D, got {coords.shape[1]}-D")


def _hilbert_tables() -> tuple[np.ndarray, np.ndarray]:
    """Four levels of the Lam-Shapiro rotation walk as one lookup.

    The walk's state is whether the remaining low bits of x and y are
    swapped and whether they are complemented.  Entry
    ``state << 8 | x_nibble << 4 | y_nibble`` holds the four base-4 digits
    those levels emit and the state they leave (already shifted into index
    position), both derived here by running the per-bit rule on every entry.
    """
    index = np.arange(4 * 256)
    swap, comp = index >> 9, (index >> 8) & 1
    x, y = (index >> 4) & 15, index & 15
    digits = np.zeros_like(index)
    for level in (3, 2, 1, 0):
        bx, by = (x >> level) & 1, (y >> level) & 1
        rx = np.where(swap, by, bx) ^ comp
        ry = np.where(swap, bx, by) ^ comp
        digits = (digits << 2) | ((3 * rx) ^ ry)
        # Rotate the quadrant: ry == 0 swaps, and flips first when rx == 1.
        comp ^= (ry == 0) & (rx == 1)
        swap ^= ry == 0
    return digits.astype(np.uint8), ((swap << 1 | comp) << 8).astype(np.intp)


_HILBERT_DIGITS, _HILBERT_NEXT = _hilbert_tables()


def hilbert_keys_2d(coords: np.ndarray, bits: int) -> np.ndarray:
    """2-D Hilbert-curve keys (Lam-Shapiro rotation walk, 4 levels per lookup)."""
    if coords.shape[1] != 2:
        raise OrderingError("hilbert_keys_2d needs 2-D coordinates")
    q = quantize_coords(coords, bits)
    x = q[:, 0].astype(np.intp)
    y = q[:, 1].astype(np.intp)
    x <<= 4  # the x nibble lands above the y nibble in the table index
    steps = -(-bits // 4)
    # Levels above *bits* hold zeros, and a level of zeros only toggles the
    # swap: left-padding to a multiple of 4 starts the walk swapped when
    # the pad is odd.
    state: np.ndarray | int = ((4 * steps - bits) & 1) << 9
    keys = np.zeros(x.shape[0], dtype=np.uint64)
    index = np.empty_like(x)
    nibble = np.empty_like(x)
    for shift in range(4 * (steps - 1), -1, -4):
        np.right_shift(x, shift, out=index)
        index &= 0xF0
        np.right_shift(y, shift, out=nibble)
        nibble &= 0x0F
        index |= nibble
        index |= state
        keys <<= 8
        keys |= _HILBERT_DIGITS[index]
        state = _HILBERT_NEXT[index]
    return keys


def sfc_order(graph: CSRGraph, *, curve: str = "hilbert") -> np.ndarray:
    """SFC visit order (vertex ids in 1-D sequence) for 2-D/3-D graphs."""
    coords = require_coords(graph, f"{curve} ordering")
    if curve == "hilbert":
        if coords.shape[1] != 2:
            # 3-D Hilbert degenerates to Morton here; good enough in
            # practice and keeps the implementation honest about scope.
            keys = morton_keys(coords, _BITS)
        else:
            keys = hilbert_keys_2d(coords, _BITS)
    elif curve == "morton":
        keys = morton_keys(coords, _BITS)
    else:
        raise OrderingError(f"unknown curve {curve!r}; use 'hilbert' or 'morton'")
    # Stable order: vertices in the same grid cell keep input order.  When
    # key and vertex id fit one 64-bit word, sorting ``key << id_bits | id``
    # by value gives that order several times faster than a stable argsort.
    n = keys.size
    id_bits = max(n - 1, 0).bit_length()
    key_bits = int(keys.max()).bit_length() if n else 0
    if key_bits + id_bits > 64:
        return np.argsort(keys, kind="stable").astype(np.intp)
    words = keys << np.uint64(id_bits)
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    words &= np.uint64((1 << id_bits) - 1)
    return words.astype(np.intp)


@dataclass(frozen=True)
class HilbertOrdering:
    """Hilbert space-filling-curve indexing as an :class:`OrderingMethod`."""

    name: ClassVar[str] = "hilbert"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(sfc_order(graph, curve="hilbert"))


@dataclass(frozen=True)
class MortonOrdering:
    """Morton (Z-order) indexing as an :class:`OrderingMethod`."""

    name: ClassVar[str] = "morton"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(sfc_order(graph, curve="morton"))
