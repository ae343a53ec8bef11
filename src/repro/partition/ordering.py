"""One-dimensional locality-improving transformations (paper Sec. 3.1).

An *ordering* is the architecture-independent permutation
``T : V -> {0, .., n-1}`` that lays the computational graph out on a line so
that any contiguous split is a good partition.  All concrete methods
(:mod:`~repro.partition.rcb`, :mod:`~repro.partition.inertial`,
:mod:`~repro.partition.spectral`, :mod:`~repro.partition.sfc`) implement
:class:`OrderingMethod`; this module holds the interface, the trivial
baselines, and shared helpers.

Conventions: ``perm[v]`` is the 1-D position of vertex ``v`` (the paper's
T); ``inverse(perm)[i]`` is the vertex at position ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_permutation

__all__ = [
    "OrderingMethod",
    "IdentityOrdering",
    "RandomOrdering",
    "inverse",
    "positions_from_order",
    "require_coords",
]


class OrderingMethod(Protocol):
    """The interface every 1-D transformation implements."""

    #: Human-readable name used in benchmark tables.
    name: str

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        """Return ``perm`` with ``perm[v]`` = 1-D position of vertex v."""
        ...


def inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse permutation: ``inverse(perm)[position] = vertex``."""
    perm = check_permutation(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


def positions_from_order(order: np.ndarray) -> np.ndarray:
    """Convert a visit order (vertex ids in 1-D sequence) into ``perm``.

    Partitioner internals naturally produce "the i-th vertex on the line is
    ``order[i]``"; the public convention is the inverse of that.
    """
    return inverse(np.asarray(order, dtype=np.intp))


def require_coords(graph: CSRGraph, method: str) -> np.ndarray:
    """Fetch coordinates or raise a descriptive error.

    Coordinate-based methods (RCB, inertial, SFC) need the physical
    embedding the paper assumes for graphs "from the physical domain".
    Every coordinate must be finite: one NaN turns every RCB and inertial
    key into NaN and every SFC key into an undefined integer cast.
    """
    coords = graph.coords
    if coords is None:
        raise OrderingError(
            f"{method} requires vertex coordinates; this graph has none "
            f"(use spectral ordering for abstract graphs)"
        )
    finite = np.isfinite(coords)
    if not finite.all():
        vertex, axis = np.argwhere(~finite)[0]
        raise OrderingError(
            f"{method} requires finite coordinates; vertex {vertex} has "
            f"{coords[vertex, axis]} on axis {axis}"
        )
    return coords


@dataclass(frozen=True)
class IdentityOrdering:
    """The do-nothing baseline: keep the input numbering."""

    name: ClassVar[str] = "identity"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.intp)


@dataclass(frozen=True)
class RandomOrdering:
    """The worst-case baseline: a random permutation destroys locality."""

    seed: SeedLike = 0
    name: ClassVar[str] = "random"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        rng = as_generator(self.seed)
        return rng.permutation(graph.num_vertices).astype(np.intp)
