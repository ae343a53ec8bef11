"""Compressed-sparse-row computational graphs.

The paper (Sec. 3.1) views unstructured data-parallel applications as
*computational graphs*: vertices are concurrent tasks (mesh nodes), edges are
interactions.  A :class:`CSRGraph` stores the symmetric adjacency structure
in CSR form — exactly the "indirection array" layout of the Fig. 8 loop
(``ia`` is our ``indices``; the per-vertex counts are encoded by ``indptr``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.utils.validation import check_permutation

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """An undirected graph in CSR form.

    Invariants (validated at construction):

    * ``indptr`` has length ``n + 1``, is non-decreasing, starts at 0;
    * ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of vertex ``v``;
    * adjacency is symmetric (u in adj(v) iff v in adj(u)) with no
      self-loops — the symmetry is what schedule_sort1/sort2 exploit;
    * ``coords`` (optional) holds the vertices' physical 2-D/3-D positions,
      required by the coordinate-based orderings (RCB, inertial, SFC).
    """

    indptr: np.ndarray
    indices: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.intp)
        indices = np.ascontiguousarray(self.indices, dtype=np.intp)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.ndim != 1 or indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length n+1")
        if indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if (indptr[1:] < indptr[:-1]).any():
            raise GraphError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1]={indptr[-1]} disagrees with len(indices)={indices.size}"
            )
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("neighbor indices out of range")
        if self.coords is not None:
            coords = np.ascontiguousarray(self.coords, dtype=np.float64)
            object.__setattr__(self, "coords", coords)
            if coords.ndim != 2 or coords.shape[0] != n or coords.shape[1] not in (2, 3):
                raise GraphError(
                    f"coords must be (n, 2) or (n, 3), got {coords.shape}"
                )
        self._check_symmetric()

    def _check_symmetric(self) -> None:
        # Two per-entry arrays: the reversed keys dst * n + src, and the
        # row ids, turned in place into the forward keys src * n + dst.
        n, indices = self.num_vertices, self.indices
        keys = np.repeat(np.arange(n, dtype=np.intp), self.degrees)
        if (keys == indices).any():
            raise GraphError("graph has self-loops")
        rev = indices * n
        rev += keys
        rev.sort()
        keys *= n
        keys += indices
        if not np.array_equal(_sorted(keys), rev):
            raise GraphError("adjacency is not symmetric")

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge stored twice in CSR)."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    @property
    def dim(self) -> int | None:
        """Embedding dimension (2 or 3), or None for abstract graphs."""
        return None if self.coords is None else self.coords.shape[1]

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of undirected edges with u < v, sorted."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.intp), self.degrees)
        mask = src < self.indices
        keys = _sorted(src[mask] * n + self.indices[mask])
        return np.stack(np.divmod(keys, n), axis=1)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        coords: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a symmetric CSR graph from an undirected edge list.

        Duplicate edges and self-loops are dropped; both orientations of
        every edge become one key each (:func:`_from_keys`).
        """
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        arr = arr.reshape(-1, 2).astype(np.intp, copy=False)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise GraphError("edge endpoints out of range")
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            arr = arr[~loops]
        keys = _both_orientations(n, arr[:, 0], arr[:, 1])
        # The edge list is not needed past its keys: a caller that passes
        # a temporary gets its memory back before the graph is checked.
        del edges, arr, loops
        return _from_keys(n, keys, coords)

    def permute(self, perm: Sequence[int] | np.ndarray) -> "CSRGraph":
        """Relabel vertices: new label of old vertex ``v`` is ``perm[v]``.

        This applies the 1-D locality transformation T: V -> {0..n-1} of
        Sec. 3.1: vertex ``v`` of the input becomes vertex ``perm[v]`` of
        the output, with its coords carried along.
        """
        n = self.num_vertices
        perm = check_permutation(perm, n)
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n, dtype=np.intp)
        # Relabel both endpoints of every directed entry; sorting on
        # new_src * n + new_dst groups the rows and orders each row.
        old_degrees = self.degrees
        degrees = old_degrees[inv]
        keys = np.repeat(perm * n, old_degrees)
        keys += perm[self.indices]
        keys.sort()
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(degrees, out=indptr[1:])
        coords = None if self.coords is None else self.coords[inv]
        # A relabelled valid graph is valid: skip the symmetry check.
        return _trusted(indptr, np.remainder(keys, n, out=keys), coords)

    def subgraph(self, keep: np.ndarray) -> "CSRGraph":
        """The subgraph induced by the vertices where *keep* is true,
        relabelled in order (so sorted rows stay sorted), with their
        coords."""
        keep = np.asarray(keep, dtype=bool)
        n, new_id = int(keep.sum()), np.cumsum(keep) - 1
        entry = np.repeat(keep, self.degrees) & keep[self.indices]
        keys = np.repeat(new_id * n, self.degrees)[entry]
        keys += new_id[self.indices[entry]]
        coords = None if self.coords is None else self.coords[keep]
        return _from_keys(n, keys, coords)

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"dim={self.dim})"
        )


def _sorted(keys: np.ndarray) -> np.ndarray:
    """*keys* in ascending order, sorted in place only if an O(m) test
    finds them out of order (rows built here are in order already)."""
    if (keys[1:] < keys[:-1]).any():
        keys.sort()
    return keys


def _both_orientations(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The keys ``u * n + v`` then ``v * n + u`` of the undirected edges
    (u, v), written in place into one array."""
    m = u.size
    keys = np.empty(2 * m, dtype=np.intp)
    for out, a, b in ((keys[:m], u, v), (keys[m:], v, u)):
        np.multiply(a, n, out=out)
        out += b
    return keys


def _from_keys(n: int, keys: np.ndarray, coords) -> CSRGraph:
    """The one construction of a CSR: from its directed entries as scalar
    keys ``src * n + dst`` (>= 0), sorted and deduplicated here.  *keys*
    is consumed: it is sorted and becomes ``indices`` in place unless a
    duplicate forces one copy."""
    keys = _sorted(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        keys = keys[first]
    del first
    # Row v's entries are the keys in [v * n, (v + 1) * n).
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.intp) * n)
    return CSRGraph(indptr, np.remainder(keys, n, out=keys), coords=coords)


def _trusted(indptr, indices, coords) -> CSRGraph:
    """A CSRGraph from arrays already in canonical form (``intp`` index
    arrays, float64 attributes) that a valid graph was transformed into
    by a structure-preserving map: no validation pass."""
    out = object.__new__(CSRGraph)
    out.__dict__.update(indptr=indptr, indices=indices, coords=coords)
    return out
