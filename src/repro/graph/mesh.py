"""Unstructured meshes: coordinates + triangles + the derived graph.

The paper's experimental workload is an unstructured 2-D mesh (Fig. 9:
30,269 vertices, 44,929 edges) whose edges define the irregular loop's
indirection array.  A :class:`Mesh` couples the geometry (needed by the
coordinate-based orderings of Sec. 3.1) to the computational graph (needed
by the inspector/executor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, _both_orientations, _from_keys

__all__ = ["Mesh"]


@dataclass(frozen=True)
class Mesh:
    """A triangulated 2-D (or tetrahedral 3-D) mesh.

    ``points`` is (n, dim); ``cells`` is (t, dim+1) vertex indices per
    simplex.  The computational graph has one vertex per mesh point and one
    edge per simplex edge.
    """

    points: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        cells = np.ascontiguousarray(self.cells, dtype=np.intp)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cells", cells)
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise GraphError(f"points must be (n, 2) or (n, 3), got {pts.shape}")
        dim = pts.shape[1]
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise GraphError(
                f"cells must be (t, {dim + 1}) for dim={dim}, got {cells.shape}"
            )
        if cells.size and (cells.min() < 0 or cells.max() >= pts.shape[0]):
            raise GraphError("cell vertex indices out of range")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def graph(self) -> CSRGraph:
        """The computational graph induced by the simplex edges.

        Both orientations of every simplex edge become one scalar key
        each, written into one array, and go through the one CSR construction
        (:func:`repro.graph.csr._from_keys`), which drops the copies of
        an edge shared by neighbouring simplices.
        """
        n = self.num_points
        i, j = zip(*combinations(range(self.cells.shape[1]), 2))
        a, b = self.cells[:, list(i)].ravel(), self.cells[:, list(j)].ravel()
        edge = a != b  # a degenerate simplex repeats a vertex
        if not edge.all():
            a, b = a[edge], b[edge]
        keys = _both_orientations(n, a, b)
        del a, b, edge
        return _from_keys(n, keys, self.points)

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:
        return (
            f"Mesh(points={self.num_points}, cells={self.num_cells}, "
            f"edges={self.num_edges}, dim={self.dim})"
        )
