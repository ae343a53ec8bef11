"""Recursive spectral bisection (RSB) indexing (Sec. 3.1's spectral methods).

The paper's mesh experiments use "Recursive Spectral Bisection-based
indexing [19]": recursively split the graph at the median of the Fiedler
vector (second-smallest Laplacian eigenvector), ordering the halves
consecutively.  Unlike RCB/inertial this uses explicit edge information, so
it works for abstract graphs and usually gives the best edge cuts.

The Fiedler vector is computed with LOBPCG constrained against the constant
vector, preconditioned by the inverse degree diagonal; small subproblems use
dense ``eigh``.  Disconnected subgraphs (which arise during recursion) are
ordered component by component.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lobpcg

from repro.errors import OrderingError
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_scipy
from repro.partition.ordering import positions_from_order
from repro.utils.rng import as_generator

__all__ = ["SpectralOrdering", "rsb_order", "fiedler_vector"]

_DENSE_CUTOFF = 128
#: LOBPCG's residual tolerance and iteration cap for each Fiedler vector.
_TOL = 1e-6
_MAXITER = 200
#: The seed of the random start vectors and tie-breaking offsets.
_SEED = 0


def _laplacian(adj: sp.csr_matrix) -> sp.csr_matrix:
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (sp.diags(deg) - adj).tocsr()


def _fiedler_dense(lap: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(lap)
    # Column 0 is (numerically) the constant vector; column 1 is Fiedler.
    return vecs[:, 1]


def fiedler_vector(adj: sp.csr_matrix, *, rng: np.random.Generator) -> np.ndarray:
    """Fiedler vector of a *connected* graph given its adjacency matrix."""
    n = adj.shape[0]
    if n < 2:
        raise OrderingError("fiedler_vector needs at least 2 vertices")
    lap = _laplacian(adj)
    if n <= _DENSE_CUTOFF:
        return _fiedler_dense(lap.toarray())
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-12), 1.0)
    precond = sp.diags(inv_deg).tocsr()
    x0 = rng.standard_normal((n, 1))
    ones = np.ones((n, 1)) / np.sqrt(n)
    x0 -= ones @ (ones.T @ x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            _, vecs = lobpcg(
                lap, x0, M=precond, Y=ones, tol=_TOL, maxiter=_MAXITER,
                largest=False,
            )
            vec = vecs[:, 0]
            if np.all(np.isfinite(vec)) and np.ptp(vec) > 0:
                return vec
        except Exception:
            pass
    # LOBPCG failed to converge usefully: dense fallback for moderate n,
    # else give up on spectral information for this box and use degrees
    # (callers still get a valid, just lower-quality, split key).
    if n <= 4096:
        return _fiedler_dense(lap.toarray())
    return deg.astype(np.float64) + rng.uniform(0, 1e-6, n)


def _order_recursive(
    adj: sp.csr_matrix,
    idx: np.ndarray,
    out: list[np.ndarray],
    rng: np.random.Generator,
    leaf_size: int,
) -> None:
    n = idx.size
    if n <= 2:
        out.append(np.sort(idx))
        return
    n_comp, labels = sp.csgraph.connected_components(adj, directed=False)
    if n_comp > 1:
        # Order components one after another (smallest leading vertex first
        # for determinism); recurse into each.
        for comp in _component_order(labels, n_comp):
            mask = labels == comp
            sub = adj[mask][:, mask].tocsr()
            _order_recursive(sub, idx[mask], out, rng, leaf_size)
        return
    vec = fiedler_vector(adj, rng=rng)
    if n <= leaf_size:
        # Leaf: a full sort by Fiedler value is the 1-D spectral sequence.
        tie = rng.uniform(0, 1e-9, n)
        out.append(idx[np.argsort(vec + tie, kind="stable")])
        return
    half = n // 2
    tie = rng.uniform(0, 1e-9, n)
    part = np.argpartition(vec + tie, half - 1)
    lo_mask = np.zeros(n, dtype=bool)
    lo_mask[part[:half]] = True
    for mask in (lo_mask, ~lo_mask):
        sub = adj[mask][:, mask].tocsr()
        _order_recursive(sub, idx[mask], out, rng, leaf_size)


def _component_order(labels: np.ndarray, n_comp: int) -> list[int]:
    first_vertex = np.full(n_comp, np.iinfo(np.intp).max, dtype=np.intp)
    for v, c in enumerate(labels):
        if v < first_vertex[c]:
            first_vertex[c] = v
    return list(np.argsort(first_vertex))


def rsb_order(graph: CSRGraph, *, leaf_size: int = 64) -> np.ndarray:
    """RSB visit order: vertex ids in 1-D sequence."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.intp)
    if leaf_size < 2:
        raise OrderingError(f"leaf_size must be >= 2, got {leaf_size}")
    rng = as_generator(_SEED)
    adj = to_scipy(graph)
    out: list[np.ndarray] = []
    _order_recursive(adj, np.arange(n, dtype=np.intp), out, rng, leaf_size)
    order = np.concatenate(out) if out else np.empty(0, dtype=np.intp)
    if order.size != n:
        raise OrderingError(f"RSB emitted {order.size} of {n} vertices")
    return order


@dataclass(frozen=True)
class SpectralOrdering:
    """Recursive spectral bisection as an :class:`OrderingMethod`."""

    leaf_size: int = 64
    name: ClassVar[str] = "rsb"

    def __call__(self, graph: CSRGraph) -> np.ndarray:
        return positions_from_order(rsb_order(graph, leaf_size=self.leaf_size))
