"""Irregular sparse matrix-vector product on the STANCE machinery.

Demonstrates that the runtime generalizes beyond the Fig. 8 kernel ("we
believe many of the techniques ... are relevant for efficient solution of
other regular as well as irregular data-parallel applications"): repeated
y = A @ x with a symmetric sparsity pattern is the inner loop of the
iterative FEM solvers the paper targets.

The matrix rides on a :class:`~repro.graph.csr.CSRGraph` pattern with
per-entry weights plus a diagonal; the inspector/executor path is exactly
the one the smoothing kernel uses (symmetric pattern -> sort2 schedules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.net.cluster import ClusterSpec
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.partition.ordering import OrderingMethod
from repro.partition.rcb import RCBOrdering
from repro.runtime.executor import gather
from repro.runtime.inspector import run_inspector
from repro.runtime.kernels import KernelCostModel, RowOperator

__all__ = ["SymmetricPatternMatrix", "spmv_sequential", "run_parallel_spmv"]


@dataclass(frozen=True)
class SymmetricPatternMatrix:
    """A sparse matrix whose off-diagonal pattern is a symmetric graph.

    ``offdiag[k]`` weights the edge entry ``graph.indices[k]`` of row
    ``row(k)``; ``diag[i]`` is the diagonal.  Values need not be symmetric
    — only the *pattern* symmetry matters for schedule construction.
    """

    graph: CSRGraph
    offdiag: np.ndarray
    diag: np.ndarray

    def __post_init__(self) -> None:
        offdiag = np.ascontiguousarray(self.offdiag, dtype=np.float64)
        diag = np.ascontiguousarray(self.diag, dtype=np.float64)
        object.__setattr__(self, "offdiag", offdiag)
        object.__setattr__(self, "diag", diag)
        if offdiag.shape != (self.graph.indices.size,):
            raise ConfigurationError(
                f"offdiag must align with graph.indices "
                f"({self.graph.indices.size} entries), got {offdiag.shape}"
            )
        if diag.shape != (self.graph.num_vertices,):
            raise ConfigurationError(
                f"diag must have one entry per vertex, got {diag.shape}"
            )

    @property
    def n(self) -> int:
        return self.graph.num_vertices

    @staticmethod
    def laplacian_like(graph: CSRGraph, *, shift: float = 0.1) -> "SymmetricPatternMatrix":
        """A diagonally dominant test matrix: (D + shift·I) - A.

        Spectral radius of the Jacobi iteration is < 1, so repeated
        products stay bounded — convenient for long runs.
        """
        deg = graph.degrees.astype(np.float64)
        return SymmetricPatternMatrix(
            graph=graph,
            offdiag=-np.ones(graph.indices.size),
            diag=deg + shift,
        )

    def permuted(self, perm: np.ndarray) -> "SymmetricPatternMatrix":
        """The matrix under a symmetric permutation of rows and columns."""
        n = self.n
        gperm = self.graph.permute(perm)
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n, dtype=np.intp)
        # Rebuild offdiag values aligned with the permuted CSR layout by a
        # (row, col) -> value map over the old entries.
        old_rows = np.repeat(
            np.arange(n, dtype=np.intp), np.diff(self.graph.indptr)
        )
        key_to_val = {}
        for r, c, v in zip(perm[old_rows], perm[self.graph.indices], self.offdiag):
            key_to_val[(int(r), int(c))] = float(v)
        new_rows = np.repeat(
            np.arange(n, dtype=np.intp), np.diff(gperm.indptr)
        )
        new_vals = np.fromiter(
            (key_to_val[(int(r), int(c))] for r, c in zip(new_rows, gperm.indices)),
            dtype=np.float64,
            count=gperm.indices.size,
        )
        return SymmetricPatternMatrix(
            graph=gperm, offdiag=new_vals, diag=self.diag[inv]
        )


def spmv_sequential(mat: SymmetricPatternMatrix, x: np.ndarray) -> np.ndarray:
    """Reference y = A @ x (vectorized, whole matrix)."""
    x = np.asarray(x, dtype=np.float64)
    g = mat.graph
    # diag·x + (row sum), the association run_parallel_spmv uses too.
    return mat.diag * x + _weight_sums(g.indptr).sums(
        mat.offdiag * x[g.indices]
    )


def _weight_sums(indptr: np.ndarray) -> RowOperator:
    """Row sums of per-reference products, already multiplied: the
    operator reads reference ``k`` at column ``k``, so each row still
    multiplies, then sums in array order, whatever the compiler fuses."""
    m = int(indptr[-1])
    return RowOperator(indptr, np.arange(m), m)


def run_parallel_spmv(
    mat: SymmetricPatternMatrix,
    cluster: ClusterSpec,
    x0: np.ndarray,
    iterations: int = 10,
    *,
    ordering: OrderingMethod | None = None,
    strategy: str = "sort2",
    normalize: bool = True,
    kernel_cost: KernelCostModel = KernelCostModel(),
) -> tuple[np.ndarray, float]:
    """Repeated (optionally normalized) products x <- A x over the cluster.

    With ``normalize=True`` this is the power iteration: after enough
    iterations x approaches A's dominant eigenvector.  Returns (final x in
    original numbering, virtual makespan).
    """
    n = mat.n
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n},)")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if ordering is None:
        ordering = RCBOrdering() if mat.graph.coords is not None else None
    if ordering is not None:
        perm = ordering(mat.graph)
    else:
        perm = np.arange(n, dtype=np.intp)
    pmat = mat.permuted(perm)
    x_init = np.empty(n)
    x_init[perm] = x0

    def rank_main(ctx: Any) -> tuple[int, np.ndarray]:
        partition = partition_list(n, cluster.speeds)
        insp = run_inspector(
            pmat.graph, partition, ctx.rank, strategy=strategy, ctx=ctx
        )
        lo, hi = partition.interval(ctx.rank)
        plan = insp.kernel_plan
        local_x = x_init[lo:hi].copy()
        local_diag = pmat.diag[lo:hi]
        start, stop = pmat.graph.indptr[lo], pmat.graph.indptr[hi]
        local_w = pmat.offdiag[start:stop]
        rows = _weight_sums(plan.indptr)
        for _ in range(iterations):
            ghost = gather(ctx, insp.schedule, local_x)
            combined = (
                np.concatenate([local_x, ghost]) if ghost.size else local_x
            )
            y = local_diag * local_x + rows.sums(
                local_w * combined[plan.slots]
            )
            ctx.compute(
                kernel_cost.sweep_seconds(plan.n_references, local_x.size),
                label="spmv",
            )
            if normalize:
                sq = ctx.allreduce(float(np.dot(y, y)), lambda a, b: a + b)
                y = y / np.sqrt(sq) if sq > 0 else y
            local_x = y
            ctx.barrier()
        return lo, local_x

    result = run_spmd(cluster, rank_main)
    full = np.empty(n)
    for lo, data in result.values:
        full[lo : lo + data.size] = data
    return full[perm], result.makespan
