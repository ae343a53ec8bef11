"""Tests for the application layer (SpMV, workloads, quality)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.sparse_matvec import (
    SymmetricPatternMatrix,
    run_parallel_spmv,
    spmv_sequential,
)
from repro.apps.workloads import random_capabilities
from repro.errors import ConfigurationError
from repro.graph.generators import paper_mesh
from repro.graph.ops import to_scipy
from repro.net.cluster import uniform_cluster
from repro.partition.ordering import IdentityOrdering
from repro.partition.quality import compare_orderings, evaluate_ordering
from repro.partition.rcb import RCBOrdering


class TestSparseMatvec:
    def test_matrix_validation(self):
        g = paper_mesh(100, seed=0)
        with pytest.raises(ConfigurationError):
            SymmetricPatternMatrix(g, np.ones(3), np.ones(g.num_vertices))
        with pytest.raises(ConfigurationError):
            SymmetricPatternMatrix(g, np.ones(g.indices.size), np.ones(3))

    def test_sequential_matches_scipy(self):
        g = paper_mesh(200, seed=2)
        mat = SymmetricPatternMatrix.laplacian_like(g, shift=0.3)
        import scipy.sparse as sp

        A = sp.diags(mat.diag) - to_scipy(g)
        x = np.random.default_rng(0).uniform(size=g.num_vertices)
        np.testing.assert_allclose(spmv_sequential(mat, x), A @ x, rtol=1e-12)

    def test_parallel_single_product_exact(self):
        g = paper_mesh(200, seed=2)
        mat = SymmetricPatternMatrix.laplacian_like(g)
        x0 = np.random.default_rng(1).uniform(size=g.num_vertices)
        seq = spmv_sequential(mat, x0)
        par, makespan = run_parallel_spmv(
            mat, uniform_cluster(3), x0, iterations=1, normalize=False
        )
        np.testing.assert_allclose(par, seq, rtol=1e-12)
        assert makespan > 0

    def test_permuted_matrix_consistent(self):
        g = paper_mesh(150, seed=3)
        mat = SymmetricPatternMatrix.laplacian_like(g)
        perm = RCBOrdering()(g)
        pm = mat.permuted(perm)
        x = np.random.default_rng(2).uniform(size=g.num_vertices)
        xp = np.empty_like(x)
        xp[perm] = x
        np.testing.assert_allclose(
            spmv_sequential(pm, xp)[perm], spmv_sequential(mat, x), rtol=1e-12
        )

    def test_identity_ordering_supported(self):
        g = paper_mesh(150, seed=3)
        mat = SymmetricPatternMatrix.laplacian_like(g)
        x0 = np.random.default_rng(5).uniform(-1.0, 1.0, g.num_vertices)
        par, _ = run_parallel_spmv(
            mat, uniform_cluster(2), x0, iterations=3, normalize=False,
            ordering=IdentityOrdering(),
        )
        # Same vertex numbering, same segmented sum, same association:
        # the parallel product is the sequential one bit for bit.
        seq = x0
        for _ in range(3):
            seq = spmv_sequential(mat, seq)
        np.testing.assert_array_equal(par, seq)

    def test_input_validation(self):
        g = paper_mesh(100, seed=0)
        mat = SymmetricPatternMatrix.laplacian_like(g)
        with pytest.raises(ConfigurationError):
            run_parallel_spmv(mat, uniform_cluster(2), np.zeros(5))
        with pytest.raises(ConfigurationError):
            run_parallel_spmv(mat, uniform_cluster(2),
                              np.zeros(g.num_vertices), iterations=0)


class TestWorkloads:
    def test_random_capabilities_normalized(self):
        rng = np.random.default_rng(0)
        caps = random_capabilities(6, rng)
        assert caps.sum() == pytest.approx(1.0)
        assert caps.min() >= 0.019


class TestOrderingQuality:
    def test_evaluate_ordering_fields(self):
        g = paper_mesh(300, seed=5)
        rep = evaluate_ordering(g, RCBOrdering(), part_counts=(2, 4))
        assert rep.name == "rcb"
        assert set(rep.cuts) == {2, 4}
        assert rep.mean_span > 0

    def test_compare_orderings_rows(self):
        g = paper_mesh(300, seed=5)
        reps = compare_orderings(g, [RCBOrdering(), IdentityOrdering()], (2,))
        assert len(reps) == 2
        row = reps[0].as_row((2,))
        assert row[0] == "rcb" and len(row) == 4

    def test_nonuniform_capabilities_splits(self):
        g = paper_mesh(300, seed=5)
        rep = evaluate_ordering(
            g, RCBOrdering(), part_counts=(3,),
            capabilities=np.array([3.0, 1.0, 1.0]),
        )
        assert rep.cuts[3] >= 0
