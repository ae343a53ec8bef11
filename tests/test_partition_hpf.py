"""Tests for HPF-style distributions and redistribution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError, RankFailedError
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.partition.hpf import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    hpf_transfer_summary,
    redistribute_hpf,
)

ALL_KINDS = [
    lambda n, p: BlockDistribution(n, p),
    lambda n, p: CyclicDistribution(n, p),
    lambda n, p: BlockCyclicDistribution(n, p, 1),
    lambda n, p: BlockCyclicDistribution(n, p, 3),
    lambda n, p: BlockCyclicDistribution(n, p, 7),
]


class TestDistributions:
    def test_block_layout(self):
        d = BlockDistribution(10, 3)  # blocks of 4
        np.testing.assert_array_equal(
            d.owner_of(np.arange(10)), [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        )
        np.testing.assert_array_equal(d.global_indices(1), [4, 5, 6, 7])

    def test_cyclic_layout(self):
        d = CyclicDistribution(10, 3)
        np.testing.assert_array_equal(
            d.owner_of(np.arange(6)), [0, 1, 2, 0, 1, 2]
        )
        np.testing.assert_array_equal(d.global_indices(1), [1, 4, 7])

    def test_block_cyclic_layout(self):
        d = BlockCyclicDistribution(12, 2, 3)
        np.testing.assert_array_equal(
            d.owner_of(np.arange(12)),
            [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1],
        )
        np.testing.assert_array_equal(d.global_indices(0), [0, 1, 2, 6, 7, 8])

    def test_cyclic_equals_block_cyclic_1(self):
        c = CyclicDistribution(17, 4)
        bc = BlockCyclicDistribution(17, 4, 1)
        gi = np.arange(17)
        np.testing.assert_array_equal(c.owner_of(gi), bc.owner_of(gi))

    def test_block_equals_big_block_cyclic(self):
        b = BlockDistribution(12, 3)
        bc = BlockCyclicDistribution(12, 3, 4)
        gi = np.arange(12)
        np.testing.assert_array_equal(b.owner_of(gi), bc.owner_of(gi))

    @pytest.mark.parametrize("make", ALL_KINDS)
    def test_partition_properties(self, make):
        d = make(29, 4)
        gi = np.arange(29)
        owners = d.owner_of(gi)
        assert owners.min() >= 0 and owners.max() < 4
        # global_indices inverts owner_of.
        seen = np.concatenate([d.global_indices(r) for r in range(4)])
        assert np.array_equal(np.sort(seen), gi)

    def test_validation(self):
        with pytest.raises(PartitionError):
            BlockDistribution(-1, 2)
        with pytest.raises(PartitionError):
            BlockDistribution(5, 0)
        with pytest.raises(PartitionError):
            BlockCyclicDistribution(5, 2, 0)
        with pytest.raises(PartitionError):
            BlockDistribution(5, 2).owner_of(np.array([5]))
        with pytest.raises(PartitionError):
            BlockDistribution(5, 2).global_indices(2)


class TestTransferSummary:
    def test_identity_moves_nothing(self):
        b = BlockDistribution(40, 4)
        summary = hpf_transfer_summary(b, b)
        assert summary["moved_elements"] == 0
        assert summary["messages"] == 0

    def test_block_to_cyclic_moves_most(self):
        n, p = 100, 4
        summary = hpf_transfer_summary(
            BlockDistribution(n, p), CyclicDistribution(n, p)
        )
        # Each block keeps only its ~n/p^2 stride-aligned elements:
        # here exactly 7 per block stay, 72 of 100 move.
        assert summary["moved_elements"] == 72
        assert summary["stationary_elements"] == 28
        assert summary["messages"] == p * (p - 1)

    def test_incompatible_rejected(self):
        with pytest.raises(PartitionError):
            hpf_transfer_summary(BlockDistribution(10, 2), BlockDistribution(12, 2))
        with pytest.raises(PartitionError):
            hpf_transfer_summary(BlockDistribution(10, 2), BlockDistribution(10, 3))


class TestRedistributeHPF:
    @pytest.mark.parametrize("src_make", ALL_KINDS)
    @pytest.mark.parametrize("dst_make", ALL_KINDS)
    def test_all_pairs_roundtrip(self, src_make, dst_make):
        n, p = 53, 3
        src, dst = src_make(n, p), dst_make(n, p)
        data = np.arange(n, dtype=np.float64) * 1.5

        def fn(ctx):
            local = data[src.global_indices(ctx.rank)].copy()
            out = redistribute_hpf(ctx, src, dst, local)
            np.testing.assert_array_equal(out, data[dst.global_indices(ctx.rank)])
            return True

        assert all(run_spmd(uniform_cluster(p), fn).values)

    def test_vector_payload(self):
        n, p = 30, 3
        src = BlockDistribution(n, p)
        dst = CyclicDistribution(n, p)
        data = np.random.default_rng(0).uniform(size=(n, 2))

        def fn(ctx):
            local = data[src.global_indices(ctx.rank)].copy()
            out = redistribute_hpf(ctx, src, dst, local)
            np.testing.assert_array_equal(out, data[dst.global_indices(ctx.rank)])
            return True

        assert all(run_spmd(uniform_cluster(p), fn).values)

    def test_wrong_local_size_rejected(self):
        n, p = 20, 2
        src, dst = BlockDistribution(n, p), CyclicDistribution(n, p)

        def fn(ctx):
            redistribute_hpf(ctx, src, dst, np.zeros(3))

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(p), fn)

    @given(
        n=st.integers(1, 120),
        p=st.integers(1, 4),
        b=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_to_blockcyclic_property(self, n, p, b):
        src = BlockDistribution(n, p)
        dst = BlockCyclicDistribution(n, p, b)
        data = np.random.default_rng(n + p + b).uniform(size=n)

        def fn(ctx):
            local = data[src.global_indices(ctx.rank)].copy()
            out = redistribute_hpf(ctx, src, dst, local)
            np.testing.assert_array_equal(out, data[dst.global_indices(ctx.rank)])
            return True

        assert all(run_spmd(uniform_cluster(p), fn).values)
