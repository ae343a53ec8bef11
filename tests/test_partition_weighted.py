"""Tests for weighted contiguous partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.intervals import partition_list
from repro.partition.weighted import partition_weighted_list


class TestPartitionWeightedList:
    def test_uniform_weights_match_count_split(self):
        w = np.ones(100)
        wp = partition_weighted_list(w, [0.5, 0.3, 0.2])
        cp = partition_list(100, [0.5, 0.3, 0.2])
        np.testing.assert_array_equal(wp.bounds, cp.bounds)

    def test_skewed_weights_shift_boundary(self):
        # All weight in the first 10 elements: an equal 2-way split puts
        # the boundary inside the heavy prefix.
        w = np.concatenate([np.full(10, 100.0), np.full(90, 1.0)])
        part = partition_weighted_list(w, [1.0, 1.0])
        lo0, hi0 = part.interval(0)
        assert hi0 <= 11  # first block ends within the heavy region

    def test_capability_proportionality(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0.5, 2.0, 5000)
        caps = np.array([3.0, 1.0, 1.0])
        part = partition_weighted_list(w, caps)
        shares = [w[slice(*part.interval(r))].sum() / w.sum() for r in range(3)]
        assert max(shares / (caps / caps.sum())) < 1.05

    def test_zero_weights_fall_back_to_counts(self):
        part = partition_weighted_list(np.zeros(40), [1.0, 3.0])
        np.testing.assert_array_equal(part.sizes(), [10, 30])

    def test_huge_single_element(self):
        # One element dwarfs everything: later blocks may be empty but the
        # partition stays valid and covers [0, n).
        w = np.ones(20)
        w[5] = 1e9
        part = partition_weighted_list(w, np.ones(4))
        assert part.num_elements == 20
        assert part.sizes().sum() == 20

    def test_rejects_negative_weights(self):
        with pytest.raises(PartitionError):
            partition_weighted_list(np.array([1.0, -1.0]), [1.0])

    def test_rejects_2d_weights(self):
        with pytest.raises(PartitionError):
            partition_weighted_list(np.ones((3, 2)), [1.0])

    @given(
        seed=st.integers(0, 100),
        n=st.integers(1, 1000),
        p=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, seed, n, p):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 5.0, n)
        caps = rng.dirichlet(np.ones(p)) + 0.05
        part = partition_weighted_list(w, caps)
        assert part.num_elements == n
        assert part.num_processors == p
        assert part.sizes().sum() == n
        # Boundaries respect the prefix-sum rule within one element's weight.
        if w.sum() > 0:
            total = w.sum()
            fair = caps / caps.sum()
            for r in range(p):
                lo, hi = part.interval(r)
                share = w[lo:hi].sum() / total
                # Each block's share is within one max-element of fair.
                assert share <= fair[r] + (w.max() / total) + 1e-9
