"""Tests for proportional interval partitioning and dereferencing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition.intervals import (
    IntervalPartition,
    partition_list,
    proportional_sizes,
)


class TestProportionalSizes:
    def test_exact_division(self):
        np.testing.assert_array_equal(
            proportional_sizes(100, [0.27, 0.18, 0.34, 0.07, 0.14]),
            [27, 18, 34, 7, 14],
        )

    def test_rounding_conserves_total(self):
        sizes = proportional_sizes(10, [1, 1, 1])
        assert sizes.sum() == 10

    def test_within_one_of_exact(self):
        caps = np.array([0.5, 0.3, 0.2])
        sizes = proportional_sizes(7, caps)
        exact = 7 * caps
        assert np.all(np.abs(sizes - exact) < 1.0)

    def test_zero_elements(self):
        np.testing.assert_array_equal(proportional_sizes(0, [1, 2]), [0, 0])

    def test_zero_capability_gets_zero(self):
        sizes = proportional_sizes(10, [1.0, 0.0])
        np.testing.assert_array_equal(sizes, [10, 0])

    def test_rejects_negative_n(self):
        with pytest.raises(PartitionError):
            proportional_sizes(-1, [1.0])

    def test_deterministic_tie_break(self):
        a = proportional_sizes(5, [1, 1])
        b = proportional_sizes(5, [1, 1])
        np.testing.assert_array_equal(a, b)
        assert a[0] == 3  # lower index wins the tie

    @given(
        n=st.integers(0, 10_000),
        caps=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, n, caps):
        sizes = proportional_sizes(n, caps)
        assert sizes.sum() == n
        assert np.all(sizes >= 0)
        caps_arr = np.asarray(caps)
        exact = n * caps_arr / caps_arr.sum()
        assert np.all(np.abs(sizes - exact) <= 1.0 + 1e-9)


class TestIntervalPartition:
    def test_identity_arrangement(self):
        part = partition_list(10, [0.5, 0.5])
        assert part.interval(0) == (0, 5)
        assert part.interval(1) == (5, 10)
        assert part.num_elements == 10
        assert part.num_processors == 2

    def test_arrangement_reorders_blocks(self):
        part = partition_list(10, [0.8, 0.2], arrangement=[1, 0])
        assert part.interval(1) == (0, 2)  # P1's block placed first
        assert part.interval(0) == (2, 10)

    def test_sizes_indexed_by_rank(self):
        part = partition_list(10, [0.8, 0.2], arrangement=[1, 0])
        np.testing.assert_array_equal(part.sizes(), [8, 2])

    def test_block_of(self):
        part = partition_list(10, [0.5, 0.5], arrangement=[1, 0])
        assert part.block_of(1) == 0
        assert part.block_of(0) == 1
        with pytest.raises(PartitionError):
            part.block_of(5)

    def test_owner_of_scalar_and_array(self):
        part = partition_list(10, [0.5, 0.5])
        assert part.owner_of(3) == 0
        assert part.owner_of(5) == 1
        np.testing.assert_array_equal(
            part.owner_of(np.array([0, 4, 5, 9])), [0, 0, 1, 1]
        )

    def test_owner_of_out_of_range(self):
        part = partition_list(10, [1.0])
        with pytest.raises(PartitionError):
            part.owner_of(10)
        with pytest.raises(PartitionError):
            part.owner_of(-1)

    def test_dereference_pairs(self):
        part = partition_list(100, [0.27, 0.18, 0.34, 0.07, 0.14])
        owner, local = part.dereference(np.array([0, 26, 27, 99]))
        np.testing.assert_array_equal(owner, [0, 0, 1, 4])
        np.testing.assert_array_equal(local, [0, 26, 0, 13])

    def test_dereference_local_offsets(self):
        part = partition_list(10, [0.5, 0.5], arrangement=[1, 0])
        owner, local = part.dereference(np.array([7, 0, 5, 4]))
        np.testing.assert_array_equal(owner, [0, 1, 0, 1])
        np.testing.assert_array_equal(local, [2, 0, 0, 4])

    def test_intervals_tile_the_list(self):
        part = partition_list(10, [0.3, 0.5, 0.2], arrangement=[2, 0, 1])
        blocks = sorted(part.interval(r) for r in range(3))
        assert blocks == [(0, 2), (2, 5), (5, 10)]

    def test_to_labels(self):
        part = partition_list(6, [1, 2], arrangement=[1, 0])
        np.testing.assert_array_equal(part.to_labels(), [1, 1, 1, 1, 0, 0])

    def test_empty_block_handled(self):
        part = partition_list(3, [1.0, 0.0, 1.0])
        sizes = part.sizes()
        assert sizes.sum() == 3
        assert sizes[1] == 0
        lo, hi = part.interval(1)
        assert lo == hi
        # Every element still resolves to a non-empty owner.
        owners = part.owner_of(np.arange(3))
        assert 1 not in owners.tolist()

    def test_validation_bounds_start(self):
        with pytest.raises(PartitionError):
            IntervalPartition(np.array([1, 5]), np.array([0]))

    def test_validation_bounds_monotone(self):
        with pytest.raises(PartitionError):
            IntervalPartition(np.array([0, 5, 3]), np.array([0, 1]))

    def test_validation_owner_permutation(self):
        with pytest.raises(ValueError):
            IntervalPartition(np.array([0, 5, 10]), np.array([0, 0]))

    def test_validation_length_mismatch(self):
        with pytest.raises(PartitionError):
            IntervalPartition(np.array([0, 10]), np.array([0, 1]))

    def test_capability_proportional_to_speed(self):
        part = partition_list(100, [2.0, 1.0, 1.0])
        np.testing.assert_array_equal(part.sizes(), [50, 25, 25])

    @given(
        n=st.integers(1, 2000),
        caps=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_dereference_consistency(self, n, caps, data):
        p = len(caps)
        arrangement = np.array(data.draw(st.permutations(list(range(p)))))
        part = partition_list(n, caps, arrangement)
        # every global index belongs to exactly the interval of its owner
        gi = np.arange(n)
        owner, local = part.dereference(gi)
        for r in range(p):
            lo, hi = part.interval(r)
            mine = gi[owner == r]
            assert np.all((mine >= lo) & (mine < hi))
            np.testing.assert_array_equal(local[owner == r], mine - lo)
        # labels round-trip
        np.testing.assert_array_equal(part.to_labels(), owner)
