"""The scalar loops of ``oracles_runtime`` against the numpy idiom each
one's docstring names as its counterpart.

``test_runtime_oracles.py`` compares the runtime's functions with these
loops; the tests here check the loops themselves, one by one, so a wrong
oracle cannot vouch for a wrong implementation.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles_runtime import (
    dedup_first_seen_loop,
    group_by_owner_loop,
    kernel_slots_loop,
    pack_loop,
    recv_side_sorted_loop,
    scatter_add_loop,
    slab_bounds_loop,
    slab_pack_loop,
    slab_unpack_loop,
    unpack_loop,
)
from repro.errors import ScheduleError
from repro.partition.intervals import partition_list

#: (trailing shape, dtype) of the field arrays the executor moves.
FIELDS = [
    ((), np.float64),
    ((3,), np.float64),
    ((), np.int64),
    ((2, 2), np.float32),
]
FIELD_IDS = ["scalar-f8", "vector-f8", "scalar-i8", "matrix-f4"]


def _field(rng, n, shape, dtype):
    return (rng.uniform(-5, 5, size=(n,) + shape) * 7).astype(dtype)


class TestPack:
    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_pack_matches_fancy_index(self, shape, dtype):
        rng = np.random.default_rng(1)
        data = _field(rng, 20, shape, dtype)
        idx = rng.integers(0, 20, size=13)
        buf = pack_loop(data, idx)
        assert buf.dtype == data.dtype and buf.shape == data[idx].shape
        np.testing.assert_array_equal(buf, data[idx])

    def test_pack_empty_index(self):
        data = np.arange(6.0).reshape(3, 2)
        buf = pack_loop(data, np.empty(0, dtype=np.intp))
        assert buf.shape == (0, 2)

    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_unpack_matches_fancy_assignment(self, shape, dtype):
        rng = np.random.default_rng(2)
        payload = _field(rng, 6, shape, dtype)
        pos = rng.permutation(10)[:6]
        got = np.zeros((10,) + shape, dtype=dtype)
        want = np.zeros_like(got)
        unpack_loop(got, pos, payload)
        want[pos] = payload
        np.testing.assert_array_equal(got, want)


class TestScatter:
    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_add_matches_add_at_with_duplicates(self, shape, dtype):
        rng = np.random.default_rng(3)
        local = _field(rng, 8, shape, dtype)
        idx = np.array([0, 3, 3, 7, 0, 3], dtype=np.intp)
        payload = _field(rng, idx.size, shape, dtype)
        got, want = local.copy(), local.copy()
        scatter_add_loop(got, idx, payload)
        np.add.at(want, idx, payload)
        np.testing.assert_array_equal(got, want)


class TestSlabs:
    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_slab_pack_matches_slice(self, shape, dtype):
        data = _field(np.random.default_rng(5), 12, shape, dtype)
        buf = slab_pack_loop(data, 3, 9)
        assert buf.flags.c_contiguous
        np.testing.assert_array_equal(buf, np.ascontiguousarray(data[3:9]))

    def test_slab_pack_empty(self):
        assert slab_pack_loop(np.arange(5.0), 2, 2).shape == (0,)

    @pytest.mark.parametrize("shape,dtype", FIELDS, ids=FIELD_IDS)
    def test_slab_unpack_matches_slice_assignment(self, shape, dtype):
        rng = np.random.default_rng(6)
        payload = _field(rng, 4, shape, dtype)
        got = np.zeros((10,) + shape, dtype=dtype)
        want = got.copy()
        slab_unpack_loop(got, 5, payload)
        want[5:9] = payload
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "slabs", [[], [(0, 1)], [(2, 4), (6, 9)], [(1000, 1003), (7, 19)]]
    )
    def test_slab_bounds_interleave_the_pairs(self, slabs):
        got = slab_bounds_loop(slabs)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(
            got, np.array(slabs, dtype=np.intp).reshape(-1)
        )


class TestDedupAndGrouping:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dedup_keeps_first_appearance_order(self, seed):
        values = np.random.default_rng(seed).integers(0, 15, size=40)
        _, first = np.unique(values, return_index=True)
        want = values[np.sort(first)]
        np.testing.assert_array_equal(dedup_first_seen_loop(values), want)

    def test_dedup_empty(self):
        out = dedup_first_seen_loop(np.empty(0, dtype=np.intp))
        assert out.dtype == np.intp and out.size == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_group_by_owner_matches_stable_argsort(self, seed):
        owners = np.random.default_rng(seed).integers(0, 5, size=30)
        groups = group_by_owner_loop(owners)
        order = np.argsort(owners, kind="stable")
        assert sorted(groups) == sorted(np.unique(owners).tolist())
        for owner, positions in groups.items():
            want = order[owners[order] == owner]
            np.testing.assert_array_equal(positions, want)


class TestTranslation:
    def test_kernel_slots_local_and_ghost(self):
        ghost = np.array([2, 11, 14], dtype=np.intp)
        nbr = np.array([5, 14, 2, 9, 11, 5], dtype=np.intp)
        slots = kernel_slots_loop(nbr, 5, 10, ghost)
        n_local = 5
        want = np.where(
            (nbr >= 5) & (nbr < 10),
            nbr - 5,
            n_local + np.searchsorted(ghost, nbr),
        )
        np.testing.assert_array_equal(slots, want)

    def test_kernel_slots_request_ordered_buffer(self):
        ghost = np.array([14, 2, 11], dtype=np.intp)  # not sorted
        slots = kernel_slots_loop(np.array([2, 11, 14]), 5, 10, ghost)
        np.testing.assert_array_equal(slots, [5 + 1, 5 + 2, 5 + 0])

    def test_kernel_slots_missing_ghost_raises(self):
        with pytest.raises(ScheduleError, match="missing"):
            kernel_slots_loop(np.array([3]), 5, 10, np.array([2], dtype=np.intp))

    def test_recv_side_groups_runs_by_owner(self):
        part = partition_list(40, [1.0, 1.0, 1.0, 1.0])  # blocks of 10
        ghosts = np.array([1, 4, 25, 26, 33], dtype=np.intp)
        recv = recv_side_sorted_loop(part, 1, ghosts)
        assert sorted(recv) == [0, 2, 3]
        np.testing.assert_array_equal(recv[0], [0, 1])
        np.testing.assert_array_equal(recv[2], [2, 3])
        np.testing.assert_array_equal(recv[3], [4])

    def test_recv_side_rejects_own_element(self):
        part = partition_list(40, [1.0, 1.0])
        with pytest.raises(ScheduleError, match="itself"):
            recv_side_sorted_loop(part, 0, np.array([3], dtype=np.intp))
