"""Tests for the translation mechanisms (Sec. 3.2, Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_runtime import dereference_oracle
from repro.errors import TranslationError
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.obs import summarize
from repro.partition.intervals import partition_list
from repro.runtime.translation import (
    DistributedTranslationTable,
    table_home,
)


class TestIntervalTable:
    def test_matches_partition(self):
        part = partition_list(100, [0.27, 0.18, 0.34, 0.07, 0.14])
        gi = np.arange(100)
        owner, local = part.dereference(gi)
        o2, l2 = dereference_oracle(part, gi)
        np.testing.assert_array_equal(owner, o2)
        np.testing.assert_array_equal(local, l2)


class TestTableHome:
    def test_block_distribution(self):
        homes = table_home(np.arange(10), 10, 2)
        np.testing.assert_array_equal(homes, [0] * 5 + [1] * 5)

    def test_uneven_blocks(self):
        homes = table_home(np.arange(10), 10, 3)
        np.testing.assert_array_equal(homes, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])

    def test_last_rank_clamped(self):
        assert table_home(np.array([9]), 10, 4)[0] == 3

    def test_rejects_bad_params(self):
        with pytest.raises(TranslationError):
            table_home(np.array([0]), 0, 2)

    @given(n=st.integers(1, 500), p=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_all_indices_have_valid_home(self, n, p):
        homes = table_home(np.arange(n), n, p)
        assert homes.min() >= 0 and homes.max() < p
        # Block distribution is monotone non-decreasing.
        assert np.all(np.diff(homes) >= 0)


class TestDistributedTable:
    def test_local_block_contents(self):
        part = partition_list(20, [1, 1], arrangement=[1, 0])
        t0 = DistributedTranslationTable(part, 0)
        owner, local = t0.lookup_local(np.arange(0, 10))
        o2, l2 = part.dereference(np.arange(0, 10))
        np.testing.assert_array_equal(owner, o2)
        np.testing.assert_array_equal(local, l2)

    def test_lookup_outside_block_rejected(self):
        part = partition_list(20, [1, 1])
        t0 = DistributedTranslationTable(part, 0)
        with pytest.raises(TranslationError):
            t0.lookup_local(np.array([15]))

    def test_memory_split(self):
        # Each rank's slice of the table is n/p entries: its home block.
        part = partition_list(1000, np.ones(4))
        homes = table_home(np.arange(1000), 1000, 4)
        np.testing.assert_array_equal(np.bincount(homes), [250] * 4)
        for rank in range(4):
            block = np.flatnonzero(homes == rank)
            owner, _ = DistributedTranslationTable(part, rank).lookup_local(block)
            assert owner.size == 250

    def test_collective_dereference_matches_oracle(self):
        part = partition_list(60, [0.2, 0.5, 0.3], arrangement=[2, 0, 1])

        def fn(ctx):
            table = DistributedTranslationTable(part, ctx.rank)
            rng = np.random.default_rng(ctx.rank)
            queries = rng.integers(0, 60, size=15)
            owner, local = table.dereference_collective(ctx, queries)
            o2, l2 = part.dereference(queries)
            np.testing.assert_array_equal(owner, o2)
            np.testing.assert_array_equal(local, l2)
            return True

        res = run_spmd(uniform_cluster(3), fn)
        assert all(res.values)

    def test_collective_dereference_empty_queries(self):
        part = partition_list(30, np.ones(3))

        def fn(ctx):
            table = DistributedTranslationTable(part, ctx.rank)
            queries = (
                np.arange(5) if ctx.rank == 0 else np.empty(0, dtype=np.intp)
            )
            owner, _ = table.dereference_collective(ctx, queries)
            return owner.size

        res = run_spmd(uniform_cluster(3), fn)
        assert res.values == [5, 0, 0]

    def test_collective_requires_communication(self):
        """Dereferencing through the distributed table generates messages —
        the cost the interval table avoids (the paper's core argument)."""
        part = partition_list(40, [1, 1])

        def fn(ctx):
            table = DistributedTranslationTable(part, ctx.rank)
            # Rank 0 asks about an element whose table entry rank 1 holds.
            queries = np.array([35]) if ctx.rank == 0 else np.empty(0, np.intp)
            table.dereference_collective(ctx, queries)

        res = run_spmd(uniform_cluster(2), fn, trace=True)
        assert sum(summarize(res.trace).messages_by_tag.values()) > 0
