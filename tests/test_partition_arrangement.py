"""Tests for arrangements, MOVE, overlap accounting, and MCR (Figs. 5-7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_partition import (
    brute_force_oracle,
    gain_oracle,
    mcr_oracle,
    messages_oracle,
    move,
    overlap_oracle,
)
from repro.errors import PartitionError
from repro.net.network import PointToPointNetwork
from repro.partition import arrangement as arrangement_module
from repro.partition.arrangement import (
    RedistributionCostModel,
    _row_bounds,
    _score_rows,
    brute_force_arrangement,
    message_count,
    minimize_cost_redistribution,
    overlap_elements,
    redistribution_gain,
    transfer_matrix,
)
from repro.partition.intervals import (
    IntervalPartition,
    partition_list,
    proportional_sizes,
)

# The paper's Sec. 3.4 example.
OLD_CAP = [0.27, 0.18, 0.34, 0.07, 0.14]
NEW_CAP = [0.10, 0.13, 0.29, 0.24, 0.24]


class TestMove:
    def test_paper_example(self):
        np.testing.assert_array_equal(
            move([1, 3, 5, 4, 6], 5, 0), [5, 1, 3, 4, 6]
        )

    def test_move_to_end(self):
        np.testing.assert_array_equal(move([0, 1, 2], 0, 2), [1, 2, 0])

    def test_move_in_place(self):
        np.testing.assert_array_equal(move([0, 1, 2], 1, 1), [0, 1, 2])

    def test_move_right_to_left(self):
        np.testing.assert_array_equal(move([0, 1, 2, 3], 3, 1), [0, 3, 1, 2])

    def test_missing_element(self):
        with pytest.raises(PartitionError):
            move([0, 1, 2], 9, 0)

    def test_bad_location(self):
        with pytest.raises(PartitionError):
            move([0, 1, 2], 1, 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_move_is_permutation(self, data):
        n = data.draw(st.integers(1, 8))
        arr = data.draw(st.permutations(list(range(n))))
        c = data.draw(st.sampled_from(list(arr)))
        loc = data.draw(st.integers(0, n - 1))
        out = move(arr, c, loc)
        assert sorted(out.tolist()) == list(range(n))
        assert out[loc] == c


class TestOverlapAndTransfers:
    def test_identity_partitions_full_overlap(self):
        part = partition_list(100, OLD_CAP)
        assert overlap_elements(part, part) == 100
        assert message_count(part, part) == 0
        assert transfer_matrix(part, part) == []

    def test_paper_identity_numbers(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        # Paper reports 29 overlap / 5 messages; exact proportional
        # rounding gives 31 / 6 (same shape; see docs/benchmarks.md).
        assert overlap_elements(old, new) == 31
        assert message_count(old, new) == 6

    def test_paper_good_arrangement_numbers(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP, [0, 3, 1, 2, 4])
        # Paper: 65 overlap / 3 messages; rounding gives 64 / 5.
        assert overlap_elements(old, new) == 64
        assert message_count(old, new) == 5

    def test_transfers_partition_the_moved_elements(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        transfers = transfer_matrix(old, new)
        moved = sum(t.count for t in transfers)
        assert moved == 100 - overlap_elements(old, new)
        # Slabs are disjoint and ordered.
        for a, b in zip(transfers, transfers[1:]):
            assert a.hi <= b.lo

    def test_transfers_source_dest_correct(self):
        old = partition_list(10, [0.5, 0.5])
        new = partition_list(10, [0.2, 0.8])
        (t,) = transfer_matrix(old, new)
        assert (t.source, t.dest, t.lo, t.hi) == (0, 1, 2, 5)

    def test_mismatched_sizes_rejected(self):
        a = partition_list(10, [1.0, 1.0])
        b = partition_list(12, [1.0, 1.0])
        with pytest.raises(PartitionError):
            overlap_elements(a, b)

    def test_mismatched_processor_counts_rejected(self):
        a = partition_list(10, [1.0, 1.0])
        b = partition_list(10, [1.0, 1.0, 1.0])
        with pytest.raises(PartitionError):
            overlap_elements(a, b)

    def test_gain_tradeoff(self):
        old = partition_list(100, OLD_CAP)
        new = partition_list(100, NEW_CAP)
        g_free = redistribution_gain(old, new, RedistributionCostModel(1.0, 0.0))
        g_priced = redistribution_gain(old, new, RedistributionCostModel(1.0, 10.0))
        assert g_free == 31
        assert g_priced == 31 - 60

    def test_cost_model_validation(self):
        with pytest.raises(PartitionError):
            RedistributionCostModel(element_weight=-1.0)

    def test_cost_model_from_network(self):
        from repro.net.network import PointToPointNetwork

        net = PointToPointNetwork(latency=1e-3, bandwidth=1e6,
                                  per_message_overhead=5e-4)
        cm = RedistributionCostModel.from_network(net, 8)
        assert cm.element_weight == pytest.approx(8e-6)
        assert cm.message_weight == pytest.approx(1.5e-3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_overlap_symmetry_and_bounds(self, data):
        n = data.draw(st.integers(1, 500))
        p = data.draw(st.integers(1, 6))
        caps_a = data.draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p))
        caps_b = data.draw(st.lists(st.floats(0.05, 3.0), min_size=p, max_size=p))
        a = partition_list(n, caps_a)
        b = partition_list(n, caps_b)
        ov = overlap_elements(a, b)
        assert 0 <= ov <= n
        assert ov == overlap_elements(b, a)
        moved = sum(t.count for t in transfer_matrix(a, b))
        assert moved == n - ov


class TestMCR:
    def test_recovers_paper_arrangement(self):
        arr = minimize_cost_redistribution(np.arange(5), OLD_CAP, NEW_CAP, 100)
        np.testing.assert_array_equal(arr, [0, 3, 1, 2, 4])

    def test_result_is_permutation(self):
        arr = minimize_cost_redistribution(np.arange(5), OLD_CAP, NEW_CAP, 100)
        assert sorted(arr.tolist()) == list(range(5))

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(7)
        cm = RedistributionCostModel(message_weight=0.0)
        for _ in range(20):
            p = int(rng.integers(2, 7))
            oc = rng.dirichlet(np.ones(p)) + 0.02
            nc = rng.dirichlet(np.ones(p)) + 0.02
            old = partition_list(400, oc)
            arr = minimize_cost_redistribution(
                np.arange(p), oc, nc, 400, cost_model=cm
            )
            chosen = partition_list(400, nc, arr)
            identity = partition_list(400, nc)
            assert overlap_elements(old, chosen) >= overlap_elements(
                old, identity
            )

    def test_close_to_brute_force(self):
        rng = np.random.default_rng(3)
        cm = RedistributionCostModel(message_weight=1.0)
        ratios = []
        for _ in range(15):
            p = int(rng.integers(3, 6))
            oc = rng.dirichlet(np.ones(p)) + 0.02
            nc = rng.dirichlet(np.ones(p)) + 0.02
            old = partition_list(600, oc)
            greedy = minimize_cost_redistribution(
                np.arange(p), oc, nc, 600, cost_model=cm
            )
            best, _ = brute_force_arrangement(
                np.arange(p), oc, nc, 600, cost_model=cm
            )
            g = overlap_elements(old, partition_list(600, nc, greedy))
            b = overlap_elements(old, partition_list(600, nc, best))
            ratios.append(g / max(b, 1))
        assert np.mean(ratios) > 0.9  # "good suboptimal results"

    def test_no_adaptation_keeps_arrangement(self):
        caps = [0.4, 0.3, 0.3]
        arr = minimize_cost_redistribution(np.arange(3), caps, caps, 300)
        np.testing.assert_array_equal(arr, [0, 1, 2])

    def test_nonidentity_start_arrangement(self):
        start = np.array([2, 0, 1])
        arr = minimize_cost_redistribution(start, [1, 1, 1], [1, 1, 1], 90)
        np.testing.assert_array_equal(arr, start)

    def test_capability_length_mismatch(self):
        with pytest.raises(PartitionError):
            minimize_cost_redistribution(np.arange(3), [1, 1], [1, 1, 1], 10)

    def test_negative_elements_rejected(self):
        with pytest.raises(PartitionError):
            minimize_cost_redistribution(np.arange(2), [1, 1], [1, 1], -5)

    def test_brute_force_p_limit(self):
        with pytest.raises(PartitionError):
            brute_force_arrangement(np.arange(10), np.ones(10), np.ones(10), 10)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_mcr_gain_at_least_identity_gain(self, data):
        p = data.draw(st.integers(2, 5))
        oc = data.draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
        nc = data.draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
        n = data.draw(st.integers(p, 300))
        cm = RedistributionCostModel(message_weight=2.0)
        old = partition_list(n, oc)
        arr = minimize_cost_redistribution(np.arange(p), oc, nc, n, cost_model=cm)
        g_chosen = redistribution_gain(old, partition_list(n, nc, arr), cm)
        g_ident = redistribution_gain(old, partition_list(n, nc), cm)
        assert g_chosen >= g_ident - 1e-9


# ------------------------------------------------------------------ #
# the batch row scorer against the per-candidate bodies it replaced
# ------------------------------------------------------------------ #

NETWORK_COST = RedistributionCostModel.from_network(
    PointToPointNetwork(latency=1e-3, bandwidth=1e6, per_message_overhead=5e-4), 8
)
SWEEP_ELEMENTS = (0, 1, 7, 264, 30_269, 492_699)
CAPABILITY_KINDS = ("equal", "tied", "integer", "standby", "random")
#: (non-identity start?, cost model) — a prefix of this is run per (n, kind).
SWEEP_VARIANTS = (
    (False, RedistributionCostModel()),
    (True, NETWORK_COST),
    (True, RedistributionCostModel()),
    (False, NETWORK_COST),
)
#: How many draws per (n, kind) at each p: the oracle costs ~p^3.
SWEEP_DRAWS = {1: 8, 2: 8, 3: 8, 5: 8, 8: 4, 16: 2, 20: 1}


def _capabilities(kind: str, p: int, rng: np.random.Generator):
    """(old, new) capability vectors of one *kind*."""
    if kind == "equal":  # every remainder of every candidate ties
        return rng.random(p) + 0.05, np.ones(p)
    if kind == "tied":
        return np.ones(p), rng.integers(1, 4, p).astype(float)
    if kind == "integer":
        return rng.integers(1, 4, p).astype(float), rng.integers(1, 4, p).astype(float)
    old, new = rng.random(p) + 0.05, rng.random(p) + 0.05
    if kind == "standby" and p > 1:  # an elastic standby rank owns nothing
        old[rng.integers(p)] = 0.0
        new[rng.integers(p)] = 0.0
    return old, new


def _random_partition(n: int, p: int, rng: np.random.Generator) -> IntervalPartition:
    """Any bounds at all: empty blocks, everything in one block, n = 0."""
    inner = rng.integers(0, n + 1, size=p - 1)
    if p > 2 and rng.random() < 0.5:
        inner[rng.integers(p - 1)] = inner[0]  # force a repeated cut
    bounds = np.concatenate([[0], np.sort(inner), [n]])
    return IntervalPartition(bounds=bounds, owners=rng.permutation(p))


class TestBatchScorer:
    @pytest.mark.parametrize("p", sorted(SWEEP_DRAWS))
    def test_mcr_equals_oracle_on_seeded_sweep(self, p):
        # 1,170 instances over all p: every n x kind, and per draw a start
        # arrangement and a cost model.
        rng = np.random.default_rng(1996 + p)
        for n in SWEEP_ELEMENTS:
            for k, kind in enumerate(CAPABILITY_KINDS):
                for draw in range(SWEEP_DRAWS[p]):
                    shuffled, cost = SWEEP_VARIANTS[(draw + k) % 4]
                    start = rng.permutation(p) if shuffled else np.arange(p)
                    old, new = _capabilities(kind, p, rng)
                    got = minimize_cost_redistribution(
                        start, old, new, n, cost_model=cost
                    )
                    want = mcr_oracle(start, old, new, n, cost_model=cost)
                    np.testing.assert_array_equal(
                        got, want, err_msg=f"p={p} n={n} {kind} draw {draw}"
                    )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mcr_equals_oracle_property(self, data):
        p = data.draw(st.integers(1, 6))
        caps = st.lists(st.floats(0.0, 3.0), min_size=p, max_size=p).filter(
            lambda c: sum(c) > 0
        )
        old, new = data.draw(caps), data.draw(caps)
        start = np.array(data.draw(st.permutations(list(range(p)))))
        n = data.draw(st.integers(0, 500))
        weight = data.draw(st.sampled_from([0.0, 1.0, 2.0, 7.5]))
        cost = RedistributionCostModel(message_weight=weight)
        np.testing.assert_array_equal(
            minimize_cost_redistribution(start, old, new, n, cost_model=cost),
            mcr_oracle(start, old, new, n, cost_model=cost),
        )

    @pytest.mark.parametrize("p", [1, 2, 5, 7, 8, 9, 16, 20])
    def test_row_bounds_are_proportional_sizes_row_by_row(self, p):
        # A row's capability sum is taken in the row's own order; this is
        # where a 2-D sum that added in another order would show.
        rng = np.random.default_rng(p)
        for kind in CAPABILITY_KINDS:
            _, caps = _capabilities(kind, p, rng)
            rows = np.array([rng.permutation(p) for _ in range(40)])
            for n in SWEEP_ELEMENTS:
                bounds = _row_bounds(n, caps, rows)
                assert bounds.dtype == np.intp
                for row, got in zip(rows, bounds):
                    np.testing.assert_array_equal(
                        np.diff(got), proportional_sizes(n, caps[row])
                    )
                    assert got[0] == 0 and got[-1] == n

    def test_scores_equal_oracle_on_partitions_with_empty_blocks(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = int(rng.integers(1, 9))
            n = int(rng.choice([0, 1, 5, 40, 1000]))
            old = _random_partition(n, p, rng)
            news = [_random_partition(n, p, rng) for _ in range(4)]
            overlap, messages = _score_rows(
                old.bounds,
                old.owners,
                np.array([new.bounds for new in news]),
                np.array([new.owners for new in news]),
            )
            for new, kept, sent in zip(news, overlap, messages):
                assert kept == overlap_oracle(old, new) == overlap_elements(old, new)
                assert sent == messages_oracle(old, new) == message_count(old, new)
                assert redistribution_gain(old, new, NETWORK_COST) == gain_oracle(
                    old, new, NETWORK_COST
                )
                # One transfer per live segment that changes owner: the
                # oracle's coalescing of adjacent slabs never finds a pair.
                transfers = transfer_matrix(old, new)
                assert len(transfers) == sent
                assert sum(t.count for t in transfers) == n - kept
                for a, b in zip(transfers, transfers[1:]):
                    assert a.hi <= b.lo
                    assert (a.source, a.dest) != (b.source, b.dest) or a.hi < b.lo

    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_brute_force_equals_oracle_including_ties(self, chunk, monkeypatch):
        # A small chunk makes "the first maximum wins" cross chunk borders.
        monkeypatch.setattr(arrangement_module, "_BRUTE_FORCE_CHUNK", chunk)
        rng = np.random.default_rng(11)
        for trial in range(40):
            p = int(rng.integers(1, 7 if trial < 4 else 6))
            n = int(rng.choice([0, 1, 7, 60, 264, 30_269]))
            old, new = _capabilities(CAPABILITY_KINDS[trial % 5], p, rng)
            cost = SWEEP_VARIANTS[trial % 4][1]
            start = rng.permutation(p)
            got, got_gain = brute_force_arrangement(start, old, new, n, cost_model=cost)
            want, want_gain = brute_force_oracle(start, old, new, n, cost_model=cost)
            np.testing.assert_array_equal(got, want)
            assert got_gain == want_gain and isinstance(got_gain, float)

    def test_fig5_rows_through_the_scorer(self):
        old = partition_list(100, OLD_CAP)
        rows = np.array([[0, 1, 2, 3, 4], [0, 3, 1, 2, 4]])
        overlap, messages = _score_rows(
            old.bounds, old.owners, _row_bounds(100, np.array(NEW_CAP), rows), rows
        )
        assert overlap.tolist() == [31, 64]
        assert messages.tolist() == [6, 5]

    def test_no_partition_object_per_candidate(self, monkeypatch):
        built = []
        post_init = IntervalPartition.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(IntervalPartition, "__post_init__", counting)
        rng = np.random.default_rng(2)
        for p in (4, 16):
            del built[:]
            old, new = _capabilities("random", p, rng)
            minimize_cost_redistribution(np.arange(p), old, new, 30_269)
            assert len(built) <= 2  # the old partition, not p^2 candidates
