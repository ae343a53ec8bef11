"""Tests for the incremental inspector rebuild and the bulk mailbox path.

Pins the module's two contracts: the interval-diff classifier tiles the
old/new intervals exactly (hypothesis property suite), and a patched
``InspectorResult`` is bit-identical — array for array, and through the
kernel sweep — to a from-scratch build (randomized remap differentials,
chained patches included).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_runtime import classify_elements
from repro.errors import CommunicationError, ConfigurationError, ScheduleError
from repro.graph.generators import grid_graph, paper_mesh, perturbed_grid_mesh
from repro.net.cluster import adaptive_cluster
from repro.net.mailbox import Mailbox
from repro.net.message import Message, payload_nbytes
from repro.partition.intervals import IntervalPartition
from repro.runtime.adaptive import LoadBalanceConfig
from repro.runtime.incremental import (
    IncrementalInspector,
    _patch_estimate,
    check_inspector_mode,
    diff_interval,
)
from repro.runtime.inspector import run_inspector
from repro.runtime.kernels import run_sequential
from repro.runtime.program import ProgramConfig, run_program
from repro.runtime.schedule_builders import local_references


def random_partition(n: int, p: int, rng: np.random.Generator) -> IntervalPartition:
    cuts = np.sort(rng.integers(0, n + 1, size=p - 1))
    bounds = np.concatenate([[0], cuts, [n]]).astype(np.intp)
    return IntervalPartition(bounds, np.arange(p, dtype=np.intp))


def shifted_partition(
    base: IntervalPartition, rng: np.random.Generator, mag: int
) -> IntervalPartition:
    """Jitter each interior bound by up to ``mag``, staying monotone."""
    bounds = np.array(base.bounds, dtype=np.intp)
    n = int(bounds[-1])
    for b in range(1, bounds.size - 1):
        lo = int(bounds[b - 1])
        hi = int(bounds[b + 1]) if b + 1 < bounds.size - 1 else n
        new = int(bounds[b]) + int(rng.integers(-mag, mag + 1))
        bounds[b] = min(max(new, lo), hi)
    return IntervalPartition(bounds, base.owners)


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(1, 400))
    p = draw(st.integers(1, 6))
    owners = np.arange(p, dtype=np.intp)

    def bounds():
        cuts = sorted(
            draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1))
        )
        return np.concatenate([[0], cuts, [n]]).astype(np.intp)

    old = IntervalPartition(bounds(), owners)
    new = IntervalPartition(bounds(), owners)
    rank = draw(st.integers(0, p - 1))
    return old, new, rank


class TestCheckInspectorMode:
    @pytest.mark.parametrize("strategy", ["simple", "sort1", "sort2"])
    def test_full_accepts_every_strategy(self, strategy):
        check_inspector_mode("full", strategy)

    @pytest.mark.parametrize("strategy", IncrementalInspector.PATCHABLE)
    def test_incremental_accepts_sorted_strategies(self, strategy):
        check_inspector_mode("incremental", strategy)

    def test_incremental_rejects_request_ordered_buffers(self):
        with pytest.raises(ScheduleError, match="cannot be patched"):
            check_inspector_mode("incremental", "simple")

    def test_unknown_mode(self):
        with pytest.raises(ScheduleError, match="inspector_mode must be"):
            check_inspector_mode("lazy", "sort2")


class TestDiffInterval:
    @given(pair=partition_pairs())
    @settings(max_examples=150, deadline=None)
    def test_tiles_old_and_new_exactly(self, pair):
        old, new, rank = pair
        d = diff_interval(old, new, rank)
        kept, gained, lost = classify_elements(old, new, rank)
        lo0, hi0 = old.interval(rank)
        lo1, hi1 = new.interval(rank)
        # kept + lost tile the old interval; kept + gained tile the new.
        np.testing.assert_array_equal(
            np.sort(np.concatenate([kept, lost])),
            np.arange(lo0, hi0, dtype=np.intp),
        )
        np.testing.assert_array_equal(
            np.sort(np.concatenate([kept, gained])),
            np.arange(lo1, hi1, dtype=np.intp),
        )
        # No overlaps between the classes.
        assert not np.intersect1d(kept, lost).size
        assert not np.intersect1d(kept, gained).size
        assert not np.intersect1d(gained, lost).size
        # Counts agree with the structural ranges.
        assert d.n_kept == kept.size
        assert d.n_gained == gained.size
        assert d.n_lost == lost.size

    @given(pair=partition_pairs())
    @settings(max_examples=150, deadline=None)
    def test_empty_diff_iff_interval_unmoved(self, pair):
        old, new, rank = pair
        d = diff_interval(old, new, rank)
        lo0, hi0 = old.interval(rank)
        lo1, hi1 = new.interval(rank)
        # An empty interval that "moves" (e.g. (0,0) -> (1,1)) still holds
        # zero elements, so the diff is empty even though the bounds differ.
        unmoved = (lo0, hi0) == (lo1, hi1) or (hi0 - lo0 == 0 and hi1 - lo1 == 0)
        empty = not d.lost and not d.gained
        assert empty == unmoved
        if empty:
            assert d.n_lost == 0 and d.n_gained == 0
            assert d.keep_hi - d.keep_lo == hi0 - lo0

    def test_disjoint_move_loses_and_gains_everything(self):
        owners = np.arange(2, dtype=np.intp)
        old = IntervalPartition(np.array([0, 4, 10]), owners)
        new = IntervalPartition(np.array([0, 8, 10]), owners)
        d = diff_interval(old, new, 1)
        assert d.n_kept == 2  # [8, 10)
        d0 = diff_interval(
            IntervalPartition(np.array([0, 3, 10]), owners),
            IntervalPartition(np.array([0, 0, 10]), owners),
            0,
        )
        assert d0.n_kept == 0
        assert d0.lost == ((0, 3),)
        assert d0.gained == ()

    def test_mismatched_sizes_rejected(self):
        owners = np.arange(2, dtype=np.intp)
        a = IntervalPartition(np.array([0, 5, 10]), owners)
        b = IntervalPartition(np.array([0, 5, 12]), owners)
        with pytest.raises(ScheduleError):
            diff_interval(a, b, 0)


@pytest.fixture(scope="module")
def meshes():
    return [
        grid_graph(12, 17),
        perturbed_grid_mesh(15, 15, seed=3).graph,
    ]


class TestIncrementalDifferential:
    def test_crossover_rebuild_matches_full(self, meshes):
        """rebuild() under its own crossover test, random remap walks."""
        for graph in meshes:
            n = graph.num_vertices
            for p in (3, 5, 8):
                rng = np.random.default_rng(1000 + p)
                part = random_partition(n, p, rng)
                incs = [
                    IncrementalInspector(graph, part, r, strategy="sort2")
                    for r in range(p)
                ]
                for _ in range(4):
                    part = random_partition(n, p, rng)
                    for r in range(p):
                        got = incs[r].rebuild(part)
                        want = run_inspector(graph, part, r, strategy="sort2")
                        assert got == want

    @pytest.mark.parametrize("strategy", ["sort1", "sort2"])
    def test_forced_patch_matches_full(self, meshes, strategy):
        for graph in meshes:
            n = graph.num_vertices
            rng = np.random.default_rng(7)
            for p in (3, 6):
                for _ in range(10):
                    old = random_partition(n, p, rng)
                    new = shifted_partition(old, rng, mag=6)
                    for r in range(p):
                        d = diff_interval(old, new, r)
                        if d.n_kept == 0:
                            continue
                        inc = IncrementalInspector(
                            graph, old, r, strategy=strategy
                        )
                        got = inc.rebuild(new, force="patch")
                        want = run_inspector(graph, new, r, strategy=strategy)
                        assert got == want
                        # Both paths lay the plan out alike: int32 slots.
                        for plan in (got.kernel_plan, want.kernel_plan):
                            assert plan.slots.dtype == np.int32
                        assert inc.last_mode == "patched"
                        assert inc.num_patches == 1

    def test_chained_patches_match_full(self, meshes):
        """Successive patches reuse caches updated by earlier patches."""
        for graph in meshes:
            n = graph.num_vertices
            rng = np.random.default_rng(11)
            p = 4
            part = random_partition(n, p, rng)
            incs = [
                IncrementalInspector(graph, part, r, strategy="sort2")
                for r in range(p)
            ]
            for _ in range(6):
                nxt = shifted_partition(part, rng, mag=4)
                for r in range(p):
                    if diff_interval(part, nxt, r).n_kept == 0:
                        continue
                    got = incs[r].rebuild(nxt, force="patch")
                    want = run_inspector(graph, nxt, r, strategy="sort2")
                    assert got == want
                    assert got.kernel_plan.slots.dtype == np.int32
                part = nxt

    def test_patched_sweep_values_bit_identical(self, meshes):
        graph = meshes[1]
        n = graph.num_vertices
        rng = np.random.default_rng(5)
        y0 = rng.uniform(0, 100, n)
        old = random_partition(n, 4, rng)
        new = shifted_partition(old, rng, mag=5)
        for r in range(4):
            if diff_interval(old, new, r).n_kept == 0:
                continue
            inc = IncrementalInspector(graph, old, r, strategy="sort2")
            got = inc.rebuild(new, force="patch")
            want = run_inspector(graph, new, r, strategy="sort2")
            lo, hi = new.interval(r)
            v_got = got.kernel_plan.sweep(
                y0[lo:hi], y0[got.schedule.ghost_globals]
            )
            v_want = want.kernel_plan.sweep(
                y0[lo:hi], y0[want.schedule.ghost_globals]
            )
            assert np.array_equal(v_got, v_want)  # bit identity, not allclose

    def test_noop_rebuild_is_a_patch(self, meshes):
        graph = meshes[0]
        part = random_partition(graph.num_vertices, 3, np.random.default_rng(2))
        inc = IncrementalInspector(graph, part, 1, strategy="sort2")
        got = inc.rebuild(part)
        want = run_inspector(graph, part, 1, strategy="sort2")
        assert got == want
        assert inc.last_mode == "patched"

    def test_force_full_takes_full_path(self, meshes):
        graph = meshes[0]
        part = random_partition(graph.num_vertices, 3, np.random.default_rng(2))
        inc = IncrementalInspector(graph, part, 0, strategy="sort2")
        inc.rebuild(part, force="full")
        assert inc.last_mode == "full"
        assert inc.num_full_rebuilds == 1
        assert inc.last_patch_cost == 0.0

    def test_forced_patch_across_disjoint_move_rejected(self, meshes):
        graph = meshes[0]
        n = graph.num_vertices
        owners = np.arange(2, dtype=np.intp)
        old = IntervalPartition(np.array([0, 10, n]), owners)
        new = IntervalPartition(np.array([0, n, n]), owners)
        inc = IncrementalInspector(graph, old, 1, strategy="sort2")
        with pytest.raises(ScheduleError, match="disjoint"):
            inc.rebuild(new, force="patch")

    def test_bad_force_value_rejected(self, meshes):
        graph = meshes[0]
        part = random_partition(graph.num_vertices, 2, np.random.default_rng(0))
        inc = IncrementalInspector(graph, part, 0, strategy="sort2")
        with pytest.raises(ScheduleError, match="force"):
            inc.rebuild(part, force="fast")

    def test_simple_strategy_rejected(self, meshes):
        graph = meshes[0]
        part = random_partition(graph.num_vertices, 2, np.random.default_rng(0))
        with pytest.raises(ScheduleError, match="simple"):
            IncrementalInspector(graph, part, 0, strategy="simple")


@pytest.mark.parametrize("strategy", ["sort1", "sort2"])
def test_cross_references_come_from_the_plan(meshes, strategy):
    """After a full build the cross-reference cache is read off the
    kernel plan; it equals, dtypes included, the off-block references
    of the rank's rows picked out of ``local_references``."""
    rng = np.random.default_rng(31)
    for graph in meshes:
        n = graph.num_vertices
        for p in (1, 2, 4, 7):
            for _ in range(3):
                part = random_partition(n, p, rng)
                for r in range(p):
                    inc = IncrementalInspector(graph, part, r, strategy=strategy)
                    lo, hi = part.interval(r)
                    src, nbr = local_references(graph, part, r)
                    off = (nbr < lo) | (nbr >= hi)
                    for got, want in (
                        (inc.cross_src, src[off].astype(np.intp)),
                        (inc.cross_nbr, nbr[off].astype(np.intp)),
                        (inc._off_pos, np.flatnonzero(off)),
                    ):
                        assert got.dtype == want.dtype
                        np.testing.assert_array_equal(got, want)


def test_schedules_and_plans_compare_by_value(meshes):
    """``==`` on a schedule or kernel plan compares its arrays element for
    element: equal builds are equal, a moved boundary is not, and neither
    comparison raises numpy's ambiguous-truth-value error."""
    graph = meshes[1]
    n = graph.num_vertices
    part = IntervalPartition(np.array([0, n // 3, n]), np.array([0, 1]))
    moved = IntervalPartition(np.array([0, n // 3 + 2, n]), np.array([0, 1]))
    a, b = (run_inspector(graph, part, 0) for _ in range(2))
    c = run_inspector(graph, moved, 0)
    assert a.schedule == b.schedule and a.kernel_plan == b.kernel_plan
    assert a.schedule != c.schedule and a.kernel_plan != c.kernel_plan
    assert a.kernel_plan != a.schedule
    # The slots' layout is part of a plan's value: equal numbers in
    # another dtype are another plan.
    wide = a.kernel_plan.slots.astype(np.intp)
    assert dataclasses.replace(a.kernel_plan, slots=wide) != a.kernel_plan
    assert a == b and a != c
    # Build time and strategy name are not part of a result's value.
    assert dataclasses.replace(a, strategy="sort1", build_time=1.0) == b
    with pytest.raises(TypeError):
        hash(a.kernel_plan)
    with pytest.raises(TypeError):
        hash(a.schedule)


class TestCrossoverEstimate:
    """The crossover prices both arms with the formulas that charge them,
    fed pre-patch sizes: the patch estimate must track the patch charge."""

    @pytest.fixture(scope="class")
    def walk(self):
        """A fixed 16-rank remap sequence on a Hilbert-ordered mesh:
        (estimate, inspector) per rebuild, results checked on the way."""
        from repro.partition.sfc import HilbertOrdering

        mesh = paper_mesh(40_000, seed=5)
        graph = mesh.permute(HilbertOrdering()(mesh))
        p = 16
        part = IntervalPartition(
            np.linspace(0, graph.num_vertices, p + 1).astype(np.intp),
            np.arange(p, dtype=np.intp),
        )
        rng = np.random.default_rng(16)
        incs = [
            IncrementalInspector(graph, part, r, strategy="sort2")
            for r in range(p)
        ]
        rebuilds = []
        for _ in range(5):
            part = shifted_partition(part, rng, mag=1500)
            for r, inc in enumerate(incs):
                d = diff_interval(inc.partition, part, r)
                estimate = _patch_estimate(
                    inc.cost_model, graph, d, **inc._sizes()
                )
                got = inc.rebuild(part)
                want = run_inspector(graph, part, r, strategy="sort2")
                assert got == want
                rebuilds.append((estimate, inc.last_mode, inc.last_patch_cost))
        return rebuilds

    def test_estimate_within_2x_of_the_patch_charge(self, walk):
        patched = [(e, c) for e, mode, c in walk if mode == "patched"]
        assert len(patched) >= 60  # of 80: the patch is the common arm
        for estimate, charged in patched:
            assert 0.5 <= estimate / charged <= 2.0

    def test_both_arms_are_still_taken(self, walk):
        assert {mode for _, mode, _ in walk} == {"patched", "full"}

    def test_cost_model_owns_both_formulas(self):
        """The sort1/sort2 charge and the patch charge each exist once:
        the builders, the patch and the crossover all call these."""
        from repro.runtime.schedule_builders import InspectorCostModel

        cm = InspectorCostModel()
        sizes = dict(refs=6000, ghosts=120, sends=130)
        sort1 = cm.sorted_build_cost("sort1", **sizes)
        sort2 = cm.sorted_build_cost("sort2", **sizes)
        assert sort1 - sort2 == pytest.approx(
            cm.sort_cost(130) - cm.sec_per_linear_op * 130
        )
        base = dict(diff_refs=400, cross=500, ghosts=120, sends=130)
        assert cm.patch_cost(**base, added=64) - cm.patch_cost(
            **base, added=0
        ) == pytest.approx(cm.sort_cost(64))


def make_msg(src, dest, tag, payload):
    return Message(src, dest, tag, payload, payload_nbytes(payload), 0.0, 0.0)


class TestMailboxBulk:
    def test_bulk_equals_single_receives(self):
        sources, tag = {0, 2, 3, 5}, 9
        single, bulk = Mailbox(1), Mailbox(1)
        for src in [3, 0, 5, 2]:
            for box in (single, bulk):
                box.deposit(make_msg(src, 1, tag, f"m{src}"))
        got = bulk.receive_bulk(sources, tag, timeout=1.0)
        want = {s: single.receive(s, tag, timeout=1.0) for s in sources}
        assert set(got) == sources
        for s in sources:
            assert got[s].payload == want[s].payload
            assert got[s].source == want[s].source

    def test_bulk_takes_fifo_head_per_channel(self):
        box = Mailbox(1)
        box.deposit(make_msg(0, 1, 4, "first"))
        box.deposit(make_msg(0, 1, 4, "second"))
        box.deposit(make_msg(2, 1, 4, "only"))
        got = box.receive_bulk({0, 2}, 4, timeout=1.0)
        assert {s: m.payload for s, m in got.items()} == {0: "first", 2: "only"}
        assert box.pending_count() == 1
        # The second message waits, in order, for the next drain.
        assert box.receive_bulk({0}, 4, timeout=1.0)[0].payload == "second"

    def test_next_phase_message_from_a_drained_source_is_not_an_intruder(self):
        """Rank 0 already delivered this phase and queued the next one
        before rank 3's message arrives: 0 is in the expected set, so its
        queued message is a fast neighbour, not a protocol violation."""
        box = Mailbox(1)
        box.deposit(make_msg(0, 1, 8, "phase-1"))
        box.deposit(make_msg(0, 1, 8, "phase-2"))
        late = threading.Timer(
            0.05, box.deposit, args=(make_msg(3, 1, 8, "phase-1"),)
        )
        late.start()
        got = box.receive_bulk({0, 3}, 8, timeout=5.0)
        late.join()
        assert {s: m.payload for s, m in got.items()} == {
            0: "phase-1", 3: "phase-1",
        }
        assert box.receive(0, 8, timeout=1.0).payload == "phase-2"

    def test_bulk_leaves_other_tags_buffered(self):
        box = Mailbox(1)
        box.deposit(make_msg(0, 1, 7, "other-tag"))
        box.deposit(make_msg(0, 1, 4, "wanted"))
        got = box.receive_bulk({0}, 4, timeout=1.0)
        assert got[0].payload == "wanted"
        assert box.receive(0, 7, timeout=1.0).payload == "other-tag"

    def test_unexpected_source_raises(self):
        box = Mailbox(1)
        box.deposit(make_msg(4, 1, 9, "intruder"))
        with pytest.raises(CommunicationError, match="unexpected"):
            box.receive_bulk({0, 2}, 9, timeout=0.2)

    def test_timeout_raises(self):
        box = Mailbox(1)
        with pytest.raises(CommunicationError, match="timed out"):
            box.receive_bulk({0}, 3, timeout=0.05)

    def test_intruder_raises_even_after_partial_progress(self):
        box = Mailbox(1)
        box.deposit(make_msg(0, 1, 9, "expected"))
        box.deposit(make_msg(4, 1, 9, "intruder"))
        with pytest.raises(CommunicationError, match="from rank 4"):
            box.receive_bulk({0, 2}, 9, timeout=0.2)


class TestSessionInspectorModes:
    @pytest.fixture(scope="class")
    def workload(self):
        g = paper_mesh(800, seed=21)
        y0 = np.random.default_rng(0).uniform(0, 100, g.num_vertices)
        return g, y0

    def test_incremental_values_bit_identical_to_full(self, workload):
        g, y0 = workload
        cl = adaptive_cluster(3, competing_load=2.0)
        reps = {}
        for mode in ("full", "incremental"):
            reps[mode] = run_program(
                g, cl,
                ProgramConfig(
                    iterations=30,
                    initial_capabilities="equal",
                    load_balance=LoadBalanceConfig(check_interval=10),
                    inspector_mode=mode,
                ),
                y0=y0,
            )
        assert np.array_equal(
            reps["full"].values, reps["incremental"].values
        )  # bit identity across inspector modes
        oracle = run_sequential(g, y0, 30)
        np.testing.assert_allclose(reps["incremental"].values, oracle, atol=1e-9)

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="inspector_mode"):
            ProgramConfig(inspector_mode="fast")

    def test_config_rejects_incremental_with_simple(self):
        with pytest.raises(ConfigurationError, match="sorting strategy"):
            ProgramConfig(inspector_mode="incremental", strategy="simple")
