"""Tests for competing-load traces and virtual-clock integration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.loadmodel import (
    ConstantLoad,
    LoadTrace,
    MembershipEvent,
    MembershipTrace,
    NoLoad,
    RampLoad,
    RandomWalkLoad,
    StepLoad,
    advance_clock,
    work_done_in,
)


class SumLoad(LoadTrace):
    """Sum of several traces: coincident breakpoints for the algebra tests."""

    def __init__(self, traces):
        self._traces = list(traces)

    def load_at(self, t):
        return sum(tr.load_at(t) for tr in self._traces)

    def next_change_after(self, t):
        return min(tr.next_change_after(t) for tr in self._traces)


class TestTraces:
    def test_noload_always_zero(self):
        tr = NoLoad()
        assert tr.load_at(0.0) == 0.0
        assert tr.load_at(1e9) == 0.0
        assert tr.next_change_after(5.0) == math.inf

    def test_constant_level(self):
        tr = ConstantLoad(2.0)
        assert tr.load_at(0.0) == 2.0
        assert tr.next_change_after(0.0) == math.inf

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLoad(-1.0)

    def test_step_lookup(self):
        tr = StepLoad([(0, 0), (10, 2), (50, 0)])
        assert tr.load_at(5) == 0
        assert tr.load_at(10) == 2
        assert tr.load_at(49.99) == 2
        assert tr.load_at(50) == 0

    def test_step_breakpoints(self):
        tr = StepLoad([(0, 0), (10, 2), (50, 0)])
        assert tr.next_change_after(0) == 10
        assert tr.next_change_after(10) == 50
        assert tr.next_change_after(50) == math.inf

    def test_step_pads_time_zero(self):
        tr = StepLoad([(5, 1.0)])
        assert tr.load_at(0.0) == 0.0
        assert tr.load_at(5.0) == 1.0

    def test_step_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            StepLoad([(5, 1), (3, 2)])

    def test_step_rejects_negative_load(self):
        with pytest.raises(ValueError, match="non-negative"):
            StepLoad([(0, -1)])

    def test_step_rejects_empty(self):
        with pytest.raises(ValueError):
            StepLoad([])

    def test_ramp_endpoints(self):
        tr = RampLoad(10, 20, 0.0, 4.0, n_steps=16)
        assert tr.load_at(0.0) == 0.0
        assert tr.load_at(25.0) == 4.0
        mid = tr.load_at(15.0)
        assert 1.0 < mid < 3.0

    def test_ramp_monotone(self):
        tr = RampLoad(0, 10, 0.0, 2.0)
        samples = [tr.load_at(t) for t in np.linspace(0, 10, 40)]
        assert all(b >= a - 1e-12 for a, b in zip(samples, samples[1:]))

    def test_ramp_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            RampLoad(5, 5, 0, 1)

    def test_random_walk_bounds_and_reproducibility(self):
        a = RandomWalkLoad(horizon=50, dt=1.0, seed=3)
        b = RandomWalkLoad(horizon=50, dt=1.0, seed=3)
        for t in np.linspace(0, 60, 30):
            la, lb = a.load_at(t), b.load_at(t)
            assert la == lb
            assert 0.0 <= la <= 3.0

    def test_random_walk_holds_after_horizon(self):
        tr = RandomWalkLoad(horizon=10, dt=1.0, seed=0)
        assert tr.load_at(10.5) == tr.load_at(1e6)

    def test_work_done_in_step_load(self):
        # Full speed for 5 s, then a third of it (two competitors) for 5 s.
        tr = StepLoad([(0, 0), (5, 2)])
        assert work_done_in(0, 10, 1.0, tr) == pytest.approx(5.0 + 5.0 / 3.0)


class TestAdvanceClock:
    def test_unloaded_unit_speed(self):
        assert advance_clock(0.0, 3.0, 1.0, NoLoad()) == pytest.approx(3.0)

    def test_speed_scales(self):
        assert advance_clock(0.0, 3.0, 2.0, NoLoad()) == pytest.approx(1.5)

    def test_constant_load_halves_rate(self):
        assert advance_clock(0.0, 3.0, 1.0, ConstantLoad(1.0)) == pytest.approx(6.0)

    def test_zero_work(self):
        assert advance_clock(7.0, 0.0, 1.0, ConstantLoad(5.0)) == 7.0

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            advance_clock(0.0, -1.0, 1.0, NoLoad())

    def test_step_boundary_crossing(self):
        # Unloaded for 2s (2 units done), then load 1 (rate 1/2): remaining
        # 2 units take 4s.
        tr = StepLoad([(0, 0), (2, 1)])
        assert advance_clock(0.0, 4.0, 1.0, tr) == pytest.approx(6.0)

    def test_start_mid_segment(self):
        tr = StepLoad([(0, 0), (2, 1)])
        assert advance_clock(1.0, 1.0, 1.0, tr) == pytest.approx(2.0)
        assert advance_clock(2.0, 1.0, 1.0, tr) == pytest.approx(4.0)

    def test_work_done_in_inverse_simple(self):
        tr = StepLoad([(0, 0), (3, 2), (9, 0.5)])
        t1 = advance_clock(0.0, 5.0, 1.3, tr)
        assert work_done_in(0.0, t1, 1.3, tr) == pytest.approx(5.0)

    def test_work_done_in_empty_interval(self):
        assert work_done_in(4.0, 4.0, 1.0, ConstantLoad(1.0)) == 0.0

    def test_work_done_in_rejects_reversed(self):
        with pytest.raises(ValueError):
            work_done_in(5.0, 4.0, 1.0, NoLoad())

    @given(
        work=st.floats(0.01, 50.0),
        speed=st.floats(0.1, 10.0),
        t0=st.floats(0.0, 20.0),
        steps=st.lists(
            st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 4.0)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_advance_and_work_are_inverse(self, work, speed, t0, steps):
        steps = sorted(steps, key=lambda s: s[0])
        tr = StepLoad(steps)
        t1 = advance_clock(t0, work, speed, tr)
        assert t1 >= t0
        recovered = work_done_in(t0, t1, speed, tr)
        assert recovered == pytest.approx(work, rel=1e-9, abs=1e-12)

    @given(
        work=st.floats(0.01, 10.0),
        load=st.floats(0.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_load_closed_form(self, work, load):
        t1 = advance_clock(0.0, work, 1.0, ConstantLoad(load))
        assert t1 == pytest.approx(work * (1.0 + load), rel=1e-12)

    def test_monotone_in_load(self):
        t_light = advance_clock(0.0, 5.0, 1.0, ConstantLoad(0.5))
        t_heavy = advance_clock(0.0, 5.0, 1.0, ConstantLoad(2.0))
        assert t_heavy > t_light


class TestCompositeAlgebraProperties:
    """ISSUE 4 satellite: the piecewise-constant algebra under composition,
    coincident breakpoints, zero-length segments, and inf sentinels —
    the regimes the smooth-trace tests above never reach."""

    @staticmethod
    def _jagged_step(rng: np.random.Generator) -> StepLoad:
        """A StepLoad with deliberately coincident and zero-length steps."""
        times = np.round(np.sort(rng.uniform(0.0, 20.0, size=6)), 1)
        k = int(rng.integers(0, 5))
        times[k + 1] = times[k]  # a zero-length segment
        loads = rng.uniform(0.0, 4.0, size=6)
        return StepLoad(list(zip(times.tolist(), loads.tolist())))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_composite_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        parts = [self._jagged_step(rng) for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.5:
            parts.append(ConstantLoad(float(rng.uniform(0, 2))))
        tr = SumLoad(parts)
        t0 = float(rng.uniform(0.0, 25.0))
        work = float(rng.uniform(0.01, 30.0))
        speed = float(rng.uniform(0.2, 5.0))
        t1 = advance_clock(t0, work, speed, tr)
        assert t1 >= t0
        assert work_done_in(t0, t1, speed, tr) == pytest.approx(
            work, rel=1e-9, abs=1e-12
        )

    @given(seed=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_next_change_strictly_advances_to_inf(self, seed):
        """next_change_after always moves strictly forward and ends at the
        math.inf sentinel, even across coincident breakpoints — the
        property that guarantees advance_clock terminates."""
        rng = np.random.default_rng(seed)
        tr = SumLoad([self._jagged_step(rng), self._jagged_step(rng)])
        t, hops = 0.0, 0
        while True:
            nxt = tr.next_change_after(t)
            assert nxt > t
            if nxt == math.inf:
                break
            t = nxt
            hops += 1
        assert hops <= 12  # duplicates collapse: at most one hop per time

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_work_is_additive_over_coincident_splits(self, seed):
        """Splitting [t0, t2] at any point — including exactly at a
        breakpoint shared by several component traces — conserves work."""
        rng = np.random.default_rng(seed)
        step = self._jagged_step(rng)
        tr = SumLoad([step, step])  # every breakpoint coincides
        t0 = float(rng.uniform(0.0, 10.0))
        t2 = t0 + float(rng.uniform(0.1, 15.0))
        mid = step.next_change_after(t0)
        if not (t0 < mid < t2):
            mid = (t0 + t2) / 2.0
        whole = work_done_in(t0, t2, 1.0, tr)
        parts = work_done_in(t0, mid, 1.0, tr) + work_done_in(mid, t2, 1.0, tr)
        assert parts == pytest.approx(whole, rel=1e-9, abs=1e-12)

    def test_zero_length_segment_is_invisible(self):
        plain = StepLoad([(0.0, 1.0), (5.0, 2.0)])
        jagged = StepLoad([(0.0, 1.0), (5.0, 9.9), (5.0, 2.0)])
        for t in (0.0, 4.999, 5.0, 7.3):
            assert jagged.load_at(t) == plain.load_at(t)
        t1p = advance_clock(0.0, 12.0, 1.0, plain)
        t1j = advance_clock(0.0, 12.0, 1.0, jagged)
        assert t1j == pytest.approx(t1p, rel=1e-12)

    def test_work_done_in_handles_coincident_breakpoints(self):
        tr = SumLoad([
            StepLoad([(0.0, 1.0), (2.0, 0.0)]),
            StepLoad([(0.0, 0.0), (2.0, 1.0)]),
        ])
        # One competing process throughout: half speed for 4 s.
        assert work_done_in(0.0, 4.0, 1.0, tr) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# MembershipTrace DSL round-trips: parse -> format -> parse is identity


class TestMembershipDSLRoundTrip:
    @pytest.mark.parametrize("spec", [
        "leave:0@9.5",
        "standby:3, join:3@5.0, leave:0@9.5, replace:1->0@12, fail:0@15",
        "standby:1, standby:2, join:1@0.5, join:2@0.5",
        "standby:4, fail:1@0.015, join:4@0.015, leave:3@0.015",  # coincident
        "leave:2@0.0033",  # float that must survive repr exactly
        "",  # the empty trace
    ])
    def test_parse_format_parse_is_identity(self, spec):
        world = 5
        first = MembershipTrace.parse(spec, world)
        text = first.format()
        second = MembershipTrace.parse(text, world)
        assert second == first
        # And formatting is a fixpoint: one more cycle changes nothing.
        assert second.format() == text

    def test_format_spells_every_event_kind(self):
        trace = MembershipTrace(
            5,
            [
                MembershipEvent(1.0, "leave", 0),
                MembershipEvent(2.0, "join", 0),
                MembershipEvent(3.0, "replace", 1, replacement=4),
                MembershipEvent(4.0, "fail", 2),
            ],
            initially_inactive=[4],
        )
        assert trace.format() == (
            "standby:4, leave:0@1, join:0@2, replace:1->4@3, fail:2@4"
        )

    def test_coincident_events_keep_their_apply_order(self):
        # Two opposite orderings of the same instant are distinct traces
        # and must stay distinct through a round-trip.
        a = MembershipTrace.parse("standby:3, leave:0@1, join:3@1", 4)
        b = MembershipTrace.parse("standby:3, join:3@1, leave:0@1", 4)
        assert a != b
        assert MembershipTrace.parse(a.format(), 4) == a
        assert MembershipTrace.parse(b.format(), 4) == b

    def test_equality_covers_standby_and_world_size(self):
        a = MembershipTrace.parse("standby:2, join:2@1", 3)
        b = MembershipTrace.parse("standby:2, join:2@1", 4)
        assert a != b
        assert a == MembershipTrace.parse("standby:2, join:2@1", 3)

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_valid_traces_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        world = int(rng.integers(2, 7))
        standby = set(
            int(r)
            for r in rng.choice(
                world, size=int(rng.integers(0, world - 1)), replace=False
            )
        )
        active = set(range(world)) - set(standby)
        inactive = set(standby)
        events = []
        t = 0.0
        for _ in range(int(rng.integers(0, 8))):
            t += float(np.round(rng.uniform(0.0, 3.0), 3))
            kinds = []
            if len(active) > 1:
                kinds += ["leave", "fail"]
            if inactive:
                kinds += ["join"]
                if active:
                    kinds += ["replace"]
            if not kinds:
                break
            kind = str(rng.choice(kinds))
            if kind in ("leave", "fail"):
                r = int(rng.choice(sorted(active)))
                active.discard(r)
                inactive.add(r)
                events.append(MembershipEvent(t, kind, r))
            elif kind == "join":
                r = int(rng.choice(sorted(inactive)))
                inactive.discard(r)
                active.add(r)
                events.append(MembershipEvent(t, "join", r))
            else:
                old = int(rng.choice(sorted(active)))
                new = int(rng.choice(sorted(inactive)))
                active.discard(old)
                inactive.discard(new)
                active.add(new)
                inactive.add(old)
                events.append(
                    MembershipEvent(t, "replace", old, replacement=new)
                )
        trace = MembershipTrace(
            world, events, initially_inactive=sorted(standby)
        )
        assert MembershipTrace.parse(trace.format(), world) == trace
