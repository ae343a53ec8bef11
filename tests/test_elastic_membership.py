"""Elastic-membership tests: trace algebra, the session, and the
backend-differential contract (ISSUE 4 tentpole).

The hardest guarantee is at the bottom: random membership traces (joins,
leaves, standby starts) driven through ``run_program`` must produce
bit-identical field arrays, virtual clocks, and remap counts under the
``reference`` and ``vectorized`` backends — elastic repartitioning onto a
different-sized active set included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, LoadBalanceError, RankFailedError
from repro.graph.generators import paper_mesh
from repro.net.cluster import uniform_cluster
from repro.net.loadmodel import MembershipEvent, MembershipTrace
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import (
    AdaptiveSession,
    ElasticState,
    resolve_membership,
)
from repro.runtime.kernels import run_sequential
from repro.runtime.program import ProgramConfig, run_program


def E(t, kind, rank, replacement=None):
    return MembershipEvent(t, kind, rank, replacement=replacement)


class TestMembershipTrace:
    def test_active_mask_follows_events(self):
        tr = MembershipTrace(
            4,
            [E(1.0, "leave", 0), E(2.0, "join", 3), E(3.0, "join", 0)],
            initially_inactive=[3],
        )
        np.testing.assert_array_equal(
            tr.active_mask(0.0), [True, True, True, False]
        )
        np.testing.assert_array_equal(
            tr.active_mask(1.0), [False, True, True, False]
        )  # events apply at their timestamp
        np.testing.assert_array_equal(
            tr.active_mask(2.5), [False, True, True, True]
        )
        np.testing.assert_array_equal(
            tr.active_mask(99.0), [True, True, True, True]
        )
        assert np.flatnonzero(tr.active_mask(1.5)).tolist() == [1, 2]

    def test_events_between_window_is_half_open(self):
        tr = MembershipTrace(3, [E(1.0, "leave", 0), E(2.0, "join", 0)])
        assert [e.time for e in tr.events_between(0.0, 1.0)] == [1.0]
        assert tr.events_between(1.0, 1.5) == []
        assert [e.time for e in tr.events_between(1.0, 2.0)] == [2.0]
        with pytest.raises(ValueError):
            tr.events_between(2.0, 1.0)

    def test_next_change_after_shares_inf_sentinel(self):
        tr = MembershipTrace(2, [E(5.0, "leave", 1)])
        assert tr.next_change_after(0.0) == 5.0
        assert tr.next_change_after(5.0) == math.inf

    def test_replace_is_atomic(self):
        tr = MembershipTrace(
            3, [E(1.0, "replace", 0, replacement=2)], initially_inactive=[2]
        )
        assert np.flatnonzero(tr.active_mask(1.0)).tolist() == [1, 2]

    def test_rejects_invalid_sequences(self):
        with pytest.raises(ValueError, match="not active"):
            MembershipTrace(2, [E(1.0, "leave", 0), E(2.0, "leave", 0)])
        with pytest.raises(ValueError, match="already active"):
            MembershipTrace(2, [E(1.0, "join", 0)])
        with pytest.raises(ValueError, match="empties"):
            MembershipTrace(2, [E(1.0, "leave", 0), E(2.0, "leave", 1)])
        with pytest.raises(ValueError, match="at least one"):
            MembershipTrace(2, [], initially_inactive=[0, 1])
        with pytest.raises(ValueError, match="out of range"):
            MembershipTrace(2, [E(1.0, "leave", 5)])
        with pytest.raises(ValueError):
            MembershipEvent(1.0, "leave", 0, replacement=1)
        with pytest.raises(ValueError):
            MembershipEvent(1.0, "replace", 0)
        with pytest.raises(ValueError, match="itself"):
            MembershipEvent(1.0, "replace", 1, replacement=1)

    def test_parse_round_trip(self):
        tr = MembershipTrace.parse(
            "standby:3, join:3@5.0; leave:0@9.5, replace:1->0@12", 4
        )
        assert tr.initially_inactive == frozenset({3})
        assert [(e.time, e.kind, e.rank) for e in tr.events] == [
            (5.0, "join", 3),
            (9.5, "leave", 0),
            (12.0, "replace", 1),
        ]
        assert tr.events[2].replacement == 0
        with pytest.raises(ValueError, match="malformed"):
            MembershipTrace.parse("bogus", 4)
        with pytest.raises(ValueError, match="malformed"):
            MembershipTrace.parse("leave:0", 4)  # missing @time

    def test_subset_reindexes_and_drops(self):
        tr = MembershipTrace(
            4,
            [E(1.0, "leave", 2), E(2.0, "replace", 0, replacement=3)],
            initially_inactive=[3],
        )
        sub = tr.subset([0, 1, 2])
        assert sub.world_size == 3
        # leave of old-rank 2 keeps its slot; the replace degrades to a
        # leave of old-rank 0 (its replacement was dropped from the world).
        assert [(e.kind, e.rank) for e in sub.events] == [
            ("leave", 2),
            ("leave", 0),
        ]
        # A subset whose surviving events would empty the active set is
        # invalid, loudly.
        with pytest.raises(ValueError, match="empties"):
            tr.subset([0, 2])

    def test_resolve_membership_forms(self):
        tr = MembershipTrace(3, [E(1.0, "leave", 0)])
        assert resolve_membership(None, 3) is None
        assert resolve_membership(tr, 3) is tr
        parsed = resolve_membership("leave:0@1.0", 3)
        assert np.flatnonzero(parsed.active_mask(1.0)).tolist() == [1, 2]
        with pytest.raises(LoadBalanceError):
            resolve_membership(tr, 4)  # world-size mismatch
        with pytest.raises(LoadBalanceError):
            resolve_membership("nope", 3)
        with pytest.raises(LoadBalanceError):
            resolve_membership(42, 3)

    def test_elastic_state_polls_forward_only(self):
        state = ElasticState(MembershipTrace(2, [E(1.0, "leave", 1)]))
        assert state.poll(0.5) == []
        events = state.poll(1.5)
        assert [e.kind for e in events] == ["leave"]
        assert state.active.sum() == 1
        with pytest.raises(LoadBalanceError, match="backwards"):
            state.poll(1.0)


class TestMembershipAlgebraProperties:
    """MembershipTrace shares the load traces' piecewise-constant algebra."""

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_mask_consistent_with_event_replay(self, seed):
        rng = np.random.default_rng(seed)
        world = int(rng.integers(2, 6))
        trace = _random_trace(world, rng, t_scale=10.0)
        # Replaying events_between over any split of the timeline gives the
        # same mask as active_mask at the end point.
        times = sorted(rng.uniform(0, 15, size=4))
        prev = 0.0
        active = set(np.flatnonzero(trace.active_mask(0.0)))
        for t in times:
            for ev in trace.events_between(prev, t):
                if ev.kind in ("leave", "replace"):
                    active.discard(ev.rank)
                if ev.kind == "join":
                    active.add(ev.rank)
                if ev.kind == "replace":
                    active.add(ev.replacement)
            assert active == set(np.flatnonzero(trace.active_mask(t)))
            prev = t

    @given(seed=st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_next_change_walk_visits_every_event(self, seed):
        rng = np.random.default_rng(seed)
        trace = _random_trace(int(rng.integers(2, 6)), rng, t_scale=10.0)
        t, seen = 0.0, 0
        while True:
            nxt = trace.next_change_after(t)
            if nxt == math.inf:
                break
            seen += len(trace.events_between(t, nxt))
            t = nxt
        assert seen == len(trace.events)


def _random_trace(
    world: int, rng: np.random.Generator, *, t_scale: float
) -> MembershipTrace:
    """A random *valid* membership trace built by forward simulation."""
    active = set(range(world))
    standby: set[int] = set()
    for r in range(world):
        if len(active) > 1 and rng.random() < 0.3:
            active.discard(r)
            standby.add(r)
    initially_inactive = sorted(standby)
    events = []
    t = 0.0
    for _ in range(int(rng.integers(1, 6))):
        t += float(rng.uniform(0.05, 0.35)) * t_scale
        want_leave = rng.random() < 0.5
        if want_leave and len(active) > 1:
            r = int(rng.choice(sorted(active)))
            events.append(E(t, "leave", r))
            active.discard(r)
            standby.add(r)
        elif standby:
            r = int(rng.choice(sorted(standby)))
            events.append(E(t, "join", r))
            standby.discard(r)
            active.add(r)
    return MembershipTrace(world, events, initially_inactive=initially_inactive)


class TestElasticRuns:
    @pytest.fixture(scope="class")
    def workload(self):
        graph = paper_mesh(400, seed=11)
        y0 = np.random.default_rng(11).uniform(0, 100, graph.num_vertices)
        return graph, y0

    def _run(self, workload, trace, backend, *, lb="centralized", iters=12, p=4):
        graph, y0 = workload
        config = ProgramConfig(
            iterations=iters,
            backend=backend,
            membership=trace,
            load_balance=lb,
            initial_capabilities="equal",
        )
        return run_program(graph, uniform_cluster(p), config, y0=y0)

    def test_leave_drains_to_survivors(self, workload):
        trace = MembershipTrace(4, [E(0.02, "leave", 1)])
        report = self._run(workload, trace, None)
        sizes = report.partition_final.sizes()
        assert sizes[1] == 0
        assert sizes.sum() == workload[0].num_vertices
        assert report.num_remaps >= 1
        assert report.membership_events == 1
        oracle = run_sequential(*workload, 12)
        np.testing.assert_allclose(report.values, oracle, atol=1e-9)

    def test_shrink_to_one_rank(self, workload):
        trace = MembershipTrace(
            4, [E(0.01, "leave", 0), E(0.02, "leave", 1), E(0.03, "leave", 3)]
        )
        results = {}
        for backend in ("vectorized", "reference"):
            report = self._run(workload, trace, backend)
            sizes = report.partition_final.sizes()
            assert sizes.tolist().count(0) == 3
            assert sizes[2] == workload[0].num_vertices
            results[backend] = report
        assert results["vectorized"].differences(
            results["reference"], virtual=True
        ) == []
        oracle = run_sequential(*workload, 12)
        np.testing.assert_allclose(
            results["vectorized"].values, oracle, atol=1e-9
        )

    def test_join_before_first_epoch(self, workload):
        """A join landing at the very first iteration boundary, before any
        monitor window exists, is adopted without desync on either backend."""
        trace = MembershipTrace(
            4, [E(1e-9, "join", 3)], initially_inactive=[3]
        )
        results = {}
        for backend in ("vectorized", "reference"):
            report = self._run(workload, trace, backend)
            assert report.partition_final.sizes()[3] > 0
            results[backend] = report
        assert results["vectorized"].differences(
            results["reference"], virtual=True
        ) == []

    def test_static_baseline_drains_but_ignores_joins(self, workload):
        drain = MembershipTrace(4, [E(0.02, "leave", 0)])
        report = self._run(workload, drain, None, lb="off")
        assert report.num_remaps == 1  # the mandatory drain
        assert report.partition_final.sizes()[0] == 0

        join = MembershipTrace(4, [E(0.02, "join", 3)], initially_inactive=[3])
        report = self._run(workload, join, None, lb="off")
        assert report.num_remaps == 0
        assert report.partition_final.sizes()[3] == 0  # never adopted

        # A later forced drain must not smuggle data onto the ignored
        # joiner: the baseline's drain targets existing holders only.
        join_then_leave = MembershipTrace(
            4,
            [E(0.02, "join", 3), E(0.04, "leave", 0)],
            initially_inactive=[3],
        )
        report = self._run(workload, join_then_leave, None, lb="off")
        sizes = report.partition_final.sizes()
        assert sizes[0] == 0 and sizes[3] == 0
        assert sizes[1] > 0 and sizes[2] > 0
        oracle = run_sequential(*workload, 12)
        np.testing.assert_allclose(report.values, oracle, atol=1e-9)

        # ...unless the departing ranks held everything: then the data
        # must land on whatever is active, joiner included.
        only_choice = MembershipTrace(
            2, [E(0.005, "join", 1), E(0.012, "leave", 0)],
            initially_inactive=[1],
        )
        report = self._run(workload, only_choice, None, lb="off", p=2)
        sizes = report.partition_final.sizes()
        assert sizes[0] == 0 and sizes[1] == workload[0].num_vertices

    def test_replace_hands_over_atomically(self, workload):
        trace = MembershipTrace(
            4, [E(0.02, "replace", 0, replacement=3)], initially_inactive=[3]
        )
        report = self._run(workload, trace, None, lb="off")
        sizes = report.partition_final.sizes()
        assert sizes[0] == 0 and sizes[3] > 0
        oracle = run_sequential(*workload, 12)
        np.testing.assert_allclose(report.values, oracle, atol=1e-9)

    def test_decide_rejects_inf_but_imputes_nan(self, workload):
        """Only the documented nan sentinel is imputed; an infinite load
        report (e.g. a broken predictor) still fails loudly."""
        from repro.runtime.adaptive import decide

        part = partition_list(100, np.ones(2))

        def fn(ctx):
            ok = decide(ctx, part, [1e-4, float("nan")], 10)
            assert np.isfinite(ok.predicted_balanced)
            with pytest.raises(LoadBalanceError, match="invalid load"):
                decide(ctx, part, [1e-4, float("inf")], 10)
            return True

        assert all(run_spmd(uniform_cluster(2), fn).values)

    def test_membership_requires_barriers(self, workload):
        trace = MembershipTrace(4, [E(0.02, "leave", 0)])
        with pytest.raises(ConfigurationError, match="barrier"):
            self._run_config_error(workload, trace)

    def _run_config_error(self, workload, trace):
        graph, y0 = workload
        config = ProgramConfig(
            iterations=4,
            membership=trace,
            barrier_each_iteration=False,
        )
        run_program(graph, uniform_cluster(4), config, y0=y0)

    def test_session_rejects_data_on_standby_ranks(self, workload):
        graph, _ = workload
        n = graph.num_vertices
        trace = MembershipTrace(3, [], initially_inactive=[2])

        def rank_main(ctx):
            AdaptiveSession(
                ctx,
                graph,
                partition_list(n, np.ones(ctx.size)),  # rank 2 gets data
                total_iterations=4,
            )

        with pytest.raises(RankFailedError, match="standby"):
            run_spmd(uniform_cluster(3).with_membership(trace), rank_main)

    def test_dsl_string_accepted_by_program_config(self, workload):
        report = self._run(workload, "leave:1@0.02", None)
        assert report.partition_final.sizes()[1] == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_differential_random_membership(self, seed):
        """Random traces x both backends: bit-identical fields, clocks,
        and remap counts, and values equal to the sequential oracle."""
        rng = np.random.default_rng(seed)
        graph = paper_mesh(300, seed=17)
        y0 = np.random.default_rng(17).uniform(0, 100, graph.num_vertices)
        p = int(rng.integers(2, 5))
        iters = int(rng.integers(6, 12))
        # Virtual event times on the scale of this workload's short runs.
        trace = _random_trace(p, rng, t_scale=0.05)
        style = rng.choice(["centralized", "distributed", "off"])
        reports = {}
        for backend in ("vectorized", "reference"):
            config = ProgramConfig(
                iterations=iters,
                backend=backend,
                membership=trace,
                load_balance=str(style),
                initial_capabilities="equal",
            )
            reports[backend] = run_program(
                graph, uniform_cluster(p), config, y0=y0
            )
        a, b = reports["vectorized"], reports["reference"]
        assert a.differences(b, virtual=True) == []
        np.testing.assert_array_equal(
            a.partition_final.bounds, b.partition_final.bounds
        )
        oracle = run_sequential(graph, y0, iters)
        np.testing.assert_allclose(a.values, oracle, atol=1e-9)


class TestElasticScenarios:
    def test_elastic_cluster_builds_all_scenarios(self):
        from repro.apps.workloads import ELASTIC_SCENARIOS, elastic_cluster

        horizon = 100.0
        for scenario in ELASTIC_SCENARIOS:
            cluster = elastic_cluster(4, scenario, horizon)
            assert cluster.membership is not None
            assert cluster.membership.world_size == 4

        leave = elastic_cluster(4, "leave-at-peak", horizon)
        assert leave.processors[0].load.load_at(0.5 * horizon) > 0
        assert np.flatnonzero(leave.membership.active_mask(1.06 * horizon)).tolist() == [1, 2, 3]

        join = elastic_cluster(4, "join-midrun", horizon)
        assert np.flatnonzero(join.membership.active_mask(0.0)).tolist() == [0, 1, 2]
        assert np.flatnonzero(join.membership.active_mask(0.5 * horizon)).tolist() == [0, 1, 2, 3]

        churn = elastic_cluster(4, "churn", horizon)
        assert np.flatnonzero(churn.membership.active_mask(0.35 * horizon)).tolist() == [0, 2, 3]
        assert np.flatnonzero(churn.membership.active_mask(0.65 * horizon)).tolist() == [0, 1, 2, 3]
        assert np.flatnonzero(churn.membership.active_mask(0.95 * horizon)).tolist() == [0, 1, 3]

        with pytest.raises(ValueError):
            elastic_cluster(4, "tsunami", horizon)
        with pytest.raises(ValueError):
            elastic_cluster(4, "churn", 0.0)
        with pytest.raises(ValueError):
            elastic_cluster(1, "churn", horizon)

    def test_cluster_active_mask_follows_membership(self):
        from repro.apps.workloads import elastic_cluster

        cluster = elastic_cluster(4, "join-midrun", 100.0)
        assert not cluster.active_mask(0.0)[3]
        assert cluster.active_mask(60.0)[3]
        # The raw machine view ignores membership: the standby rank could
        # still deliver work if it participated.
        assert cluster.effective_speeds(0.0)[3] > 0.0

    def test_subset_carries_membership(self):
        from repro.apps.workloads import elastic_cluster

        cluster = elastic_cluster(4, "churn", 100.0)
        sub = cluster.subset([0, 1])
        assert sub.membership.world_size == 2
        assert np.flatnonzero(sub.membership.active_mask(35.0)).tolist() == [0]
        # A sub-world that is not runnable (its only rank starts standby)
        # surfaces as the same ConfigurationError as any invalid subset.
        join = elastic_cluster(3, "join-midrun", 10.0)
        with pytest.raises(ConfigurationError, match="does not restrict"):
            join.subset([2])

    def test_scale_elastic_measurement_smoke(self):
        from repro.experiments.catalog import scale_elastic_measurements

        m = scale_elastic_measurements(
            "10k", "leave-at-peak", "vectorized", True, 4, 30, 5
        )
        baseline = scale_elastic_measurements(
            "10k", "leave-at-peak", "vectorized", False, 4, 30, 5
        )
        assert m["membership_events"] == 1
        assert m["num_remaps"] >= 2  # at least one rebalance + the drain
        assert m["final_active"] == 3
        assert baseline["num_remaps"] == 1  # the mandatory drain only
        assert m["makespan"] < baseline["makespan"]
