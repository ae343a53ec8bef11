"""Tests for repro.runtime.resilience: checkpoint, recovery, policies,
and the --membership/--checkpoint DSL validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles_runtime import ring_partners
from repro.errors import (
    RankFailedError,
    ResilienceError,
    ResilienceWarning,
)
from repro.graph.generators import paper_mesh
from repro.net.cluster import uniform_cluster
from repro.net.loadmodel import MembershipEvent, MembershipTrace
from repro.net.network import ETHERNET_10MBIT, PointToPointNetwork
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.program import ProgramConfig, run_program
from repro.runtime.resilience import (
    CostModelCheckpoint,
    IntervalCheckpoint,
    check_recoverable,
    estimate_checkpoint_cost,
    format_checkpoint_policy,
    parse_checkpoint_policy,
    recover_redistribute_fields,
    replica_partners,
    require_checkpoint,
    resolve_checkpoint_policy,
    take_checkpoint,
)

#: pytest.ini turns a leaked ResilienceWarning into an error.  Failure
#: runs and randomized placements can leave fewer survivors than the
#: replication factor asks for; the cap is incidental there, so ignore it
#: (tests where the cap is the point assert it with ``pytest.warns``).
ignore_replication_cap = pytest.mark.filterwarnings(
    "ignore::repro.errors.ResilienceWarning"
)

# ----------------------------------------------------------------------
# DSL validation: every malformed spec gets an actionable message


class TestMembershipDSLValidation:
    def test_fail_event_parses(self):
        trace = MembershipTrace.parse("fail:2@7.5", 4)
        assert trace.events[0].kind == "fail"
        assert trace.has_failures
        assert trace.failed_mask(8.0).tolist() == [False, False, True, False]

    def test_unknown_event_kind_lists_vocabulary(self):
        with pytest.raises(ValueError, match="unknown event kind 'oops'"):
            MembershipTrace.parse("oops:1@3", 4)
        with pytest.raises(ValueError, match="leave, join, replace, fail"):
            MembershipTrace.parse("oops:1@3", 4)

    def test_non_monotonic_times_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing time order"):
            MembershipTrace.parse("leave:0@9, join:0@5", 4)

    def test_non_monotonic_message_names_offender(self):
        with pytest.raises(ValueError, match="goes backwards"):
            MembershipTrace.parse("fail:1@10, leave:2@3", 4)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match=r"valid ranks: 0\.\.3"):
            MembershipTrace.parse("leave:7@2", 4)

    def test_standby_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MembershipTrace.parse("standby:4", 4)

    def test_replace_ranks_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            MembershipTrace.parse("replace:0->9@2", 4)

    def test_malformed_token_shape(self):
        with pytest.raises(ValueError, match="kind:rank@time"):
            MembershipTrace.parse("leave", 4)

    def test_coincident_times_allowed(self):
        trace = MembershipTrace.parse("standby:3, leave:0@5, join:3@5", 4)
        assert len(trace.events) == 2

    def test_fail_requires_active_rank(self):
        with pytest.raises(ValueError, match="cannot fail"):
            MembershipTrace(4, [MembershipEvent(2.0, "fail", 1)],
                            initially_inactive=[1])

    def test_failed_rank_rejoins_blank(self):
        trace = MembershipTrace(
            3,
            [MembershipEvent(1.0, "fail", 1), MembershipEvent(2.0, "join", 1)],
        )
        assert trace.failed_mask(1.5)[1]
        assert not trace.failed_mask(2.5)[1]
        assert trace.active_mask(2.5)[1]


class TestCheckpointDSLValidation:
    def test_interval_parses(self):
        policy = parse_checkpoint_policy("interval:4")
        assert isinstance(policy, IntervalCheckpoint) and policy.k == 4

    def test_cost_parses(self):
        policy = parse_checkpoint_policy("cost:50")
        assert isinstance(policy, CostModelCheckpoint) and policy.mtbf == 50.0

    def test_unknown_policy_lists_vocabulary(self):
        with pytest.raises(ResilienceError, match="known policies"):
            parse_checkpoint_policy("hourly:3")

    def test_missing_parameter(self):
        with pytest.raises(ResilienceError, match="missing its parameter"):
            parse_checkpoint_policy("interval")
        with pytest.raises(ResilienceError, match="missing its parameter"):
            parse_checkpoint_policy("cost:")

    def test_non_integer_interval(self):
        with pytest.raises(ResilienceError, match="whole number"):
            parse_checkpoint_policy("interval:2.5")

    def test_interval_below_one(self):
        with pytest.raises(ResilienceError, match=">= 1"):
            parse_checkpoint_policy("interval:0")

    def test_non_numeric_mtbf(self):
        with pytest.raises(ResilienceError, match="MTBF estimate"):
            parse_checkpoint_policy("cost:soon")

    def test_non_positive_mtbf(self):
        with pytest.raises(ResilienceError, match="finite positive"):
            parse_checkpoint_policy("cost:-3")

    def test_program_config_normalizes_and_validates(self):
        cfg = ProgramConfig(iterations=2, checkpoint="interval:4")
        assert isinstance(cfg.checkpoint, IntervalCheckpoint)
        with pytest.raises(ResilienceError):
            ProgramConfig(iterations=2, checkpoint="bogus:1")


# ----------------------------------------------------------------------
# policies


class TestResolveAndRequire:
    def test_none_resolves_to_none(self):
        assert resolve_checkpoint_policy(None) is None

    def test_instance_passes_through(self):
        policy = IntervalCheckpoint(3)
        assert resolve_checkpoint_policy(policy) is policy

    def test_string_is_parsed(self):
        assert resolve_checkpoint_policy("cost:50") == parse_checkpoint_policy(
            "cost:50"
        )

    def test_other_types_rejected(self):
        with pytest.raises(ResilienceError, match="cannot resolve"):
            resolve_checkpoint_policy(4)

    def test_failure_without_policy_is_refused(self):
        trace = MembershipTrace(3, [MembershipEvent(1.0, "fail", 1)])
        with pytest.raises(ResilienceError, match="checkpoint policy"):
            require_checkpoint(trace, None)
        require_checkpoint(trace, IntervalCheckpoint(2))

    def test_announced_changes_need_no_policy(self):
        trace = MembershipTrace(3, [MembershipEvent(1.0, "leave", 1)])
        require_checkpoint(trace, None)
        require_checkpoint(None, None)


class TestPolicies:
    def test_interval_fires_every_k(self):
        policy = IntervalCheckpoint(3)
        due = [
            policy.due(it, 0.0, last_checkpoint_clock=0.0, checkpoint_cost=0.1)
            for it in range(9)
        ]
        assert due == [False, False, True] * 3

    def test_cost_model_uses_youngs_interval(self):
        policy = CostModelCheckpoint(mtbf=50.0)
        # T* = sqrt(2 * 1.0 * 50) = 10
        assert policy.interval(1.0) == pytest.approx(10.0)
        assert not policy.due(
            0, 9.9, last_checkpoint_clock=0.0, checkpoint_cost=1.0
        )
        assert policy.due(
            0, 10.0, last_checkpoint_clock=0.0, checkpoint_cost=1.0
        )


# ----------------------------------------------------------------------
# ring assignment and analytic pricing


class TestRingPartners:
    def test_ring_over_active_set(self):
        part = partition_list(100, [0.25, 0.25, 0.25, 0.25])
        partners = ring_partners(part, np.array([True, True, True, True]))
        assert partners == {0: 1, 1: 2, 2: 3, 3: 0}

    def test_inactive_ranks_skipped(self):
        part = partition_list(90, [1 / 3, 0.0, 1 / 3, 1 / 3])
        partners = ring_partners(part, np.array([True, False, True, True]))
        assert partners == {0: 2, 2: 3, 3: 0}

    def test_empty_interval_holder_but_not_owner(self):
        # Rank 1 is active but owns nothing: it holds a replica (it is
        # rank 0's successor) yet appears as no one's owner.
        part = partition_list(90, [0.5, 0.0, 0.5])
        partners = ring_partners(part, np.ones(3, dtype=bool))
        assert partners == {0: 1, 2: 0}

    def test_single_active_rank_has_no_partner(self):
        part = partition_list(50, [1.0])
        with pytest.warns(ResilienceWarning, match="capped to 0"):
            assert ring_partners(part, np.array([True])) == {}


class TestEstimateCheckpointCost:
    def test_shared_medium_serializes(self):
        """Same link parameters; only the shared medium serializes."""
        part = partition_list(4000, [0.25, 0.25, 0.25, 0.25])
        shared = estimate_checkpoint_cost(
            ETHERNET_10MBIT(), part, np.ones(4, bool), 8
        )
        switched = estimate_checkpoint_cost(
            PointToPointNetwork(), part, np.ones(4, bool), 8
        )
        assert shared > switched

    def test_zero_without_partners(self):
        part = partition_list(50, [1.0])
        net = PointToPointNetwork()
        with pytest.warns(ResilienceWarning, match="capped to 0"):
            cost = estimate_checkpoint_cost(net, part, np.ones(1, bool), 8)
        assert cost == 0.0

    def test_rejects_bad_sizes(self):
        part = partition_list(50, [0.5, 0.5])
        net = PointToPointNetwork()
        with pytest.raises(ResilienceError):
            estimate_checkpoint_cost(net, part, np.ones(2, bool), 0)


# ----------------------------------------------------------------------
# checkpoint + recovery mechanics (unit level, via run_spmd)


def _checkpoint_and_recover(n, p, dead, *, k_fields=2):
    """Take an epoch, kill *dead*, reassemble on survivors; returns the
    per-rank recovered blocks plus the expected full arrays."""
    part = partition_list(n, np.ones(p))
    base = [
        np.arange(n, dtype=np.float64) * (f + 1) + 0.25 for f in range(k_fields)
    ]
    active = np.ones(p, dtype=bool)
    survivors = active.copy()
    survivors[dead] = False
    failed = ~survivors
    new_part = partition_list(n, survivors.astype(np.float64))

    def fn(ctx):
        lo, hi = part.interval(ctx.rank)
        fields = [b[lo:hi].copy() for b in base]
        cp = take_checkpoint(
            ctx, part, fields, active,
            next_iteration=0, epoch=0,
        )
        # Restored-from-epoch data must match the checkpoint exactly.
        for snap, b in zip(cp.snapshot, (b[lo:hi] for b in base)):
            np.testing.assert_array_equal(snap, b)
        # Survivors mutate their working copy post-checkpoint; the dead
        # rank's working copy is irrelevant (its memory is gone).
        restored = [s.copy() for s in cp.snapshot]
        outs = recover_redistribute_fields(
            ctx, part, new_part, restored,
            failed=failed, partners=cp.partners, replicas=cp.replicas,
        )
        ctx.barrier()
        return [o.copy() for o in outs], ctx.clock

    res = run_spmd(uniform_cluster(p), fn)
    return res, new_part, base


class TestCheckpointRecovery:
    def test_epoch_reassembles_after_failure(self):
        res, new_part, base = _checkpoint_and_recover(120, 4, 1)
        for rank, (outs, _) in enumerate(res.values):
            lo, hi = new_part.interval(rank)
            for f, b in zip(outs, base):
                np.testing.assert_array_equal(f, b[lo:hi])

    def test_reruns_bit_identical(self):
        runs = [
            _checkpoint_and_recover(97, 4, 2, k_fields=3)[0] for _ in range(2)
        ]
        a, b = ([v[0] for v in res.values] for res in runs)
        assert [v[1] for v in runs[0].values] == [v[1] for v in runs[1].values]
        for blocks_a, blocks_b in zip(a, b):
            for fa, fb in zip(blocks_a, blocks_b):
                np.testing.assert_array_equal(fa, fb)

    def test_partner_failure_is_unrecoverable(self):
        part = partition_list(80, np.ones(4))
        partners = ring_partners(part, np.ones(4, dtype=bool))
        failed = np.array([False, True, True, False])
        with pytest.raises(ResilienceError, match="both failed"):
            check_recoverable(part, partners, failed)

    def test_missing_partner_is_unrecoverable(self):
        part = partition_list(80, np.ones(4))
        failed = np.array([False, True, False, False])
        with pytest.raises(ResilienceError, match="no replica partner"):
            check_recoverable(part, {}, failed)

    def test_dead_rank_owning_nothing_needs_no_replica(self):
        part = partition_list(80, [0.5, 0.0, 0.5])
        failed = np.array([False, True, False])
        check_recoverable(part, {}, failed)  # does not raise

    def test_replica_of_another_trailing_shape_is_rejected(self):
        """A (count, 3) replica for a (count, 2) field fails at
        replication time, naming the field, not later mid-rollback."""
        part = partition_list(40, [0.0, 1.0])  # only rank 1 -> rank 0 ships

        def fn(ctx):
            lo, hi = part.interval(ctx.rank)
            width = 3 if ctx.rank == 1 else 2
            take_checkpoint(
                ctx, part, [np.zeros((hi - lo, width))], np.ones(2, bool),
                next_iteration=0, epoch=0,
            )

        with pytest.raises(RankFailedError) as exc:
            run_spmd(uniform_cluster(2), fn)
        [failure] = exc.value.failures.values()
        assert isinstance(failure, ResilienceError)
        assert "field 0" in str(failure) and "(40, 3)" in str(failure)

    def test_recovery_partition_must_exclude_dead(self):
        part = partition_list(60, np.ones(3))

        def fn(ctx):
            lo, hi = part.interval(ctx.rank)
            fields = [np.zeros(hi - lo)]
            cp = take_checkpoint(
                ctx, part, fields, np.ones(3, bool),
                next_iteration=0, epoch=0,
            )
            recover_redistribute_fields(
                ctx, part, part, fields,
                failed=np.array([False, True, False]),
                partners=cp.partners, replicas=cp.replicas,
            )

        with pytest.raises(RankFailedError) as exc:
            run_spmd(uniform_cluster(3), fn)
        assert any(
            isinstance(e, ResilienceError)
            for e in exc.value.failures.values()
        )


# ----------------------------------------------------------------------
# end to end through run_program


def _fail_run(
    p=4,
    *,
    lb="centralized",
    checkpoint="interval:4",
    events=((0.04, "fail", 1),),
    iterations=20,
    n=800,
    inactive=(),
):
    graph = paper_mesh(n, seed=0)
    y0 = np.random.default_rng(0).uniform(0, 100, graph.num_vertices)
    trace = MembershipTrace(
        p,
        [MembershipEvent(t, kind, r) for t, kind, r in events],
        initially_inactive=inactive,
    )
    cluster = uniform_cluster(p).with_membership(trace)
    config = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        load_balance=lb,
        checkpoint=checkpoint,
    )
    return run_program(graph, cluster, config, y0=y0)


def _baseline_run(p=4, *, lb="centralized", iterations=20, n=800):
    graph = paper_mesh(n, seed=0)
    y0 = np.random.default_rng(0).uniform(0, 100, graph.num_vertices)
    config = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        load_balance=lb,
    )
    return run_program(graph, uniform_cluster(p), config, y0=y0)


class TestFailureRuns:
    def test_values_bit_identical_to_no_failure_run(self):
        rep = _fail_run()
        rep0 = _baseline_run()
        assert np.array_equal(rep.values, rep0.values)
        assert rep.num_rollbacks == 1
        assert rep.membership_events == 1
        # The failure costs time: rollback + re-execution + checkpoints.
        assert rep.makespan > rep0.makespan

    def test_failed_rank_ends_empty(self):
        rep = _fail_run()
        assert rep.partition_final is not None
        assert rep.partition_final.size(1) == 0

    @pytest.mark.parametrize("lb", ["off", "centralized"])
    def test_virtual_metrics_bit_identical_across_reruns(self, lb):
        a, b = (_fail_run(lb=lb) for _ in range(2))
        assert a.differences(b, virtual=True) == []

    def test_static_baseline_recovers_too(self):
        rep = _fail_run(lb="off")
        rep0 = _baseline_run(lb="off")
        assert np.array_equal(rep.values, rep0.values)
        assert rep.num_rollbacks == 1
        assert rep.partition_final.size(1) == 0

    def test_repeated_failures_roll_back_twice(self):
        rep = _fail_run(
            events=((0.03, "fail", 1), (0.07, "fail", 2)), iterations=20
        )
        rep0 = _baseline_run()
        assert rep.num_rollbacks == 2
        assert np.array_equal(rep.values, rep0.values)
        sizes = rep.partition_final.sizes()
        assert sizes[1] == 0 and sizes[2] == 0

    def test_failure_before_first_periodic_checkpoint(self):
        # interval:100 never fires mid-run; recovery rolls back to the
        # bootstrap epoch (the initial state) and re-executes everything.
        rep = _fail_run(checkpoint="interval:100", events=((1e-4, "fail", 0),))
        rep0 = _baseline_run()
        assert np.array_equal(rep.values, rep0.values)
        assert rep.num_rollbacks == 1
        # bootstrap + post-recovery epochs only
        assert rep.num_checkpoints == 2

    def test_cost_model_policy_end_to_end(self):
        rep = _fail_run(checkpoint="cost:0.05")
        rep0 = _baseline_run()
        assert np.array_equal(rep.values, rep0.values)
        assert rep.num_checkpoints >= 2

    def test_mixed_batch_fail_and_leave(self):
        rep = _fail_run(
            events=((0.04, "fail", 1), (0.04, "leave", 2)), iterations=20
        )
        rep0 = _baseline_run()
        assert np.array_equal(rep.values, rep0.values)
        sizes = rep.partition_final.sizes()
        assert sizes[1] == 0 and sizes[2] == 0

    def test_checkpoint_overhead_only_run(self):
        # A checkpoint policy without any membership trace: pure overhead,
        # same final values, nonzero checkpoint time.
        graph = paper_mesh(600, seed=0)
        y0 = np.random.default_rng(0).uniform(0, 100, graph.num_vertices)
        cfg = ProgramConfig(iterations=10, initial_capabilities="equal",
                            checkpoint="interval:2")
        rep = run_program(graph, uniform_cluster(3), cfg, y0=y0)
        base = run_program(
            graph, uniform_cluster(3),
            ProgramConfig(iterations=10, initial_capabilities="equal"),
            y0=y0,
        )
        assert np.array_equal(rep.values, base.values)
        assert rep.num_checkpoints == 5  # bootstrap + iterations 1,3,5,7
        assert rep.checkpoint_time > 0
        assert rep.makespan > base.makespan

    def test_empty_rank_failure_needs_no_rollback(self):
        # Rank 3 joins standby->active but is never adopted (static
        # baseline: joins are ignored), so it owns nothing when its host
        # dies: the live state is intact and no rollback must happen.
        rep = _fail_run(
            lb="off",
            events=((0.01, "join", 3), (0.05, "fail", 3)),
            inactive=(3,),
        )
        # Standby rank 3 never holds data under the static baseline, so
        # the run matches a plain 3-active-rank static run's values.
        rep0 = _baseline_run(lb="off", p=4)
        assert rep.num_rollbacks == 0
        assert rep.membership_events == 2
        assert np.array_equal(rep.values, rep0.values)

    def test_refresh_does_not_double_checkpoint(self):
        # interval:1 fires at every non-final boundary (19 of them for 20
        # iterations) plus the bootstrap epoch = 20.  The redundancy
        # refresh after the data-less failure must substitute for — not
        # stack on — the interval-due epoch at that same boundary.
        rep = _fail_run(
            lb="off",
            checkpoint="interval:1",
            events=((0.01, "join", 3), (0.05, "fail", 3)),
            inactive=(3,),
        )
        assert rep.num_rollbacks == 0
        assert rep.num_checkpoints == 20

    @ignore_replication_cap
    def test_dataless_failure_refreshes_epoch(self):
        # Epoch 0's ring over {0,1,2} makes empty rank 2 the replica
        # holder for data-owner rank 1.  When rank 2's host dies (losing
        # nothing), the session must re-replicate over the survivors —
        # otherwise rank 1's later failure would read as an unrecoverable
        # double failure of a ring edge even though the live state was
        # intact the whole time.
        graph = paper_mesh(800, seed=0)
        y0 = np.random.default_rng(0).uniform(0, 100, graph.num_vertices)
        trace = MembershipTrace(
            3,
            [
                MembershipEvent(0.01, "fail", 2),
                MembershipEvent(0.05, "fail", 1),
            ],
        )
        cluster = uniform_cluster(3).with_membership(trace)
        cfg = ProgramConfig(
            iterations=20,
            initial_capabilities=[0.5, 0.5, 0.0],
            checkpoint="interval:100",  # only bootstrap + refresh epochs
        )
        rep = run_program(graph, cluster, cfg, y0=y0)
        base = run_program(
            graph,
            uniform_cluster(3),
            ProgramConfig(
                iterations=20, initial_capabilities=[0.5, 0.5, 0.0]
            ),
            y0=y0,
        )
        assert rep.num_rollbacks == 1  # only the data-holder's failure
        assert np.array_equal(rep.values, base.values)
        assert rep.partition_final.sizes().tolist()[1:] == [0, 0]

    def test_driver_ignoring_next_iteration_raises(self):
        # The pre-PR-5 driving pattern (plain for-loop, no
        # next_iteration) must fail loudly after a rollback, not
        # silently skip the re-execution.
        from repro.partition.intervals import partition_list
        from repro.runtime.adaptive import AdaptiveSession

        graph = paper_mesh(300, seed=0)
        n = graph.num_vertices
        trace = MembershipTrace(3, [MembershipEvent(0.005, "fail", 1)])
        cluster = uniform_cluster(3).with_membership(trace)

        def fn(ctx):
            session = AdaptiveSession(
                ctx,
                graph,
                partition_list(n, np.ones(3)),
                total_iterations=10,
                lb="centralized",
                checkpoint="interval:2",
            )
            lo, hi = session.interval()
            local = np.arange(lo, hi, dtype=np.float64)
            (local,) = session.bootstrap_resilience((local,))
            for it in range(10):  # wrong: never calls next_iteration()
                ctx.compute(0.01)
                ctx.barrier()
                (local,) = session.maybe_rebalance(it, (local,))

        from repro.net.spmd import run_spmd as _run

        with pytest.raises(RankFailedError) as exc:
            _run(cluster, fn)
        assert any(
            isinstance(e, ResilienceError)
            and "next_iteration" in str(e)
            for e in exc.value.failures.values()
        )

    def test_fail_without_policy_is_actionable(self):
        with pytest.raises(ResilienceError, match="checkpoint policy"):
            _fail_run(checkpoint=None)

    def test_report_aggregates_are_consistent(self):
        rep = _fail_run()
        assert rep.num_checkpoints == rep.rank_stats[0].num_checkpoints
        assert rep.num_rollbacks == 1
        assert rep.lost_time > 0
        assert rep.checkpoint_time > 0
        assert rep.rollback_time > 0


# ----------------------------------------------------------------------
# hypothesis: random failure times/ranks never corrupt the result


@ignore_replication_cap
@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**20),
    p=st.integers(2, 5),
    frac=st.floats(0.05, 0.9),
)
def test_random_failure_preserves_result(seed, p, frac):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 600))
    iterations = int(rng.integers(6, 16))
    dead = int(rng.integers(0, p))
    graph = paper_mesh(n, seed=seed)
    y0 = rng.uniform(0, 100, graph.num_vertices)
    base_cfg = ProgramConfig(
        iterations=iterations, initial_capabilities="equal",
        load_balance="centralized",
    )
    rep0 = run_program(graph, uniform_cluster(p), base_cfg, y0=y0)
    t_fail = max(rep0.makespan * frac, 1e-9)
    trace = MembershipTrace(p, [MembershipEvent(t_fail, "fail", dead)])
    cfg = ProgramConfig(
        iterations=iterations, initial_capabilities="equal",
        load_balance="centralized", checkpoint="interval:3",
    )
    rep = run_program(
        graph, uniform_cluster(p).with_membership(trace), cfg, y0=y0
    )
    np.testing.assert_array_equal(rep.values, rep0.values)
    if t_fail <= rep.makespan:
        assert rep.membership_events == 1


# ----------------------------------------------------------------------
# k-successor replication: placement properties and the DSL


def _random_world(seed: int, p: int):
    """A partition + active mask pair with >= 2 active ranks."""
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.0, 1.0, size=p)
    caps[rng.integers(0, p)] = 0.0  # at least one empty interval
    if caps.sum() == 0:
        caps[0] = 1.0
    part = partition_list(int(rng.integers(p, 40 * p)), caps + 1e-12)
    active = rng.random(p) < 0.75
    active[rng.integers(0, p)] = True
    if active.sum() < 2:
        active[np.argmin(active)] = True
    return part, active


class TestReplicaPartnerPlacement:
    @ignore_replication_cap
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**20),
        p=st.integers(2, 9),
        k=st.integers(1, 4),
    )
    def test_every_data_holder_gets_k_distinct_live_replicas(
        self, seed, p, k
    ):
        part, active = _random_world(seed, p)
        partners = replica_partners(part, active, replication_factor=k)
        n_active = int(active.sum())
        expected_k = min(k, n_active - 1)
        for owner, holders in partners.items():
            assert part.size(owner) > 0
            assert len(holders) == expected_k
            assert len(set(holders)) == len(holders)  # distinct
            assert owner not in holders  # no self-replication
            assert all(active[h] for h in holders)  # all live
        # Every data-holding active rank is covered.
        for r in np.flatnonzero(active):
            if part.size(int(r)) > 0:
                assert int(r) in partners

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**20), p=st.integers(2, 9))
    def test_k1_matches_the_classic_ring(self, seed, p):
        part, active = _random_world(seed, p)
        singles = replica_partners(part, active, replication_factor=1)
        ring = ring_partners(part, active)
        assert ring == {owner: h[0] for owner, h in singles.items()}

    @ignore_replication_cap
    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**20),
        p=st.integers(3, 9),
        k=st.integers(1, 3),
    )
    def test_shrinking_re_replicates_orphaned_slabs(self, seed, p, k):
        # Remove one active rank; recomputing placement over the shrunken
        # set must re-home every orphaned holder assignment onto live
        # ranks only — no dangling references to the removed machine.
        part, active = _random_world(seed, p)
        if active.sum() < 3:
            return
        removed = int(np.flatnonzero(active)[0])
        shrunk = active.copy()
        shrunk[removed] = False
        partners = replica_partners(part, shrunk, replication_factor=k)
        for owner, holders in partners.items():
            assert owner != removed
            assert removed not in holders
            assert all(shrunk[h] for h in holders)

    def test_k_is_capped_by_the_active_set(self):
        part = partition_list(90, [1 / 3, 1 / 3, 1 / 3])
        with pytest.warns(ResilienceWarning, match="capped to 2"):
            partners = replica_partners(
                part, np.ones(3, dtype=bool), replication_factor=10
            )
        assert all(len(h) == 2 for h in partners.values())

    def test_successors_walk_the_ring_in_order(self):
        part = partition_list(100, [0.25, 0.25, 0.25, 0.25])
        partners = replica_partners(
            part, np.ones(4, dtype=bool), replication_factor=2
        )
        assert partners == {
            0: (1, 2), 1: (2, 3), 2: (3, 0), 3: (0, 1)
        }

    def test_rejects_nonpositive_factor(self):
        part = partition_list(50, [0.5, 0.5])
        with pytest.raises(ResilienceError, match="replication_factor"):
            replica_partners(part, np.ones(2, bool), replication_factor=0)


class TestReplicationDSL:
    def test_interval_with_replication_suffix(self):
        policy = parse_checkpoint_policy("interval:4:r2")
        assert isinstance(policy, IntervalCheckpoint)
        assert policy.k == 4
        assert policy.replication_factor == 2

    def test_cost_with_replication_suffix(self):
        policy = parse_checkpoint_policy("cost:0.5:r3")
        assert isinstance(policy, CostModelCheckpoint)
        assert policy.replication_factor == 3

    def test_default_replication_is_one(self):
        assert parse_checkpoint_policy("interval:4").replication_factor == 1

    def test_malformed_suffix_is_actionable(self):
        with pytest.raises(ResilienceError, match="r2"):
            parse_checkpoint_policy("interval:4:x2")
        with pytest.raises(ResilienceError, match="r2"):
            parse_checkpoint_policy("interval:4:r")
        with pytest.raises(ResilienceError, match="too many"):
            parse_checkpoint_policy("interval:4:r2:r3")

    def test_zero_replication_rejected(self):
        with pytest.raises(ResilienceError, match="replication_factor"):
            parse_checkpoint_policy("interval:4:r0")

    @pytest.mark.parametrize("spec", [
        "interval:4", "interval:1:r2", "cost:50", "cost:0.125:r3",
    ])
    def test_format_round_trips(self, spec):
        policy = parse_checkpoint_policy(spec)
        assert format_checkpoint_policy(policy) == spec
        assert parse_checkpoint_policy(format_checkpoint_policy(policy)) == policy

    def test_program_config_takes_the_suffix(self):
        cfg = ProgramConfig(checkpoint="interval:4:r3")
        assert cfg.checkpoint.replication_factor == 3
        assert ProgramConfig(checkpoint="interval:4").checkpoint \
            .replication_factor == 1

    def test_nonpositive_replication_rejected(self):
        with pytest.raises(ResilienceError, match="replication_factor"):
            ProgramConfig(checkpoint="interval:4:r0")


@ignore_replication_cap
class TestKSuccessorRecovery:
    """End-to-end: k correlated failures per ring neighborhood."""

    _edge = ((0.03, "fail", 1), (0.03, "fail", 2))

    def test_ring_edge_double_failure_is_unrecoverable_at_k1(self):
        # Pinned: the k=1 correlated-failure limit stays a diagnosed
        # ResilienceError, not a crash and not silent corruption.
        with pytest.raises(RankFailedError) as exc:
            _fail_run(events=self._edge, checkpoint="interval:2")
        errors = list(exc.value.failures.values())
        assert errors and all(
            isinstance(e, ResilienceError) for e in errors
        )
        assert any("replication factor" in str(e) for e in errors)

    def test_ring_edge_double_failure_recovers_at_k2(self):
        rep = _fail_run(events=self._edge, checkpoint="interval:2:r2")
        rep0 = _baseline_run()
        assert np.array_equal(rep.values, rep0.values)
        assert rep.num_rollbacks >= 1
        sizes = rep.partition_final.sizes()
        assert sizes[1] == 0 and sizes[2] == 0

    def test_triple_failure_needs_k3(self):
        triple = ((0.03, "fail", 1), (0.03, "fail", 2), (0.03, "fail", 3))
        with pytest.raises(RankFailedError):
            _fail_run(p=5, events=triple, checkpoint="interval:2:r2")
        rep = _fail_run(p=5, events=triple, checkpoint="interval:2:r3")
        rep0 = _baseline_run(p=5)
        assert np.array_equal(rep.values, rep0.values)

    def test_k2_recovery_reruns_identically(self):
        rep, rep0 = (
            _fail_run(events=self._edge, checkpoint="interval:2:r2")
            for _ in range(2)
        )
        assert rep.makespan == rep0.makespan
        assert np.array_equal(rep.values, rep0.values)

    def test_replication_cost_scales_with_k(self):
        part = partition_list(4000, [0.25, 0.25, 0.25, 0.25])
        net = PointToPointNetwork()
        costs = [
            estimate_checkpoint_cost(
                net, part, np.ones(4, bool), 8, replication_factor=k
            )
            for k in (1, 2, 3)
        ]
        assert costs[0] < costs[1] < costs[2]

    def test_higher_k_costs_more_wall_time(self):
        r1 = _fail_run(events=(), checkpoint="interval:2")
        r3 = _fail_run(events=(), checkpoint="interval:2:r3")
        assert r3.checkpoint_time > r1.checkpoint_time
        assert r3.num_checkpoints == r1.num_checkpoints


# ----------------------------------------------------------------------
# scenario builders and the experiment hook


class TestResilienceScenarios:
    def test_scenarios_build(self):
        from repro.apps.workloads import RESILIENCE_SCENARIOS, resilient_cluster

        for scenario in RESILIENCE_SCENARIOS:
            cluster = resilient_cluster(4, scenario, 10.0)
            assert cluster.membership is not None
            assert cluster.membership.has_failures

    def test_unknown_scenario(self):
        from repro.apps.workloads import resilient_cluster

        with pytest.raises(ValueError, match="unknown resilience scenario"):
            resilient_cluster(4, "meteor-strike", 10.0)

    def test_repeated_failures_needs_three(self):
        from repro.apps.workloads import resilient_cluster

        with pytest.raises(ValueError, match="p >= 3"):
            resilient_cluster(2, "repeated-failures", 10.0)

    def test_experiment_registered(self):
        from repro.experiments.registry import discover, get

        discover()
        exp = get("scale-resilience")
        assert "policy" in exp.grid
        assert "cost" in exp.grid["policy"]


# ----------------------------------------------------------------------
# Unified replication capping (effective_replication_factor)


class TestReplicationCapping:
    """One capping rule, shared by partners/cost/checkpoint/config."""

    def _fresh_warnings(self):
        import warnings

        return warnings.catch_warnings()

    def test_no_cap_passthrough(self):
        from repro.runtime.resilience import effective_replication_factor

        assert effective_replication_factor(2, 5) == 2
        assert effective_replication_factor(4, 5) == 4

    def test_cap_warns_with_resilience_warning(self):
        from repro.runtime.resilience import effective_replication_factor

        with pytest.warns(ResilienceWarning, match="capped to 2"):
            assert effective_replication_factor(5, 3) == 2

    def test_cap_echoed_once_per_process(self):
        import warnings

        from repro.runtime.resilience import effective_replication_factor

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            effective_replication_factor(9, 4)
            effective_replication_factor(9, 4)
        ours = [w for w in caught if issubclass(w.category, ResilienceWarning)]
        assert len(ours) == 1  # "default" filter dedups the repeat

    def test_invalid_inputs_raise(self):
        from repro.runtime.resilience import effective_replication_factor

        with pytest.raises(ResilienceError, match=">= 1"):
            effective_replication_factor(0, 4)
        with pytest.raises(ResilienceError, match="num_active"):
            effective_replication_factor(1, -1)

    def test_single_active_rank_caps_to_zero(self):
        from repro.runtime.resilience import effective_replication_factor

        with pytest.warns(ResilienceWarning):
            assert effective_replication_factor(1, 1) == 0

    def test_partners_cost_and_checkpoint_agree(self, recwarn):
        """The three consumers cap identically: k=10 at 3 actives ≡ k=2."""
        from repro.runtime.resilience import effective_replication_factor

        part = partition_list(90, np.ones(3))
        active = np.ones(3, dtype=bool)
        capped = replica_partners(part, active, replication_factor=10)
        explicit = replica_partners(part, active, replication_factor=2)
        assert capped == explicit

        net = PointToPointNetwork()
        cost_capped = estimate_checkpoint_cost(
            net, part, active, 8, replication_factor=10
        )
        cost_explicit = estimate_checkpoint_cost(
            net, part, active, 8, replication_factor=2
        )
        assert cost_capped == cost_explicit

        def fn(ctx):
            lo, hi = part.interval(ctx.rank)
            local = np.arange(lo, hi, dtype=np.float64)
            cp = take_checkpoint(
                ctx, part, (local,), active,
                next_iteration=0, epoch=0, replication_factor=10,
            )
            return cp.partners

        res = run_spmd(uniform_cluster(3), fn)
        assert res.values[0] == explicit
        assert effective_replication_factor(2, 3) == 2  # sanity: uncapped

    def test_run_program_warns_on_capped_replication(self, tiny_paper_mesh):
        y0 = np.random.default_rng(2).uniform(0, 10, 500)
        with pytest.warns(ResilienceWarning, match="capped"):
            report = run_program(
                tiny_paper_mesh,
                uniform_cluster(3),
                ProgramConfig(
                    iterations=4,
                    checkpoint="interval:2:r10",
                ),
                y0=y0,
            )
        assert report.num_checkpoints >= 1


class TestNormalizePartnersValidation:
    def test_scalar_and_sequence_forms(self):
        from repro.runtime.resilience import normalize_partners

        assert normalize_partners({0: 1, 1: (2, 0)}) == {0: (1,), 1: (2, 0)}

    def test_self_replication_rejected(self):
        from repro.runtime.resilience import normalize_partners

        with pytest.raises(ResilienceError, match="replicates to itself"):
            normalize_partners({2: (2,)})

    def test_duplicate_holders_rejected(self):
        from repro.runtime.resilience import normalize_partners

        with pytest.raises(ResilienceError, match="duplicate holders"):
            normalize_partners({0: (1, 1)})
