"""Integration tests: the full four-phase program against the oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import paper_mesh
from repro.net.cluster import (
    adaptive_cluster,
    sun4_cluster,
    uniform_cluster,
)
from repro.net.loadmodel import ConstantLoad, StepLoad
from repro.partition.ordering import IdentityOrdering, RandomOrdering
from repro.partition.sfc import HilbertOrdering
from repro.partition.spectral import SpectralOrdering
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import LoadBalanceConfig, Phase
from repro.runtime.adaptive.session import LEDGER
from repro.runtime.kernels import run_sequential
from repro.runtime.program import VIRTUAL, ProgramConfig, run_program


@pytest.fixture(scope="module")
def workload():
    g = paper_mesh(800, seed=21)
    y0 = np.random.default_rng(0).uniform(0, 100, g.num_vertices)
    return g, y0


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["sort1", "sort2", "simple"])
    def test_matches_oracle_all_strategies(self, workload, strategy):
        g, y0 = workload
        oracle = run_sequential(g, y0, 12)
        rep = run_program(
            g, sun4_cluster(3), ProgramConfig(iterations=12, strategy=strategy),
            y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_matches_oracle_all_cluster_sizes(self, workload, p):
        g, y0 = workload
        oracle = run_sequential(g, y0, 10)
        rep = run_program(
            g, sun4_cluster(p), ProgramConfig(iterations=10), y0=y0
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    @pytest.mark.parametrize(
        "ordering",
        [IdentityOrdering(), RandomOrdering(seed=4), HilbertOrdering(),
         SpectralOrdering(leaf_size=64)],
        ids=lambda o: o.name,
    )
    def test_matches_oracle_any_ordering(self, workload, ordering):
        g, y0 = workload
        oracle = run_sequential(g, y0, 8)
        rep = run_program(
            g, uniform_cluster(3),
            ProgramConfig(iterations=8, ordering=ordering), y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_matches_oracle_with_load_balancing(self, workload):
        g, y0 = workload
        oracle = run_sequential(g, y0, 30)
        cl = adaptive_cluster(3, competing_load=2.0)
        rep = run_program(
            g, cl,
            ProgramConfig(
                iterations=30,
                initial_capabilities="equal",
                load_balance=LoadBalanceConfig(check_interval=10),
            ),
            y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_default_y0(self, workload):
        g, _ = workload
        rep = run_program(g, uniform_cluster(2), ProgramConfig(iterations=3))
        oracle = run_sequential(g, np.arange(g.num_vertices, dtype=float), 3)
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)


class TestPerformanceShape:
    def test_more_machines_faster(self):
        # Needs a compute-dominated workload; at tiny sizes communication
        # overheads legitimately flatten the curve.
        g = paper_mesh(3000, seed=23)
        y0 = np.random.default_rng(1).uniform(0, 100, g.num_vertices)
        times = []
        for p in (1, 2, 4):
            rep = run_program(
                g, uniform_cluster(p), ProgramConfig(iterations=10), y0=y0
            )
            times.append(rep.makespan)
        assert times[0] > times[1] > times[2]

    def test_speed_proportional_split(self, workload):
        g, y0 = workload
        rep = run_program(
            g, sun4_cluster(4), ProgramConfig(iterations=5), y0=y0
        )
        sizes = rep.partition_final.sizes().astype(float)
        speeds = sun4_cluster(4).speeds
        shares = sizes / sizes.sum()
        fair = speeds / speeds.sum()
        np.testing.assert_allclose(shares, fair, atol=0.01)

    def test_loaded_machine_slows_without_lb(self, workload):
        g, y0 = workload
        base = run_program(
            g, uniform_cluster(3),
            ProgramConfig(iterations=15, initial_capabilities="equal"), y0=y0,
        )
        loaded = run_program(
            g, uniform_cluster(3).with_load(0, ConstantLoad(2.0)),
            ProgramConfig(iterations=15, initial_capabilities="equal"), y0=y0,
        )
        assert loaded.makespan > base.makespan * 1.5

    def test_lb_improves_adaptive_run(self, workload):
        # Point-to-point, not the default shared Ethernet: contended
        # frames are ordered by host-thread arrival there, which moves
        # the makespan by more than this comparison's ~2 % margin.
        g, y0 = workload
        cl = adaptive_cluster(
            4, competing_load=2.0, ethernet=False
        )
        cfg = dict(iterations=40, initial_capabilities="equal")
        no_lb = run_program(g, cl, ProgramConfig(**cfg), y0=y0)
        lb = run_program(
            g, cl,
            ProgramConfig(**cfg, load_balance=LoadBalanceConfig(check_interval=10)),
            y0=y0,
        )
        assert lb.makespan < no_lb.makespan
        assert lb.num_remaps >= 1
        assert lb.lb_check_time > 0.0
        assert lb.remap_time > 0.0

    def test_check_cost_much_smaller_than_remap(self, workload):
        """Table 5's shape: per-check cost is an order of magnitude below
        the remap cost."""
        g, y0 = workload
        cl = adaptive_cluster(
            4, competing_load=2.0, ethernet=False
        )
        rep = run_program(
            g, cl,
            ProgramConfig(
                iterations=40,
                initial_capabilities="equal",
                load_balance=LoadBalanceConfig(check_interval=10),
            ),
            y0=y0,
        )
        per_check = rep.lb_check_time / max(rep.num_checks, 1)
        per_remap = rep.remap_time / max(rep.num_remaps, 1)
        assert per_check < per_remap

    def test_stable_environment_no_remap(self, workload):
        g, y0 = workload
        rep = run_program(
            g, uniform_cluster(3),
            ProgramConfig(
                iterations=30,
                load_balance=LoadBalanceConfig(check_interval=10),
            ),
            y0=y0,
        )
        assert rep.num_remaps == 0

    def test_load_appearing_mid_run_triggers_remap(self, workload):
        g, y0 = workload
        cl = uniform_cluster(3).with_load(1, StepLoad([(0, 0.0), (0.05, 3.0)]))
        rep = run_program(
            g, cl,
            ProgramConfig(
                iterations=60,
                load_balance=LoadBalanceConfig(check_interval=10),
            ),
            y0=y0,
        )
        assert rep.num_remaps >= 1
        oracle = run_sequential(g, y0, 60)
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)


class TestReportContents:
    def test_rank_stats_complete(self, workload):
        g, y0 = workload
        rep = run_program(g, sun4_cluster(3), ProgramConfig(iterations=5), y0=y0)
        assert len(rep.rank_stats) == 3
        for s in rep.rank_stats:
            assert s.compute_time > 0
            assert s.inspector_time > 0
        assert all(c > 0 for c in rep.clocks)
        assert rep.partition_final.sizes().sum() == g.num_vertices

    def test_trace_captured_when_enabled(self, workload):
        g, y0 = workload
        rep = run_program(
            g, uniform_cluster(2), ProgramConfig(iterations=3, trace=True), y0=y0
        )
        assert rep.trace is not None
        assert len([e for e in rep.trace if e.kind == "send"]) > 0

    def test_total_work_accounting(self, workload):
        g, y0 = workload
        cfg = ProgramConfig(iterations=7)
        rep = run_program(g, uniform_cluster(1), cfg, y0=y0)
        assert rep.total_work_seconds == pytest.approx(
            7 * rep.work_per_iteration
        )

    def test_makespan_is_max_clock(self, workload):
        g, y0 = workload
        rep = run_program(g, sun4_cluster(3), ProgramConfig(iterations=4), y0=y0)
        assert rep.makespan == max(rep.clocks)


class TestConfigValidation:
    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            ProgramConfig(iterations=0)

    def test_rejects_bad_capability_string(self, workload):
        g, _ = workload
        with pytest.raises(ConfigurationError):
            run_program(
                g, uniform_cluster(2),
                ProgramConfig(iterations=1, initial_capabilities="bogus"),
            )

    def test_rejects_wrong_capability_length(self, workload):
        g, _ = workload
        with pytest.raises(ConfigurationError):
            run_program(
                g, uniform_cluster(2),
                ProgramConfig(iterations=1, initial_capabilities=[1.0, 1.0, 1.0]),
            )

    def test_rejects_wrong_y0_shape(self, workload):
        g, _ = workload
        with pytest.raises(ConfigurationError):
            run_program(g, uniform_cluster(2), ProgramConfig(iterations=1),
                        y0=np.zeros(3))

    def test_explicit_capability_vector(self, workload):
        g, y0 = workload
        rep = run_program(
            g, uniform_cluster(2),
            ProgramConfig(iterations=3, initial_capabilities=[3.0, 1.0]),
            y0=y0,
        )
        sizes = rep.partition_final.sizes()
        assert sizes[0] > 2.5 * sizes[1]

    def test_backend_is_no_longer_a_config_field(self):
        # One implementation: ProgramConfig.backend is a constant None kept
        # for the benchmark's traced mirror, not a field.
        assert ProgramConfig().backend is None
        with pytest.raises(TypeError):
            ProgramConfig(backend="reference")

    def test_session_and_gather_accept_only_a_none_backend(self, workload):
        from repro.net.spmd import run_spmd
        from repro.partition.intervals import partition_list
        from repro.runtime import AdaptiveSession, gather

        g, y0 = workload
        part = partition_list(g.num_vertices, [1.0, 1.0])

        def fn(ctx):
            session = AdaptiveSession(ctx, g, part, 1, backend=None)
            lo, hi = session.interval()
            ghost = gather(ctx, session.schedule, y0[lo:hi], backend=None)
            for call in (
                lambda: AdaptiveSession(ctx, g, part, 1, backend="reference"),
                lambda: gather(ctx, session.schedule, y0[lo:hi],
                               backend="vectorized"),
            ):
                with pytest.raises(ConfigurationError, match="one implementation"):
                    call()
            return ghost.size

        assert all(run_spmd(uniform_cluster(2), fn).values)


class TestLooselySynchronous:
    """Without a barrier between iterations (the paper's loosely
    synchronous mode) neighbours drift a phase apart, so a rank's gather
    drain finds a fast peer's *next* message queued behind the one it is
    taking."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.net.spmd import run_spmd
        from repro.partition.intervals import partition_list
        from repro.runtime.adaptive import AdaptiveSession
        from repro.runtime.executor import gather

        g = paper_mesh(3000, seed=3)
        y0 = np.random.default_rng(0).uniform(0, 100, g.num_vertices)

        def rank_main(ctx):
            session = AdaptiveSession(
                ctx, g, partition_list(g.num_vertices, np.ones(ctx.size)), 60
            )
            lo, hi = session.interval()
            local = y0[lo:hi].copy()
            for _ in range(60):
                ghost = gather(ctx, session.schedule, local)
                local = session.kernel_plan.sweep(local, ghost)
                ctx.compute(session.kernel_plan.n_references * 1e-6)
            depth = ctx.metrics.snapshot()["gauges"]["net.mailbox_depth"]
            return lo, local, depth

        runs = [
            run_spmd(sun4_cluster(5, ethernet=False), rank_main)
            for _ in range(10)
        ]
        return g, y0, runs

    def test_five_ranks_without_barriers_match_the_oracle(self, runs):
        g, y0, results = runs
        oracle = run_sequential(g, y0, 60)
        for res in results:
            values = np.concatenate(
                [local for _, local, _ in sorted(res.values, key=lambda v: v[0])]
            )
            np.testing.assert_allclose(values, oracle, atol=1e-9)

    def test_a_fast_peers_next_message_waits_behind(self, runs):
        # In every run some drain left a next-iteration message buffered
        # (with a barrier per iteration no rank ever does).
        for res in runs[2]:
            assert max(depth for *_, depth in res.values) >= 1

    def test_makespan_is_a_function_of_the_program(self, runs):
        assert len({res.makespan for res in runs[2]}) == 1

    def test_a_genuine_intruder_still_raises(self):
        from repro.errors import CommunicationError, RankFailedError
        from repro.net.spmd import run_spmd

        def fn(ctx):
            if ctx.rank == 0:
                ctx.recv_expected([1], 150)
            elif ctx.rank == 2:
                ctx.send(0, "not in the expected set", 150)

        with pytest.raises(RankFailedError) as ei:
            run_spmd(uniform_cluster(3), fn, recv_timeout=5.0)
        failure = ei.value.failures[0]
        assert isinstance(failure, CommunicationError)
        assert "unexpected message from rank 2" in str(failure)


class TestDifferentialRule:
    """``ProgramReport.differences`` on stub reports: the one rule every
    "these two runs must agree" check calls."""

    COMPARED = ("values", "clocks", *VIRTUAL)

    def test_virtual_is_every_ledger_aggregate_but_host_seconds(
        self, stub_report
    ):
        report = stub_report()
        assert list(report.virtual_metrics()) == list(VIRTUAL)
        assert set(VIRTUAL) == {"makespan", *LEDGER} - {"redistribute_host_s"}

    def test_identical_reports_agree(self, stub_report):
        assert stub_report().differences(stub_report(), virtual=True) == []

    @pytest.mark.parametrize("field", COMPARED)
    def test_one_moved_field_is_one_message_naming_it(
        self, stub_report, nudge_report, field
    ):
        a, b = stub_report(), stub_report()
        nudge_report(b, field)
        [message] = a.differences(b, virtual=True)
        assert field in message
        assert b.differences(a, virtual=True) != []

    @pytest.mark.parametrize("field", COMPARED)
    def test_values_only_mode_ignores_clocks_times_and_counters(
        self, stub_report, nudge_report, field
    ):
        a, b = stub_report(), stub_report()
        nudge_report(b, field)
        differences = a.differences(b, virtual=False)
        assert len(differences) == (1 if field == "values" else 0)

    def test_a_desynchronized_counter_is_not_a_difference(self, stub_report):
        # Reading the counter raises (one run's own defect, the oracle's
        # no-desync reports it); the rule must not report it a second time.
        a, b = stub_report(), stub_report()
        b.metrics_by_rank[0]["counters"]["lb.remaps"] += 1
        with pytest.raises(Exception, match="ranks disagree"):
            b.num_remaps
        assert a.differences(b, virtual=True) == []
        assert b.differences(a, virtual=True) == []


class TestLedgerPinned:
    """One run through every Phase D path — LB, a join, a leave, an
    unannounced fail, checkpoints, the incremental inspector — with every
    report aggregate and every per-rank ledger value pinned as a literal.
    Recording them once, in each rank's metrics registry, must not move a
    bit of any of them."""

    AGGREGATES = {
        "makespan": 0.18213484639337169,
        "inspector_time": 0.006643833893348354,
        "compute_time": 0.04854950000000007,
        "lb_check_time": 0.038168000000000216,
        "remap_time": 0.008721119249893113,
        "checkpoint_time": 0.02383680000000002,
        "rollback_time": 0.005208293250129822,
        "lost_time": 0.013398400000000046,
        "num_checks": 7,
        "num_remaps": 1,
        "membership_events": 3,
        "num_checkpoints": 6,
        "num_rollbacks": 1,
    }
    CLOCKS = [
        0.18213484639337169, 0.17817484639337167,
        0.18073484639337167, 0.18073564639337167,
    ]
    #: Per-rank values that differ between ranks; every other ledger name
    #: holds the aggregate on every rank.
    PER_RANK = {
        "inspector_time": [
            0.005173919249893114, 0.006643833893348354,
            0.004860074956100206, 0.0,
        ],
        "compute_time": [
            0.012274499999999995, 0.017395000000000008,
            0.04854950000000007, 0.035037000000000054,
        ],
        "lb_check_time": [
            0.020640000000000127, 0.02904000000000016,
            0.03360400000000019, 0.038168000000000216,
        ],
    }

    @pytest.fixture(scope="class")
    def report(self):
        graph = paper_mesh(800, seed=0)
        y0 = np.random.default_rng(0).uniform(0, 100, graph.num_vertices)
        config = ProgramConfig(
            iterations=20,
            initial_capabilities="equal",
            load_balance=LoadBalanceConfig(check_interval=3),
            membership="standby:3, join:3@0.02, leave:0@0.05, fail:1@0.08",
            checkpoint="interval:4",
            inspector_mode="incremental",
        )
        return run_program(graph, uniform_cluster(4), config, y0=y0)

    def test_every_aggregate(self, report):
        assert {
            name: getattr(report, name) for name in self.AGGREGATES
        } == self.AGGREGATES
        assert set(self.AGGREGATES) == set(VIRTUAL)
        assert report.clocks == self.CLOCKS
        assert report.partition_final.sizes().tolist() == [0, 0, 400, 400]

    def test_every_rank_view(self, report):
        for rank, stats in enumerate(report.rank_stats):
            for name in set(LEDGER) - {"redistribute_host_s"}:
                expected = (
                    self.PER_RANK[name][rank]
                    if name in self.PER_RANK
                    else self.AGGREGATES[name]
                )
                assert getattr(stats, name) == expected, (rank, name)
        assert report.redistribute_host_s > 0

    def test_counters_stay_in_the_merged_registry(self, report):
        counters = report.metrics["counters"]
        assert counters["lb.checks"] == 4 * 7
        assert counters["lb.remaps"] == 4 * 1
        assert counters["cp.checkpoints"] == 4 * 6
        assert counters["cp.rollbacks"] == 4 * 1
        assert counters["membership.events"] == 4 * 3


class TestPhases:
    """The phase input: footnote 1's adaptive structure in the one loop."""

    def test_unit_weights_charge_what_no_weights_charge(self, workload):
        g, y0 = workload
        n = g.num_vertices
        config = ProgramConfig(iterations=6, ordering=IdentityOrdering())
        plain = run_program(g, uniform_cluster(3), config, y0)
        unit = run_program(
            g, uniform_cluster(3), config, y0,
            [Phase(0, weights=np.ones(n)), Phase(3, weights=np.ones(n))],
        )
        assert plain.differences(unit, virtual=True) == []

    def test_a_given_partition_is_remapped_to_at_its_start(self, workload):
        g, y0 = workload
        n = g.num_vertices
        skewed = partition_list(n, np.array([1.0, 2.0, 3.0]))
        rep = run_program(
            g, uniform_cluster(3),
            ProgramConfig(iterations=6, ordering=IdentityOrdering()), y0,
            [Phase(4, partition=skewed)],
        )
        assert rep.num_remaps == 1
        assert rep.partition_final is skewed
        np.testing.assert_allclose(
            rep.values, run_sequential(g, y0, 6), atol=1e-9
        )

    @pytest.mark.parametrize(
        "phases",
        [
            [Phase(3), Phase(2)],
            [Phase(1), Phase(1)],
            [Phase(6)],
            [Phase(0, weights=np.ones(3))],
            [Phase(1, partition=partition_list(5, np.ones(3)))],
            [Phase(1, partition=partition_list(800, np.ones(2)))],
        ],
    )
    def test_malformed_phases_are_rejected(self, workload, phases):
        g, y0 = workload
        with pytest.raises(ConfigurationError, match="phases must"):
            run_program(
                g, uniform_cluster(3), ProgramConfig(iterations=6), y0, phases
            )
