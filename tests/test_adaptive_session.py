"""Tests for the Phase D subsystem: the session and its configuration.

One ``AdaptiveSession`` code path serves the program driver, the adaptive
apps, and the benchmarks; ``resolve_load_balance`` is the one place the
names ``"off"`` / ``None`` are understood; and ``LoadBalanceConfig``,
``AdaptiveSession`` and ``ProgramConfig`` carry only options some caller
outside the tests sets (``ProgramConfig`` less four allow-listed fields).
"""

from __future__ import annotations

import ast
import dataclasses

import numpy as np
import pytest

from test_public_surface import CALLER_DIRS, ROOT
from repro.errors import ConfigurationError, LoadBalanceError, ResilienceError
from repro.graph.generators import paper_mesh
from repro.net.cluster import adaptive_cluster, uniform_cluster
from repro.net.loadmodel import ConstantLoad
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.partition.weighted import partition_weighted_list
from repro.runtime.adaptive import (
    AdaptiveSession,
    LoadBalanceConfig,
    resolve_load_balance,
)
from repro.runtime.executor import gather
from repro.runtime.kernels import run_sequential
from repro.runtime.program import ProgramConfig, ProgramReport, run_program


class TestResolveLoadBalance:
    def test_none_and_off_mean_static(self):
        assert resolve_load_balance(None) is None
        assert resolve_load_balance("off") is None
        assert resolve_load_balance("off", check_interval=3) is None

    def test_name_carries_the_passed_options(self):
        assert resolve_load_balance("centralized") == LoadBalanceConfig()
        assert resolve_load_balance(
            "distributed", check_interval=3, predictor="trend"
        ) == LoadBalanceConfig(
            check_interval=3, style="distributed", predictor="trend"
        )

    def test_config_passes_through(self):
        cfg = LoadBalanceConfig(check_interval=7)
        assert resolve_load_balance(cfg) is cfg

    def test_anything_else_rejected(self):
        with pytest.raises(LoadBalanceError, match="style must be"):
            resolve_load_balance("oracle")
        with pytest.raises(LoadBalanceError, match="cannot resolve"):
            resolve_load_balance(10)


def _fields_passed(cls, resolvers, trees) -> set[str]:
    """Fields of dataclass *cls* that some call in *trees* passes: a call
    of *cls* by keyword or by position, a call of one of the *resolvers*
    (which take *cls*'s fields as keywords) by keyword only."""
    names = [f.name for f in dataclasses.fields(cls)]
    passed: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None
            )
            if callee == cls.__name__:
                passed.update(names[: len(node.args)])
            elif callee not in resolvers:
                continue
            passed.update(kw.arg for kw in node.keywords)
    return passed


def _fields_never_passed(cls, *resolvers: str) -> set[str]:
    """Fields of dataclass *cls* that no call in the surface walk's
    caller directories passes (see :func:`_fields_passed`)."""
    trees = (
        ast.parse(path.read_text())
        for top in CALLER_DIRS
        for path in (ROOT / top).rglob("*.py")
    )
    names = {f.name for f in dataclasses.fields(cls)}
    return names - _fields_passed(cls, resolvers, trees)


class TestOptionsCensus:
    """A field no call site outside the tests ever passes is not an
    option: make it a constant or an argument."""

    def test_fields_are_exactly_the_three_options(self):
        assert [f.name for f in dataclasses.fields(LoadBalanceConfig)] == [
            "check_interval", "style", "predictor",
        ]

    def test_positional_arguments_count_for_the_class_only(self):
        """A resolver's positional argument is the spec, not a field."""
        def passed(source):
            return _fields_passed(
                LoadBalanceConfig, ("resolve_load_balance",),
                [ast.parse(source)],
            )

        assert passed("resolve_load_balance(spec)") == set()
        assert passed("resolve_load_balance(spec, predictor='t')") == {
            "predictor"
        }
        assert passed("cfg.LoadBalanceConfig(3)") == {"check_interval"}

    def test_every_load_balance_field_is_passed(self):
        assert _fields_never_passed(
            LoadBalanceConfig, "resolve_load_balance"
        ) == set()

    def test_every_session_field_is_passed(self):
        assert _fields_never_passed(AdaptiveSession) == set()

    def test_program_config_unset_fields_are_the_known_three(self):
        """Each unset field waits on a ROADMAP item; a new one fails."""
        waiting = {
            # ROADMAP item 7 folds the three pricing fields into one
            # CostModel.  That waits on item 3, which thaws bench/: its
            # tracing.py reads kernel_cost, inspector_cost and
            # executor_cost.
            "kernel_cost",
            "inspector_cost",
            "executor_cost",
        }
        assert _fields_never_passed(ProgramConfig) == waiting


def _session_loop(graph, y0, cluster, iterations, lb):
    """A minimal Fig. 8 loop driven entirely by AdaptiveSession."""
    n = graph.num_vertices

    def rank_main(ctx):
        session = AdaptiveSession(
            ctx,
            graph,
            partition_list(n, np.ones(ctx.size)),
            total_iterations=iterations,
            lb=lb,
        )
        lo, hi = session.interval()
        local = y0[lo:hi].copy()
        for it in range(iterations):
            ghost = gather(ctx, session.schedule, local)
            t0 = ctx.clock
            local = session.kernel_plan.sweep(local, ghost)
            ctx.compute(1e-5 * local.size, label="kernel")
            session.record(ctx.clock - t0, int(local.size))
            ctx.barrier()
            (local,) = session.maybe_rebalance(it, (local,))
        pieces = ctx.gather((session.interval()[0], local), root=0)
        full = None
        if ctx.rank == 0:
            full = np.empty(n)
            for piece_lo, data in pieces:
                full[piece_lo : piece_lo + data.size] = data
        return {
            "full": full,
            "stats": session.stats,
            "partition": session.partition,
        }

    return run_spmd(cluster, rank_main)


class TestAdaptiveSession:
    @pytest.fixture(scope="class")
    def workload(self):
        graph = paper_mesh(500, seed=5)
        y0 = np.random.default_rng(5).uniform(0, 100, graph.num_vertices)
        return graph, y0

    def test_no_balancing_session_is_inert(self, workload):
        graph, y0 = workload
        res = _session_loop(graph, y0, uniform_cluster(3), 12, None)
        for v in res.values:
            stats = v["stats"]
            assert stats.num_checks == 0
            assert stats.num_remaps == 0
            assert stats.lb_check_time == 0.0
            assert stats.remap_time == 0.0

    @pytest.mark.parametrize("style", ["centralized", "distributed"])
    def test_loaded_cluster_triggers_consistent_remaps(self, workload, style):
        graph, y0 = workload
        cluster = uniform_cluster(3).with_load(0, ConstantLoad(2.0))
        lb = LoadBalanceConfig(check_interval=4, style=style)
        res = _session_loop(graph, y0, cluster, 24, lb)
        remap_counts = {v["stats"].num_remaps for v in res.values}
        assert len(remap_counts) == 1  # collective decisions, all ranks agree
        assert remap_counts.pop() >= 1
        # The remap moved work off the loaded machine.
        final = res.values[0]["partition"]
        sizes = final.sizes()
        assert sizes[0] < max(sizes)
        # And never changed the numerics.
        oracle = run_sequential(graph, y0, 24)
        np.testing.assert_allclose(res.values[0]["full"], oracle, atol=1e-9)

    def test_string_lb_forms(self, workload):
        graph, y0 = workload
        res = _session_loop(graph, y0, uniform_cluster(2), 6, "off")
        assert all(v["stats"].num_checks == 0 for v in res.values)

    def test_remap_to_moves_multiple_fields(self, workload):
        graph, y0 = workload
        n = graph.num_vertices
        weights = np.ones(n)
        weights[: n // 4] = 5.0  # concentrate work at the left edge
        aux = np.arange(n, dtype=np.float64)

        def rank_main(ctx):
            session = AdaptiveSession(
                ctx,
                graph,
                partition_list(n, np.ones(ctx.size)),
                total_iterations=4,
            )
            lo, hi = session.interval()
            local, extra = y0[lo:hi].copy(), aux[lo:hi].copy()
            new_part = partition_weighted_list(weights, np.ones(ctx.size))
            local, extra = session.remap_to(new_part, (local, extra))
            nlo, nhi = session.interval()
            np.testing.assert_array_equal(local, y0[nlo:nhi])
            np.testing.assert_array_equal(extra, aux[nlo:nhi])
            return session.stats.num_remaps

        res = run_spmd(uniform_cluster(3), rank_main)
        assert res.values == [1, 1, 1]

    def test_rejects_bad_iterations(self, workload):
        graph, _ = workload

        def rank_main(ctx):
            AdaptiveSession(
                ctx, graph, partition_list(graph.num_vertices, np.ones(1)),
                total_iterations=0,
            )

        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(1), rank_main)


class TestProgramIntegration:
    def test_program_config_normalizes_string_styles(self):
        cfg = ProgramConfig(load_balance="distributed")
        assert isinstance(cfg.load_balance, LoadBalanceConfig)
        assert cfg.load_balance.style == "distributed"
        assert ProgramConfig(load_balance="off").load_balance is None
        with pytest.raises(ConfigurationError):
            ProgramConfig(load_balance="oracle")

    def test_distributed_style_matches_centralized_decisions(self):
        graph = paper_mesh(400, seed=9)
        y0 = np.random.default_rng(9).uniform(0, 100, graph.num_vertices)
        cluster = adaptive_cluster(3, competing_load=2.0)
        reports = {
            style: run_program(
                graph,
                cluster,
                ProgramConfig(
                    iterations=20,
                    initial_capabilities="equal",
                    load_balance=LoadBalanceConfig(
                        check_interval=5, style=style
                    ),
                ),
                y0=y0,
            )
            for style in ("centralized", "distributed")
        }
        # Same deterministic decision function on the same monitored loads:
        # both styles remap identically (they differ only in protocol cost).
        assert (
            reports["centralized"].num_remaps
            == reports["distributed"].num_remaps
            >= 1
        )
        np.testing.assert_array_equal(
            reports["centralized"].partition_final.bounds,
            reports["distributed"].partition_final.bounds,
        )
        np.testing.assert_array_equal(
            reports["centralized"].values, reports["distributed"].values
        )

    @pytest.mark.parametrize(
        "field, error",
        [
            ("num_checks", LoadBalanceError),
            ("num_remaps", LoadBalanceError),
            ("membership_events", LoadBalanceError),
            ("num_checkpoints", ResilienceError),
            ("num_rollbacks", ResilienceError),
        ],
    )
    def test_collective_counters_aggregate_and_raise_on_desync(
        self, rank_snapshot, field, error
    ):
        def report_with(counts):
            return ProgramReport(
                values=np.zeros(4),
                makespan=1.0,
                clocks=[1.0] * len(counts),
                metrics_by_rank=[rank_snapshot(**{field: c}) for c in counts],
                cluster=uniform_cluster(3),
                config=ProgramConfig(),
                work_per_iteration=1.0,
            )

        assert getattr(report_with([3, 3, 3]), field) == 3
        with pytest.raises(error, match="desynchronized") as exc:
            getattr(report_with([3, 2, 3]), field)
        # The diagnosis names every rank's value, not just rank 0's view.
        assert "{0: 3, 1: 2, 2: 3}" in str(exc.value)
        with pytest.raises(ConfigurationError, match="no per-rank metrics"):
            getattr(report_with([]), field)


class TestDynamicLoadScenarios:
    def test_cluster_traces_follow_scenarios(self):
        from repro.apps.workloads import DYNAMIC_SCENARIOS, dynamic_load_cluster

        horizon = 100.0
        onset = dynamic_load_cluster(4, "onset", horizon)
        trace = onset.processors[0].load
        assert trace.load_at(0.0) == 0.0
        assert trace.load_at(0.3 * horizon) > 0
        assert trace.load_at(0.9 * horizon) == 0.0

        hotspot = dynamic_load_cluster(4, "hotspot", horizon)
        for rank in range(4):
            mid = (rank + 0.5) * horizon / 4
            assert hotspot.processors[rank].load.load_at(mid) > 0

        ramp = dynamic_load_cluster(4, "ramp", horizon)
        r = ramp.processors[0].load
        assert r.load_at(0.1 * horizon) < r.load_at(0.6 * horizon)

        assert set(DYNAMIC_SCENARIOS) == {"onset", "hotspot", "ramp"}
        with pytest.raises(ValueError):
            dynamic_load_cluster(4, "tsunami", horizon)
        with pytest.raises(ValueError):
            dynamic_load_cluster(4, "onset", 0.0)

    def test_scale_adaptive_measurement_remaps(self):
        from repro.experiments.catalog import scale_adaptive_measurements

        m = scale_adaptive_measurements("10k", "hotspot", "centralized", 4, 20, 5)
        assert m["num_remaps"] >= 1
        assert m["makespan"] > 0
        assert m["redistribute_host_s"] > 0
        assert m["check_time"] < m["remap_time"]


class TestReviewFixes:
    """Regression tests for the pricing edges."""

    def test_remap_cost_scales_with_num_fields(self):
        """The profitability test prices every field the exchange ships."""
        from repro.runtime.adaptive import decide

        part = partition_list(10_000, np.ones(2))
        times = np.array([4e-4, 1e-4])  # rank 0 heavily loaded

        def fn(ctx):
            one = decide(ctx, part, times, 100)
            three = decide(ctx, part, times, 100, num_fields=3)
            assert three.remap_cost > one.remap_cost
            return one.remap_cost, three.remap_cost

        run_spmd(uniform_cluster(2), fn)


class TestDynamicRunDeterminism:
    def test_scale_adaptive_virtual_metrics_identical_across_reruns(self):
        """Virtual metrics of a dynamic-load run are bit-identical across
        reruns: recv_expected charges receives in virtual-arrival order,
        so host thread scheduling cannot leak into them."""
        from repro.experiments.catalog import scale_adaptive_measurements

        runs = [
            scale_adaptive_measurements("10k", "onset", "centralized", 4, 20, 5)
            for _ in range(3)
        ]
        for key in ("makespan", "num_remaps", "remap_time", "check_time"):
            assert len({r[key] for r in runs}) == 1, key


class TestSessionEdgeCases:
    def test_maybe_rebalance_with_no_fields_survives_check(self):
        """A session driving a kernel with no movable per-vertex state can
        still run checks (and remap ownership) without crashing."""
        graph = paper_mesh(300, seed=2)
        n = graph.num_vertices
        cluster = uniform_cluster(2).with_load(0, ConstantLoad(2.0))

        def rank_main(ctx):
            session = AdaptiveSession(
                ctx,
                graph,
                partition_list(n, np.ones(ctx.size)),
                total_iterations=12,
                lb=LoadBalanceConfig(check_interval=3),
            )
            for it in range(12):
                ctx.compute(1e-5 * session.partition.sizes()[ctx.rank])
                session.record(
                    1e-5 * session.partition.sizes()[ctx.rank],
                    int(session.partition.sizes()[ctx.rank]),
                )
                ctx.barrier()
                out = session.maybe_rebalance(it, ())
                assert out == []
            return session.stats.num_checks

        res = run_spmd(cluster, rank_main)
        assert all(c > 0 for c in res.values)
