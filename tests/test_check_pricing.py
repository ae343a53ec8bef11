"""Admission prices a job's load-balance checks (``price_checks``).

The rule drops a job's checks when an upper bound on what any remap could
save does not exceed a lower bound on what the checks cost.  Both bounds
are tested against the runtime they bound: the price against the measured
``lb.check_time`` of real checks, the savings against ``decide()``'s own
predictions on a run that remaps.  Then the consequence is tested job by
job on the canonical streams: every job whose checks were priced out ran
no later than it would have with them.
"""

from __future__ import annotations

import json
import math

import pytest

import repro.runtime.program as program
from repro.apps.workloads import dynamic_load_cluster
from repro.cli import main
from repro.graph import paper_mesh
from repro.graph.generators import scale_mesh
from repro.net.cluster import heterogeneous_cluster, uniform_cluster
from repro.net.loadmodel import ConstantLoad, NoLoad, StepLoad
from repro.obs import summarize
from repro.partition import HilbertOrdering
from repro.runtime.adaptive import LoadBalanceConfig, price_checks, strategy
from repro.runtime.kernels import KernelCostModel
from repro.runtime.program import ProgramConfig, run_program
from repro.serve import JobQueue, JobSpec, ServiceSession, generate_stream

HETERO_SPEEDS = (1.4, 0.6, 1.0, 0.8, 1.2, 0.5, 1.1, 0.9)


def _cluster(kind: str, p: int):
    if kind == "uniform":
        return uniform_cluster(p)
    # Rank 0 (which runs decide() under both protocols) is the fastest
    # machine, and loaded: the MCR charge there is slower than priced.
    return heterogeneous_cluster(HETERO_SPEEDS[:p]).with_load(
        0, StepLoad([(0.0, 1.0), (0.01, 3.0)])
    )


class TestPriceIsALowerBound:
    @pytest.mark.parametrize("kind", ["uniform", "hetero"])
    @pytest.mark.parametrize("style", ["centralized", "distributed"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_priced_check_at_most_the_measured_one(self, p, style, kind):
        graph = paper_mesh(160, seed=3)
        cluster = _cluster(kind, p)
        lb = LoadBalanceConfig(check_interval=1, style=style)
        report = run_program(
            graph,
            cluster,
            ProgramConfig(
                iterations=2, initial_capabilities="equal", load_balance=lb
            ),
        )
        price = price_checks(cluster, graph.degrees, 2, lb)
        assert price.checks == 1
        assert report.metrics["counters"]["lb.checks"] == p
        measured = max(
            snap["histograms"]["lb.check_time"]["total"]
            for snap in report.metrics_by_rank
        )
        # The measured time is a difference of two rank clocks, each
        # rounded once: allow that rounding (one ulp of the largest clock)
        # and nothing else.  One rank's check is the MCR charge alone,
        # which the price then equals exactly.
        assert 0.0 < price.per_check <= measured + math.ulp(report.makespan)

    def test_one_rank_has_nothing_to_save(self):
        graph = paper_mesh(64, seed=1)
        lb = LoadBalanceConfig(check_interval=2)
        price = price_checks(uniform_cluster(1), graph.degrees, 100, lb)
        assert price.checks == 49
        assert price.savings == 0.0
        assert not price.pays

    def test_no_due_check_always_pays(self):
        graph = paper_mesh(64, seed=1)
        lb = LoadBalanceConfig(check_interval=4)
        price = price_checks(uniform_cluster(4), graph.degrees, 4, lb)
        assert price.checks == 0 and price.cost == 0.0
        assert price.pays

    def test_savings_scale_with_the_slowest_rank_under_its_peak_load(self):
        graph = paper_mesh(64, seed=1)
        lb = LoadBalanceConfig(check_interval=5)
        free = price_checks(uniform_cluster(4), graph.degrees, 25, lb)
        loaded = price_checks(
            uniform_cluster(4).with_load(2, StepLoad([(0.0, 0.0), (1.0, 3.0)])),
            graph.degrees,
            25,
            lb,
        )
        assert loaded.savings == pytest.approx(4.0 * free.savings)
        rows = -(-graph.num_vertices // 4)
        heaviest = sorted(graph.degrees)[-rows:]
        work = KernelCostModel().sweep_seconds(int(sum(heaviest)), rows)
        assert free.savings == pytest.approx(20 * work)


def _adaptive_sfc_10k(**extra):
    """The adaptive-sfc benchmark configuration on its smoke mesh, at the
    full scale's 60 iterations (the smoke scale's 20 see no check that
    could remap)."""
    graph = scale_mesh("10k", family="geometric", seed=1995)
    iterations, ranks = 60, 16
    work = KernelCostModel().sweep_seconds(
        int(graph.indices.size), graph.num_vertices
    )
    cluster = dynamic_load_cluster(ranks, "hotspot", iterations * work / ranks)
    lb = LoadBalanceConfig(check_interval=5, style="centralized")
    config = ProgramConfig(
        iterations=iterations,
        ordering=HilbertOrdering(),
        initial_capabilities="equal",
        load_balance=lb,
        inspector_mode="incremental",
        checkpoint="interval:10",
        **extra,
    )
    return graph, cluster, lb, config


class TestSavingsBoundOnARemappingRun:
    def test_bound_covers_every_predicted_saving(self, monkeypatch):
        graph, cluster, lb, config = _adaptive_sfc_10k()
        iterations = config.iterations
        predicted = []
        decide = strategy.decide

        def spy(ctx, partition, times, remaining, **inputs):
            d = decide(ctx, partition, times, remaining, **inputs)
            predicted.append(
                (d.predicted_current - d.predicted_balanced) * remaining
            )
            return d

        monkeypatch.setattr(strategy, "decide", spy)
        report = run_program(graph, cluster, config)
        price = price_checks(cluster, graph.degrees, iterations, lb)
        assert price.pays  # the rule keeps load balancing on this run
        assert len(predicted) == price.checks == 11
        assert price.savings >= max(predicted)
        # ... and the run is the one the runtime made before the rule:
        # the moving hotspot never holds long enough to repay a remap.
        assert report.num_remaps == 0
        assert report.makespan == 1.3283802770938171

    def test_every_remap_is_priced_at_its_charge(self):
        graph, cluster, _, config = _adaptive_sfc_10k(trace=True)
        report = run_program(graph, cluster, config)
        remaps = summarize(report.trace).remaps
        assert len(remaps) == report.num_remaps
        for price, charge in remaps:
            assert 1 / 1.25 <= charge / price <= 1.25


def _captured_session(queue, max_tenants, monkeypatch):
    """Run a session over a uniform 8-rank pool; return its report and,
    per admitted job in order, what ``run_program`` was given."""
    calls = []
    run = program.run_program

    def spy(graph, cluster, config, y0=None):
        report = run(graph, cluster, config, y0=y0)
        calls.append((graph, cluster, config, y0, report))
        return report

    monkeypatch.setattr(program, "run_program", spy)
    report = ServiceSession(
        uniform_cluster(8), queue, policy="random", seed=1,
        max_tenants=max_tenants,
    ).run()
    monkeypatch.undo()
    assert len(calls) == len(report.records)
    return report, calls


class TestNeverLater:
    @pytest.mark.parametrize("max_tenants", [1, 2])
    @pytest.mark.parametrize("stream_seed", [1995, 7])
    @pytest.mark.parametrize("shape", ["uniform", "mixed", "descending"])
    def test_priced_out_jobs_finish_no_later(
        self, shape, stream_seed, max_tenants, monkeypatch
    ):
        queue = generate_stream(shape, 12, max_ranks=8, seed=stream_seed)
        report, calls = _captured_session(queue, max_tenants, monkeypatch)
        for record, (graph, cluster, config, y0, without) in zip(
            report.records, calls
        ):
            assert record.lb_priced_out == (
                config.load_balance is None
                and record.job.load_balance != "off"
            )
            if not record.lb_priced_out:
                continue
            with_checks = run_program(
                graph, cluster, record.job.build_config(), y0=y0
            )
            assert without.makespan == record.exec_makespan
            assert without.makespan <= with_checks.makespan
            assert float(with_checks.values.sum()) == record.checksum
            assert with_checks.num_remaps == 0
        assert report.lb_priced_out == sum(
            r.lb_priced_out for r in report.records
        )

    def test_long_job_beside_heavy_co_tenants_keeps_its_checks(
        self, monkeypatch
    ):
        # Six single-rank tenants land three per rank of a 2-rank pool;
        # the wide 60-iteration job admitted beside them sees a co-tenant
        # load of 3 on each of its ranks.
        tenants = [
            JobSpec(f"t{i}", vertices=320, iterations=60, ranks=1)
            for i in range(6)
        ]
        wide = JobSpec("wide", vertices=320, iterations=60, ranks=2)
        calls = []
        run = program.run_program

        def spy(graph, cluster, config, y0=None):
            calls.append((cluster, config))
            return run(graph, cluster, config, y0=y0)

        monkeypatch.setattr(program, "run_program", spy)
        report = ServiceSession(
            uniform_cluster(2), JobQueue([*tenants, wide]), max_tenants=4
        ).run()
        by_id = {r.job.job_id: r for r in report.records}
        cluster, config = calls[-1]
        assert by_id["wide"].admit_index == 6
        assert min(p.load.peak_load() for p in cluster.processors) >= 3.0
        assert config.load_balance is not None
        assert not by_id["wide"].lb_priced_out


class TestPricedOutIsVisible:
    def test_count_on_the_benchmark_smoke_stream(self):
        queue = generate_stream("mixed", 12, max_ranks=8, seed=1995)
        session = ServiceSession(
            uniform_cluster(8), queue, policy="random", seed=1, max_tenants=2
        )
        report = session.run()
        counters = session.metrics.snapshot()["counters"]
        assert counters["serve.lb_priced_out"] == 6
        assert report.lb_priced_out == 6
        payload = report.to_dict()
        assert payload["lb_priced_out"] == 6
        assert sum(j["lb_priced_out"] for j in payload["jobs"]) == 6
        assert "checks priced out for 6 of 12 jobs" in report.to_text()

    def test_serve_json_reports_it(self, tmp_path):
        out = tmp_path / "serve.json"
        rc = main([
            "serve", "--stream", "mixed", "--n-jobs", "12",
            "--max-tenants", "2", "--policy", "random", "--seed", "1995",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["lb_priced_out"] == sum(
            j["lb_priced_out"] for j in payload["jobs"]
        )
        assert payload["lb_priced_out"] > 0


class TestPeakLoad:
    def test_piecewise_traces(self):
        assert NoLoad().peak_load() == 0.0
        assert ConstantLoad(2.5).peak_load() == 2.5
        assert StepLoad([(0.0, 1.0), (2.0, 4.0), (3.0, 0.5)]).peak_load() == 4.0
