"""Tests for the paper's future-work extensions: capability prediction,
distributed load balancing, and the adaptive-application driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.apps.adaptive_refinement import (
    MovingHotspot,
    run_adaptive_application,
)
from repro.errors import ConfigurationError, LoadBalanceError
from repro.graph.generators import paper_mesh
from repro.net.cluster import adaptive_cluster, heterogeneous_cluster, uniform_cluster
from repro.net.network import PointToPointNetwork, SharedEthernet
from repro.net.spmd import run_spmd
from repro.obs.capture import capture_traces
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import LoadBalanceConfig, check, resolve_load_balance
from repro.runtime.kernels import run_sequential
from repro.runtime.prediction import MIN_FACTOR, LinearTrendPredictor
from repro.runtime.program import ProgramConfig, run_program


class TestPredictors:
    def test_trend_extrapolates_ramp(self):
        p = LinearTrendPredictor()
        for v in (10.0, 8.0, 6.0, 4.0):  # capability falling 2/step
            p.observe(v)
        # Forecast continues the decline (clamped above 1 = 4*0.25).
        assert p.predict() == pytest.approx(2.0, abs=0.5)

    def test_trend_clamps_extremes(self):
        p = LinearTrendPredictor()
        p.observe(100.0)
        p.observe(1.0)  # wild fit would go negative
        assert p.predict() == 1.0 * MIN_FACTOR

    def test_trend_single_observation(self):
        p = LinearTrendPredictor()
        p.observe(7.0)
        assert p.predict() == 7.0

    def test_trend_fits_only_the_last_window(self):
        p = LinearTrendPredictor()
        for v in (50.0, 1.0, 2.0, 3.0, 4.0):  # the outlier leaves the window
            p.observe(v)
        assert p.predict() == pytest.approx(5.0)

    def test_rejects_nonpositive_observations(self):
        with pytest.raises(LoadBalanceError):
            LinearTrendPredictor().observe(0.0)

    @pytest.mark.parametrize(
        "name", ["bogus", "oracle", "moving-average", "ewma", "last"]
    )
    def test_unknown_predictor_fails_at_configuration(self, name):
        # Raised while configuring, not as a RankFailedError from the
        # rank threads of a run.
        with pytest.raises(LoadBalanceError, match="unknown predictor"):
            LoadBalanceConfig(predictor=name)
        with pytest.raises(LoadBalanceError, match="unknown predictor"):
            resolve_load_balance("centralized", predictor=name)

    def test_trend_beats_last_on_ramp(self):
        """On a steadily degrading machine the trend predictor's forecast is
        closer to the next observation than the last phase's."""
        series = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0]
        trend = LinearTrendPredictor()
        trend_err = last_err = 0.0
        for prev, nxt in zip(series, series[1:]):
            trend.observe(prev)
            if prev != series[0]:  # trend needs 2+ points
                trend_err += abs(trend.predict() - nxt)
                last_err += abs(prev - nxt)
        assert trend_err < last_err


class TestDistributedCheck:
    def run_check(self, cluster, times, remaining=200, style="distributed"):
        part = partition_list(10_000, np.ones(cluster.size))

        def fn(ctx):
            t = times[ctx.rank]
            return check(ctx, style, part, (t, np.inf, t), remaining)

        return run_spmd(cluster, fn, trace=True)

    def test_all_ranks_agree(self):
        res = self.run_check(uniform_cluster(4), [3e-4, 1e-4, 1e-4, 1e-4])
        decisions = res.values
        assert all(d.remap == decisions[0].remap for d in decisions)
        if decisions[0].remap:
            for d in decisions[1:]:
                np.testing.assert_array_equal(
                    d.new_partition.bounds, decisions[0].new_partition.bounds
                )

    def test_detects_imbalance(self):
        res = self.run_check(uniform_cluster(3), [5e-4, 1e-4, 1e-4])
        assert res.values[0].remap

    def test_balanced_no_remap(self):
        res = self.run_check(uniform_cluster(3), [1e-4] * 3)
        assert not res.values[0].remap

    def test_multicast_message_count(self):
        """On Ethernet the distributed protocol is p multicasts."""
        cl = uniform_cluster(4, network_factory=SharedEthernet)
        res = self.run_check(cl, [1e-4] * 4)
        assert len([e for e in res.trace if e.kind == "multicast"]) == 4

    def test_unicast_fallback_message_count(self):
        """Without multicast, each rank sends p-1 unicasts: O(p^2) total."""
        cl = uniform_cluster(4, network_factory=PointToPointNetwork)
        res = self.run_check(cl, [1e-4] * 4)
        # One traced event per rank's multicast() call; payload reaches
        # every peer via sequential unicasts under the hood.
        assert len([e for e in res.trace if e.kind == "send"]) == 4

    def test_negative_remaining_rejected(self):
        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            self.run_check(uniform_cluster(2), [1e-4, 1e-4], remaining=-1)

    def test_config_style_validation(self):
        with pytest.raises(LoadBalanceError):
            LoadBalanceConfig(style="anarchic")


class TestProgramWithExtensions:
    @pytest.fixture(scope="class")
    def workload(self):
        g = paper_mesh(700, seed=31)
        y0 = np.random.default_rng(3).uniform(0, 100, g.num_vertices)
        return g, y0

    def test_distributed_style_matches_oracle(self, workload):
        g, y0 = workload
        oracle = run_sequential(g, y0, 30)
        cl = adaptive_cluster(3, competing_load=2.0)
        rep = run_program(
            g, cl,
            ProgramConfig(
                iterations=30,
                initial_capabilities="equal",
                load_balance=LoadBalanceConfig(
                    check_interval=10, style="distributed"
                ),
            ),
            y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)
        assert rep.num_remaps >= 1

    @pytest.mark.parametrize("predictor", [None, "trend"])
    def test_predictors_preserve_correctness(self, workload, predictor):
        g, y0 = workload
        oracle = run_sequential(g, y0, 25)
        cl = adaptive_cluster(3, competing_load=2.0)
        rep = run_program(
            g, cl,
            ProgramConfig(
                iterations=25,
                initial_capabilities="equal",
                load_balance=LoadBalanceConfig(
                    check_interval=8, predictor=predictor
                ),
            ),
            y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_centralized_and_distributed_same_decision_path(self, workload):
        g, y0 = workload
        cl = adaptive_cluster(3, competing_load=2.0)
        kw = dict(iterations=30, initial_capabilities="equal")
        central = run_program(
            g, cl,
            ProgramConfig(**kw, load_balance=LoadBalanceConfig(check_interval=10)),
            y0=y0,
        )
        distributed = run_program(
            g, cl,
            ProgramConfig(
                **kw,
                load_balance=LoadBalanceConfig(
                    check_interval=10, style="distributed"
                ),
            ),
            y0=y0,
        )
        assert central.num_remaps == distributed.num_remaps
        np.testing.assert_array_equal(
            central.partition_final.bounds, distributed.partition_final.bounds
        )

        # The same at the level of one check: for one input, both protocols
        # hand every rank the same Decision (a remap, so the new partition
        # is compared too).
        part = partition_list(g.num_vertices, np.ones(cl.size))
        times = [3e-4, 1e-4, 1e-4]

        def fn(ctx):
            return [
                check(
                    ctx, style, part,
                    (times[ctx.rank], np.inf, times[ctx.rank]), 400,
                    num_fields=2,
                )
                for style in ("centralized", "distributed")
            ]

        decisions = [d for pair in run_spmd(cl, fn).values for d in pair]
        first = decisions[0]
        assert first.remap
        for d in decisions[1:]:
            assert dataclasses.replace(d, new_partition=None) == (
                dataclasses.replace(first, new_partition=None)
            )
            np.testing.assert_array_equal(
                d.new_partition.bounds, first.new_partition.bounds
            )
            np.testing.assert_array_equal(
                d.new_partition.owners, first.new_partition.owners
            )


class TestAdaptiveApplication:
    @pytest.fixture(scope="class")
    def setup(self):
        g = paper_mesh(1200, seed=2)
        y0 = np.random.default_rng(5).uniform(0, 100, g.num_vertices)
        hs = MovingHotspot(g, amplitude=14.0, radius_fraction=0.12, n_phases=4)
        return g, y0, hs

    def test_hotspot_weights_shape_and_motion(self, setup):
        g, _, hs = setup
        w0, w1 = hs.weights(0), hs.weights(1)
        assert w0.shape == (g.num_vertices,)
        assert w0.min() >= 1.0
        assert w0.max() > 5.0
        assert not np.allclose(w0, w1)  # the hotspot moved

    def test_hotspot_validation(self, setup):
        g, _, _ = setup
        from repro.graph.csr import CSRGraph

        abstract = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ConfigurationError):
            MovingHotspot(abstract)
        with pytest.raises(ConfigurationError):
            MovingHotspot(g, amplitude=-1.0)
        with pytest.raises(ConfigurationError):
            MovingHotspot(g, n_phases=0)

    def test_matches_oracle_both_modes(self, setup):
        g, y0, hs = setup
        oracle = run_sequential(g, y0, 30)
        for repartition in (False, True):
            rep = run_adaptive_application(
                g, uniform_cluster(3), ProgramConfig(iterations=30),
                adapt_interval=10, hotspot=hs, repartition=repartition, y0=y0,
            )
            np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_repartitioning_pays_off(self, setup):
        g, y0, hs = setup
        kw = dict(adapt_interval=10, hotspot=hs, y0=y0)
        config = ProgramConfig(iterations=40)
        static = run_adaptive_application(
            g, uniform_cluster(4), config, repartition=False, **kw
        )
        adaptive = run_adaptive_application(
            g, uniform_cluster(4), config, repartition=True, **kw
        )
        assert adaptive.num_remaps == 3
        assert static.num_remaps == 0
        assert adaptive.makespan < static.makespan

    def test_heterogeneous_cluster_supported(self, setup):
        g, y0, hs = setup
        oracle = run_sequential(g, y0, 20)
        rep = run_adaptive_application(
            g, heterogeneous_cluster([1.0, 0.6, 0.4]),
            ProgramConfig(iterations=20), adapt_interval=5, hotspot=hs, y0=y0,
        )
        np.testing.assert_allclose(rep.values, oracle, atol=1e-9)

    def test_validation(self, setup):
        g, y0, hs = setup
        with pytest.raises(ConfigurationError):
            run_adaptive_application(g, uniform_cluster(2), adapt_interval=0)
        with pytest.raises(ConfigurationError):
            run_adaptive_application(g, uniform_cluster(2), y0=np.zeros(3))

    def test_traced_through_its_config(self, setup):
        # The capture window reaches the app through run_program: one
        # remap span per rank per adaptation, none for the initial split.
        g, y0, hs = setup
        with capture_traces() as window:
            rep = run_adaptive_application(
                g, uniform_cluster(3), ProgramConfig(iterations=30),
                adapt_interval=10, hotspot=hs, y0=y0,
            )
        ((_, trace),) = window.traces
        remaps = {}
        for ev in trace:
            if ev.kind == "remap":
                remaps[ev.rank] = remaps.get(ev.rank, 0) + 1
        assert rep.num_remaps == 2
        assert remaps == {0: 2, 1: 2, 2: 2}

    @pytest.mark.real
    def test_real_world_matches_sim(self):
        g = paper_mesh(1200, seed=2)
        hs = MovingHotspot(g, amplitude=14.0, radius_fraction=0.12, n_phases=3)
        reports = [
            run_adaptive_application(
                g, uniform_cluster(2),
                ProgramConfig(iterations=9, world=world, recv_timeout=30),
                adapt_interval=3, hotspot=hs,
            )
            for world in ("sim", "real")
        ]
        sim, real = reports
        assert sim.differences(real, virtual=False) == []
        assert sim.num_remaps == real.num_remaps == 2
