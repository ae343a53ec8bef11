"""Tests for load monitoring, the controller, and efficiency metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, LoadBalanceError
from repro.net.cluster import heterogeneous_cluster, uniform_cluster
from repro.net.loadmodel import ConstantLoad
from repro.net.spmd import run_spmd
from repro.partition.intervals import partition_list
from repro.runtime.adaptive import LoadBalanceConfig, check
from repro.runtime.efficiency import (
    cluster_efficiency,
    nonuniform_efficiency,
    sequential_times,
)
from repro.runtime.monitor import LoadMonitor


class TestLoadMonitor:
    def test_avg_time_per_item(self):
        m = LoadMonitor()
        m.record(2.0, 100)
        m.record(2.0, 100)
        assert m.avg_time_per_item() == pytest.approx(0.02)

    def test_window_reset(self):
        m = LoadMonitor()
        m.record(1.0, 10)
        m.reset_window()
        assert not m.has_window
        assert m.total_items == 10  # totals survive the reset
        m.record(4.0, 10)
        assert m.avg_time_per_item() == pytest.approx(0.4)

    def test_empty_window_raises(self):
        with pytest.raises(LoadBalanceError):
            LoadMonitor().avg_time_per_item()

    def test_rejects_negative_sample(self):
        with pytest.raises(LoadBalanceError):
            LoadMonitor().record(-1.0, 5)

    def test_sample_count(self):
        m = LoadMonitor()
        for _ in range(3):
            m.record(0.5, 5)
        assert m.samples == 3


class TestLoadBalanceConfig:
    def test_validation(self):
        with pytest.raises(LoadBalanceError):
            LoadBalanceConfig(check_interval=0)
        with pytest.raises(LoadBalanceError):
            LoadBalanceConfig(style="off")  # a static run has no config


class TestControllerCheck:
    def run_check(self, cluster, times_per_item, n=1000, remaining=100):
        part = partition_list(n, np.ones(cluster.size))

        def fn(ctx):
            t = times_per_item[ctx.rank]
            return check(ctx, "centralized", part, (t, np.inf, t), remaining)

        return run_spmd(cluster, fn)

    def test_decision_broadcast_to_all(self):
        res = self.run_check(uniform_cluster(3), [1e-4, 1e-4, 1e-4])
        decisions = res.values
        assert all(d.remap == decisions[0].remap for d in decisions)

    def test_balanced_load_no_remap(self):
        res = self.run_check(uniform_cluster(3), [1e-4] * 3)
        assert not res.values[0].remap

    def test_imbalance_triggers_remap(self):
        # Rank 0 is 3x slower per item: predicted savings are large.
        res = self.run_check(uniform_cluster(3), [3e-4, 1e-4, 1e-4],
                             n=30_000, remaining=400)
        d = res.values[0]
        assert d.remap
        assert d.new_partition is not None
        # The slow rank gets a smaller share.
        sizes = d.new_partition.sizes()
        assert sizes[0] < sizes[1]
        assert d.predicted_balanced < d.predicted_current

    def test_few_remaining_iterations_not_profitable(self):
        res = self.run_check(uniform_cluster(3), [3e-4, 1e-4, 1e-4],
                             n=30_000, remaining=0)
        assert not res.values[0].remap

    def test_invalid_load_report_fails(self):
        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            self.run_check(uniform_cluster(2), [0.0, 1e-4])

    def test_negative_remaining_rejected(self):
        from repro.errors import RankFailedError

        with pytest.raises(RankFailedError):
            self.run_check(uniform_cluster(2), [1e-4, 1e-4], remaining=-1)


class TestEfficiency:
    def test_equal_machines_equals_classic(self):
        # 4 machines, T_i = 100 each, T_par = 30: classic E = 100/(4*30).
        assert nonuniform_efficiency(30.0, [100.0] * 4) == pytest.approx(
            100.0 / 120.0
        )

    def test_perfect_parallelization(self):
        # Combined rate = sum of rates; no overhead -> E = 1.
        seq = [10.0, 20.0]
        t_par = 1.0 / (1 / 10 + 1 / 20)
        assert nonuniform_efficiency(t_par, seq) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            nonuniform_efficiency(0.0, [1.0])
        with pytest.raises(ConfigurationError):
            nonuniform_efficiency(1.0, [])
        with pytest.raises(ConfigurationError):
            nonuniform_efficiency(1.0, [0.0])

    def test_sequential_times_speeds(self):
        cl = heterogeneous_cluster([1.0, 0.5])
        np.testing.assert_allclose(sequential_times(cl, 10.0), [10.0, 20.0])

    def test_sequential_times_with_load(self):
        cl = uniform_cluster(1).with_load(0, ConstantLoad(1.0))
        assert sequential_times(cl, 10.0)[0] == pytest.approx(20.0)

    def test_cluster_efficiency_bound(self):
        cl = heterogeneous_cluster([1.0, 0.5, 0.25])
        # Ideal time = W / sum(speeds).
        ideal = 10.0 / 1.75
        assert cluster_efficiency(cl, ideal, 10.0) == pytest.approx(1.0)
        assert cluster_efficiency(cl, 2 * ideal, 10.0) == pytest.approx(0.5)

    def test_work_seconds_validation(self):
        cl = uniform_cluster(1)
        with pytest.raises(ConfigurationError):
            sequential_times(cl, 0.0)
