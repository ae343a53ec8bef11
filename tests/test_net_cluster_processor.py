"""Tests for processor specs and cluster construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.cluster import (
    SUN4_SPEEDS,
    adaptive_cluster,
    heterogeneous_cluster,
    sun4_cluster,
    uniform_cluster,
)
from repro.net.loadmodel import ConstantLoad, NoLoad
from repro.net.network import SharedEthernet
from repro.net.processor import ProcessorSpec


class TestProcessorSpec:
    def test_defaults(self):
        p = ProcessorSpec()
        assert p.speed == 1.0
        assert isinstance(p.load, NoLoad)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            ProcessorSpec(speed=0.0)

    def test_effective_speed_with_load(self):
        p = ProcessorSpec(speed=2.0, load=ConstantLoad(1.0))
        assert p.effective_speed(0.0) == pytest.approx(1.0)

    def test_finish_time(self):
        p = ProcessorSpec(speed=0.5)
        assert p.finish_time(1.0, 2.0) == pytest.approx(5.0)

    def test_capacity(self):
        p = ProcessorSpec(speed=2.0, load=ConstantLoad(1.0))
        assert p.capacity(0.0, 3.0) == pytest.approx(3.0)

    def test_with_load_copies(self):
        p = ProcessorSpec(speed=1.5)
        q = p.with_load(ConstantLoad(2.0))
        assert isinstance(p.load, NoLoad)  # original untouched
        assert q.speed == 1.5
        assert q.effective_speed(0.0) == pytest.approx(0.5)


class TestClusterSpec:
    def test_uniform(self):
        cl = uniform_cluster(4)
        assert cl.size == 4
        np.testing.assert_allclose(cl.speeds, 1.0)

    def test_uniform_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster(0)

    def test_heterogeneous_speeds(self):
        cl = heterogeneous_cluster([1.0, 0.5])
        np.testing.assert_allclose(cl.speeds, [1.0, 0.5])

    def test_effective_speeds_are_base_speeds_without_load(self):
        cl = heterogeneous_cluster([3.0, 1.0])
        np.testing.assert_allclose(cl.effective_speeds(), [3.0, 1.0])

    def test_effective_speeds_respond_to_load(self):
        cl = uniform_cluster(2).with_load(0, ConstantLoad(1.0))
        np.testing.assert_allclose(cl.effective_speeds(0.0), [0.5, 1.0])

    def test_subset(self):
        cl = heterogeneous_cluster([1.0, 0.8, 0.6])
        sub = cl.subset([0, 2])
        np.testing.assert_allclose(sub.speeds, [1.0, 0.6])

    def test_subset_of_leading_ranks(self):
        cl = sun4_cluster(5)
        np.testing.assert_allclose(cl.subset([0, 1]).speeds, SUN4_SPEEDS[:2])

    def test_subset_rejects_bad_rank(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster(2).subset([0, 5])

    def test_subset_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster(2).subset([])

    def test_with_load_out_of_range(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster(2).with_load(9, ConstantLoad(1.0))

    def test_make_network_fresh_instances(self):
        cl = uniform_cluster(2, network_factory=SharedEthernet)
        n1, n2 = cl.make_network(), cl.make_network()
        assert n1 is not n2

    def test_sun4_speeds_descending(self):
        speeds = sun4_cluster(5).speeds
        assert all(a >= b for a, b in zip(speeds, speeds[1:]))

    def test_sun4_uses_ethernet(self):
        assert isinstance(sun4_cluster(3).make_network(), SharedEthernet)

    def test_sun4_bounds(self):
        with pytest.raises(ConfigurationError):
            sun4_cluster(6)
        with pytest.raises(ConfigurationError):
            sun4_cluster(0)

    def test_adaptive_cluster_loads_the_first_workstation(self):
        cl = adaptive_cluster(3, competing_load=2.0)
        assert isinstance(cl.processors[0].load, ConstantLoad)
        assert isinstance(cl.processors[1].load, NoLoad)
        assert cl.processors[0].effective_speed(0.0) == pytest.approx(
            SUN4_SPEEDS[0] / 3.0
        )
