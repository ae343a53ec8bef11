"""Tests for network cost models (point-to-point, Ethernet)."""

from __future__ import annotations

import pytest

from repro.net.network import PointToPointNetwork, SharedEthernet


class TestPointToPoint:
    def test_cost_formula(self):
        net = PointToPointNetwork(
            latency=1e-3, bandwidth=1e6, per_message_overhead=5e-4
        )
        arrival = net.send(0, 1, 1000, 2.0)
        assert arrival == pytest.approx(2.0 + 5e-4 + 1e-3 + 1e-3)

    def test_empty_message_still_costs(self):
        net = PointToPointNetwork()
        assert net.send(0, 1, 0, 0.0) > 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PointToPointNetwork().send(0, 1, -1, 0.0)

    def test_no_contention(self):
        net = PointToPointNetwork()
        a1 = net.send(0, 1, 10_000, 1.0)
        a2 = net.send(2, 1, 10_000, 1.0)
        assert a1 == a2  # same parameters, independent of prior traffic

    def test_injection_done_before_arrival(self):
        net = PointToPointNetwork()
        t = 3.0
        assert net.injection_done(0, 1, 5000, t) <= net.send(0, 1, 5000, t)

    def test_send_cost_is_overhead_latency_and_serialization(self):
        net = PointToPointNetwork()
        assert net.send(0, 1, 4096, 10.0) - 10.0 == pytest.approx(
            net.per_message_overhead + net.latency + net.serialization_time(4096)
        )

    def test_sequential_multicast_fallback(self):
        net = PointToPointNetwork()
        assert not net.supports_multicast
        arrivals = net.multicast(0, [1, 2, 3], 100_000, 0.0)
        # Sequential unicasts: each later copy leaves after the previous.
        assert arrivals[0] < arrivals[1] < arrivals[2]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PointToPointNetwork(bandwidth=0.0)
        with pytest.raises(ValueError):
            PointToPointNetwork(latency=-1.0)


class TestSharedEthernet:
    def test_contention_serializes(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        a1 = net.send(0, 1, 1_000_000, 0.0)  # 1 second frame
        a2 = net.send(2, 3, 1_000_000, 0.0)  # must wait for the medium
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_reset_clears_medium(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.send(0, 1, 1_000_000, 0.0)
        net.reset()
        assert net.send(2, 3, 1_000_000, 0.0) == pytest.approx(1.0)

    def test_multicast_single_frame(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1e6, per_message_overhead=0.0)
        arrivals = net.multicast(0, [1, 2, 3, 4], 10_000, 0.0)
        assert len(arrivals) == 4
        assert len(set(arrivals)) == 1  # all destinations hear one frame

    def test_link_defaults_match_point_to_point(self):
        shared, links = SharedEthernet(), PointToPointNetwork()
        assert (shared.latency, shared.bandwidth, shared.per_message_overhead) == (
            links.latency, links.bandwidth, links.per_message_overhead
        )
        assert SharedEthernet(latency=2e-3).latency == 2e-3

    def test_multicast_empty_dests(self):
        assert SharedEthernet().multicast(0, [], 100, 0.0) == []

    def test_idle_medium_no_extra_delay(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
        p2p = PointToPointNetwork(
            latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4
        )
        assert net.send(0, 1, 5000, 10.0) == pytest.approx(p2p.send(0, 1, 5000, 10.0))


class TestSharedEthernetContention:
    """Regression: injection_done must reflect the *granted* medium slot."""

    def test_injection_done_sees_contention(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.send(0, 1, 1_000_000, 0.0)  # holds the medium [0, 1]
        net.send(2, 3, 1_000_000, 0.0)  # granted [1, 2]
        # Sender 2's frame left the medium at t=2, not at the
        # contention-free 0 + serialization = 1.
        assert net.injection_done(2, 3, 1_000_000, 0.0) == pytest.approx(2.0)

    def test_injection_done_uncontended_unchanged(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
        net.send(0, 1, 5000, 10.0)
        expected = 10.0 + 5e-4 + 5000 / 1.25e6
        assert net.injection_done(0, 1, 5000, 10.0) == pytest.approx(expected)

    def test_unmatched_query_contention_free(self):
        # A cost-estimator probe (no prior send) gets the optimistic bound.
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        assert net.injection_done(4, 5, 1_000_000, 3.0) == pytest.approx(4.0)

    def test_sequential_fallback_cannot_overlap_own_frames(self):
        # Drive the base-class sequential-unicast fallback over the shared
        # medium: with the bug, every copy was injected at t_send and the
        # later frames queued behind an already-stale injection estimate.
        from repro.net.network import NetworkModel

        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        arrivals = NetworkModel.multicast(net, 0, [1, 2, 3], 1_000_000, 0.0)
        # Each 1-second frame must fully occupy the medium before the next
        # copy is injected: arrivals at exactly 1, 2, 3 seconds.
        assert arrivals == pytest.approx([1.0, 2.0, 3.0])

    def test_multicast_injection_done_matches_grant(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.send(0, 1, 1_000_000, 0.0)            # medium busy until t=1
        net.multicast(2, [3, 4], 500_000, 0.0)    # granted [1, 1.5]
        # The comm layer queries with dests[0] after a multicast.
        assert net.injection_done(2, 3, 500_000, 0.0) == pytest.approx(1.5)

    def test_reset_clears_grants(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.send(0, 1, 1_000_000, 0.0)
        net.send(2, 3, 1_000_000, 0.0)
        net.reset()
        assert net.injection_done(2, 3, 1_000_000, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "factory",
    [PointToPointNetwork, SharedEthernet],
    ids=["p2p", "ethernet"],
)
class TestNegativeSizeRejected:
    """Regression: multicast must validate nbytes like send does."""

    def test_send_rejects(self, factory):
        with pytest.raises(ValueError, match="nbytes"):
            factory().send(0, 1, -1, 0.0)

    def test_multicast_rejects(self, factory):
        with pytest.raises(ValueError, match="nbytes"):
            factory().multicast(0, [1, 2], -1, 0.0)
