"""Tests for network cost models (point-to-point, Ethernet)."""

from __future__ import annotations

import pytest

from repro.net.network import PointToPointNetwork, SharedEthernet


class TestPointToPoint:
    def test_cost_formula(self):
        net = PointToPointNetwork(
            latency=1e-3, bandwidth=1e6, per_message_overhead=5e-4
        )
        (arrival,), sender_free = net.transmit(0, [1], 1000, 2.0)
        assert arrival == pytest.approx(2.0 + 5e-4 + 1e-3 + 1e-3)
        assert sender_free == pytest.approx(2.0 + 5e-4 + 1e-3)

    def test_empty_message_still_costs(self):
        net = PointToPointNetwork()
        (arrival,), _ = net.transmit(0, [1], 0, 0.0)
        assert arrival > 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PointToPointNetwork().transmit(0, [1], -1, 0.0)

    def test_no_contention(self):
        net = PointToPointNetwork()
        a1 = net.transmit(0, [1], 10_000, 1.0)
        a2 = net.transmit(2, [1], 10_000, 1.0)
        assert a1 == a2  # same parameters, independent of prior traffic

    def test_sender_free_before_arrival(self):
        (arrival,), sender_free = PointToPointNetwork().transmit(0, [1], 5000, 3.0)
        assert sender_free <= arrival

    def test_send_cost_is_overhead_latency_and_serialization(self):
        net = PointToPointNetwork()
        (arrival,), _ = net.transmit(0, [1], 4096, 10.0)
        assert arrival - 10.0 == pytest.approx(
            net.per_message_overhead + net.latency + 4096 / net.bandwidth
        )

    def test_sequential_multicast_fallback(self):
        net = PointToPointNetwork(
            latency=0.0, bandwidth=1e6, per_message_overhead=0.0
        )
        assert not net.supports_multicast
        arrivals, _ = net.transmit(0, [1, 2, 3], 1_000_000, 0.0)
        # Each 1-second copy leaves after the previous one.
        assert arrivals == [1.0, 2.0, 3.0]

    def test_multicast_charges_the_sender_one_copy(self):
        # Characterizes a known undercharge (the FOUND line on sequential
        # unicasts in CHANGES.md): the k copies arrive one frame apart, yet
        # the sender is free after the first frame, as if it had sent one.
        # Fixing it moves virtual time, so today's value is pinned here.
        net = PointToPointNetwork(
            latency=1e-3, bandwidth=1e6, per_message_overhead=5e-4
        )
        single = net.transmit(0, [1], 100_000, 2.0)
        arrivals, sender_free = net.transmit(0, [1, 2, 3, 4], 100_000, 2.0)
        assert sender_free == single[1] == 2.0 + 5e-4 + 0.1
        assert arrivals[0] == single[0][0]
        assert arrivals[-1] - arrivals[0] == pytest.approx(3 * (5e-4 + 0.1))

    def test_empty_dests(self):
        assert PointToPointNetwork().transmit(0, [], 100, 4.0) == ([], 4.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PointToPointNetwork(bandwidth=0.0)
        with pytest.raises(ValueError):
            PointToPointNetwork(latency=-1.0)


class TestSharedEthernet:
    def test_contention_serializes(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        (a1,), _ = net.transmit(0, [1], 1_000_000, 0.0)  # 1 second frame
        (a2,), _ = net.transmit(2, [3], 1_000_000, 0.0)  # waits for the medium
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_reset_clears_medium(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.transmit(0, [1], 1_000_000, 0.0)
        net.reset()
        (arrival,), sender_free = net.transmit(2, [3], 1_000_000, 0.0)
        assert arrival == sender_free == pytest.approx(1.0)

    def test_multicast_single_frame(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1e6, per_message_overhead=0.0)
        arrivals, sender_free = net.transmit(0, [1, 2, 3, 4], 10_000, 0.0)
        assert len(arrivals) == 4
        assert len(set(arrivals)) == 1  # all destinations hear one frame
        assert sender_free == pytest.approx(0.01)

    def test_link_defaults_match_point_to_point(self):
        shared, links = SharedEthernet(), PointToPointNetwork()
        assert (shared.latency, shared.bandwidth, shared.per_message_overhead) == (
            links.latency, links.bandwidth, links.per_message_overhead
        )
        assert SharedEthernet(latency=2e-3).latency == 2e-3

    def test_multicast_empty_dests(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        assert net.transmit(0, [], 1_000_000, 4.0) == ((), 4.0)
        (arrival,), _ = net.transmit(1, [2], 1_000_000, 0.0)
        assert arrival == pytest.approx(1.0)

    def test_idle_medium_no_extra_delay(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
        p2p = PointToPointNetwork(
            latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4
        )
        (shared,), shared_free = net.transmit(0, [1], 5000, 10.0)
        (links,), links_free = p2p.transmit(0, [1], 5000, 10.0)
        assert shared == pytest.approx(links)
        assert shared_free == links_free


class TestSharedEthernetContention:
    """The sender is free when its *granted* medium slot ends."""

    def test_sender_free_sees_contention(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.transmit(0, [1], 1_000_000, 0.0)  # holds the medium [0, 1]
        _, sender_free = net.transmit(2, [3], 1_000_000, 0.0)  # granted [1, 2]
        # Sender 2's frame left the medium at t=2, not at the
        # contention-free 0 + serialization = 1.
        assert sender_free == pytest.approx(2.0)

    def test_sender_free_uncontended(self):
        net = SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
        _, sender_free = net.transmit(0, [1], 5000, 10.0)
        assert sender_free == pytest.approx(10.0 + 5e-4 + 5000 / 1.25e6)

    def test_multicast_sender_free_matches_grant(self):
        net = SharedEthernet(latency=0.0, bandwidth=1e6, per_message_overhead=0.0)
        net.transmit(0, [1], 1_000_000, 0.0)  # medium busy until t=1
        _, sender_free = net.transmit(2, [3, 4], 500_000, 0.0)  # granted [1, 1.5]
        assert sender_free == pytest.approx(1.5)


def test_burst_sums_on_the_shared_medium_and_maxes_on_links():
    link = {"latency": 2e-3, "bandwidth": 1e6, "per_message_overhead": 1e-4}
    port_bytes = [3000, 1000, 2000]
    fixed = 4 * (1e-4 + 2e-3)
    assert PointToPointNetwork(**link).burst_seconds(port_bytes, 4) == (
        fixed + 3000 / 1e6
    )
    assert SharedEthernet(**link).burst_seconds(port_bytes, 4) == (
        fixed + 6000 / 1e6
    )


@pytest.mark.parametrize(
    "factory",
    [PointToPointNetwork, SharedEthernet],
    ids=["p2p", "ethernet"],
)
class TestNegativeSizeRejected:
    """Regression: every transmission validates nbytes."""

    def test_send_rejects(self, factory):
        with pytest.raises(ValueError, match="nbytes"):
            factory().transmit(0, [1], -1, 0.0)

    def test_multicast_rejects(self, factory):
        with pytest.raises(ValueError, match="nbytes"):
            factory().transmit(0, [1, 2], -1, 0.0)
