"""Network cost models for the simulated cluster.

Two models, matching the environments the paper discusses:

* :class:`PointToPointNetwork` — contention-free store-and-forward links;
  fully deterministic, the default for unit tests.
* :class:`SharedEthernet` — a single shared medium (10 Mbit/s Ethernet in
  the paper): only one frame in flight at a time, with **hardware
  multicast** (Sec. 3.6) so one frame reaches any number of destinations.

All times are virtual seconds.  The models are thread-safe: the SPMD runner
calls into them concurrently from one thread per rank.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from repro.utils.validation import check_positive

__all__ = [
    "NetworkModel",
    "PointToPointNetwork",
    "SharedEthernet",
    "ETHERNET_10MBIT",
]


class NetworkModel:
    """Base class: maps (send time, size, destinations) -> arrival time."""

    #: True if a single transmission can reach several destinations at once.
    supports_multicast: bool = False

    def send(self, source: int, dest: int, nbytes: int, t_send: float) -> float:
        """Arrival time of a point-to-point message issued at *t_send*."""
        raise NotImplementedError

    def multicast(
        self, source: int, dests: Sequence[int], nbytes: int, t_send: float
    ) -> list[float]:
        """Arrival times for a one-to-many transmission.

        The default falls back to sequential unicasts (what a sender must do
        when the network has no multicast support, as Sec. 3.6 notes).
        """
        arrivals = []
        t = t_send
        for d in dests:
            arrival = self.send(source, d, nbytes, t)
            arrivals.append(arrival)
            # Sequential unicast: the sender can inject the next copy only
            # after the previous frame left its interface.
            t = max(t, self.injection_done(source, d, nbytes, t))
        return arrivals

    def injection_done(
        self, source: int, dest: int, nbytes: int, t_send: float
    ) -> float:
        """Virtual time at which the sender's interface is free again.

        Defaults to the serialization time of the frame; models override if
        contention delays injection.
        """
        return t_send + self.serialization_time(nbytes)

    def serialization_time(self, nbytes: int) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget contention state (start of a new SPMD run)."""


@dataclass
class _LinkParams:
    latency: float
    bandwidth: float  # bytes / second
    per_message_overhead: float

    def __post_init__(self) -> None:
        check_positive("latency", self.latency, strict=False)
        check_positive("bandwidth", self.bandwidth)
        check_positive("per_message_overhead", self.per_message_overhead, strict=False)


class PointToPointNetwork(NetworkModel):
    """Contention-free network: cost = overhead + latency + nbytes/bandwidth.

    Deterministic regardless of thread interleaving, hence the default model
    for tests.  ``latency`` covers propagation plus protocol processing;
    ``per_message_overhead`` is the sender-side software cost (the dominant
    term for the many small messages the "simple" schedule strategy sends,
    which is what makes it lose to the sorting strategies in Table 3).
    """

    def __init__(
        self,
        *,
        latency: float = 1e-3,
        bandwidth: float = 1.25e6,
        per_message_overhead: float = 5e-4,
    ):
        self._p = _LinkParams(latency, bandwidth, per_message_overhead)

    @property
    def latency(self) -> float:
        return self._p.latency

    @property
    def bandwidth(self) -> float:
        return self._p.bandwidth

    @property
    def per_message_overhead(self) -> float:
        return self._p.per_message_overhead

    def serialization_time(self, nbytes: int) -> float:
        return nbytes / self._p.bandwidth

    def send(self, source: int, dest: int, nbytes: int, t_send: float) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        p = self._p
        return t_send + p.per_message_overhead + p.latency + nbytes / p.bandwidth

    def injection_done(
        self, source: int, dest: int, nbytes: int, t_send: float
    ) -> float:
        # The sending CPU is busy for the software overhead plus the copy
        # onto the wire (workstation NICs of the era were CPU-driven).
        return t_send + self._p.per_message_overhead + self.serialization_time(nbytes)


class SharedEthernet(PointToPointNetwork):
    """A single shared medium: one frame in flight cluster-wide.

    A transmission issued at ``t_send`` waits for the medium to free, holds
    it for the frame's serialization time, and arrives ``latency`` after the
    frame finishes.  Hardware multicast sends one frame to all destinations
    (Sec. 3.6: "our library has the ability to use multicast ... if the
    network supports multicast (e.g., Ethernet)").

    Contention ordering follows the (real) order in which rank threads call
    :meth:`send`, so virtual times under contention can vary run to run by
    up to the contention delay; benchmark assertions use shapes, not exact
    values.
    """

    supports_multicast = True

    def __init__(self, **link: float):
        """Link parameters as for :class:`PointToPointNetwork`."""
        super().__init__(**link)
        self._lock = threading.Lock()
        self._medium_free = 0.0
        # Last granted reservation per source rank: (dest, nbytes, t_send,
        # sender_free).  What lets injection_done report the *granted* slot
        # instead of a contention-free guess.
        self._grants: dict[int, tuple[int, int, float, float]] = {}

    def reset(self) -> None:
        with self._lock:
            self._medium_free = 0.0
            self._grants.clear()

    def _acquire_medium(
        self,
        t_ready: float,
        hold: float,
        *,
        grant_key: tuple[int, int, int, float] | None = None,
    ) -> float:
        """Reserve the medium from max(t_ready, free); return start time.

        With *grant_key* = (source, dest, nbytes, t_send), the reservation
        is also recorded so a matching :meth:`injection_done` query can
        report when the sender's frame actually left the medium.
        """
        with self._lock:
            start = max(t_ready, self._medium_free)
            self._medium_free = start + hold
            if grant_key is not None:
                source, dest, nbytes, t_send = grant_key
                self._grants[source] = (dest, nbytes, t_send, start + hold)
            return start

    def send(self, source: int, dest: int, nbytes: int, t_send: float) -> float:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        p = self._p
        frame = nbytes / p.bandwidth
        start = self._acquire_medium(
            t_send + p.per_message_overhead,
            frame,
            grant_key=(source, dest, nbytes, t_send),
        )
        return start + frame + p.latency

    def injection_done(
        self, source: int, dest: int, nbytes: int, t_send: float
    ) -> float:
        # The sender is busy until its frame has left the shared medium.
        # When the query matches the source's last granted reservation (the
        # send/injection_done pairing every caller uses), report the granted
        # slot: under contention the frame may have held the medium much
        # later than t_send, and injecting the next frame before then would
        # let a sequential-unicast fallback overlap its own frames.
        with self._lock:
            grant = self._grants.get(source)
            if grant is not None and grant[:3] == (dest, nbytes, t_send):
                return grant[3]
        # No recorded reservation (a cost estimator probing, or a query for
        # a transmission this model never granted): contention-free bound.
        return t_send + self._p.per_message_overhead + self.serialization_time(nbytes)

    def multicast(
        self, source: int, dests: Sequence[int], nbytes: int, t_send: float
    ) -> list[float]:
        if not dests:
            return []
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        p = self._p
        frame = nbytes / p.bandwidth
        # Recorded under the first destination: the comm layer queries
        # injection_done with dests[0] after a multicast.
        start = self._acquire_medium(
            t_send + p.per_message_overhead,
            frame,
            grant_key=(source, int(dests[0]), nbytes, t_send),
        )
        arrival = start + frame + p.latency
        return [arrival] * len(dests)


def ETHERNET_10MBIT() -> SharedEthernet:
    """The paper's network: 10 Mbit/s shared Ethernet, ~1 ms latency."""
    return SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
