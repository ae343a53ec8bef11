"""Network cost models for the simulated cluster.

Two models, matching the environments the paper discusses:

* :class:`PointToPointNetwork` — contention-free store-and-forward links;
  fully deterministic, the default for unit tests.
* :class:`SharedEthernet` — a single shared medium (10 Mbit/s Ethernet in
  the paper): only one frame in flight at a time, with **hardware
  multicast** (Sec. 3.6) so one frame reaches any number of destinations.

A model answers two questions: :meth:`~NetworkModel.transmit` prices one
transmission as the sender makes it, :meth:`~NetworkModel.burst_seconds`
predicts a burst of concurrent messages for the cost estimates that decide
before anything is sent.

All times are virtual seconds.  The models are thread-safe: the SPMD runner
calls into them concurrently from one thread per rank.
"""

from __future__ import annotations

import threading
from typing import Collection, Sequence

from repro.utils.validation import check_positive

__all__ = [
    "NetworkModel",
    "PointToPointNetwork",
    "SharedEthernet",
    "ETHERNET_10MBIT",
]


class NetworkModel:
    """Base class: prices transmissions and bursts of messages."""

    #: True if a single transmission can reach several destinations at once.
    supports_multicast: bool = False
    latency: float
    bandwidth: float  # bytes / second
    per_message_overhead: float

    def transmit(
        self, source: int, dests: Sequence[int], nbytes: int, t_send: float
    ) -> tuple[Sequence[float], float]:
        """One transmission of *nbytes* issued at *t_send*: each of *dests*'
        arrival time, and the time the sender is free again."""
        raise NotImplementedError

    def burst_seconds(self, port_bytes: Collection[int], messages: int) -> float:
        """Predicted seconds for *messages* concurrent messages whose bytes
        leave through ports carrying *port_bytes* each."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget contention state (start of a new SPMD run)."""


class PointToPointNetwork(NetworkModel):
    """Contention-free network: cost = overhead + latency + nbytes/bandwidth.

    Deterministic regardless of thread interleaving, hence the default model
    for tests.  ``latency`` covers propagation plus protocol processing;
    ``per_message_overhead`` is the sender-side software cost (the dominant
    term for the many small messages the "simple" schedule strategy sends,
    which is what makes it lose to the sorting strategies in Table 3).
    Several destinations get sequential unicasts, what a sender must do
    when the network has no multicast (Sec. 3.6).
    """

    def __init__(
        self,
        *,
        latency: float = 1e-3,
        bandwidth: float = 1.25e6,
        per_message_overhead: float = 5e-4,
    ):
        check_positive("latency", latency, strict=False)
        check_positive("bandwidth", bandwidth)
        check_positive("per_message_overhead", per_message_overhead, strict=False)
        self.latency = latency
        self.bandwidth = bandwidth
        self.per_message_overhead = per_message_overhead

    def transmit(
        self, source: int, dests: Sequence[int], nbytes: int, t_send: float
    ) -> tuple[Sequence[float], float]:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        frame = nbytes / self.bandwidth
        # The sending CPU is busy for the software overhead plus the copy
        # onto the wire (workstation NICs of the era were CPU-driven).
        ready = t_send + self.per_message_overhead
        try:
            # One destination, every plain send: the unpack is the
            # cheapest test for it on this per-message path.
            (_,) = dests
        except ValueError:
            # Sequential unicasts, each copy sent once the previous one
            # left.  The sender is charged for the first copy only, however
            # many follow: a known undercharge, kept so virtual time stays
            # unchanged.
            arrivals = []
            t = t_send
            for dest in dests:
                (arrival,), t = self.transmit(source, (dest,), nbytes, t)
                arrivals.append(arrival)
            return arrivals, ready + frame if dests else t_send
        return (ready + self.latency + frame,), ready + frame

    def burst_seconds(self, port_bytes: Collection[int], messages: int) -> float:
        # Distinct ports overlap: the busiest one bounds the burst.
        return (
            messages * (self.per_message_overhead + self.latency)
            + max(port_bytes, default=0) / self.bandwidth
        )


class SharedEthernet(PointToPointNetwork):
    """A single shared medium: one frame in flight cluster-wide.

    A :meth:`transmit` issued at ``t_send`` waits for the medium to free,
    holds it for the frame's serialization time, and arrives ``latency``
    after the frame finishes; the sender is free once its frame has left
    the medium.  Hardware multicast sends one frame to all destinations
    (Sec. 3.6: "our library has the ability to use multicast ... if the
    network supports multicast (e.g., Ethernet)").

    Contention ordering follows the (real) order in which rank threads call
    :meth:`transmit`, so virtual times under contention can vary run to run
    by up to the contention delay; benchmark assertions use shapes, not
    exact values.
    """

    supports_multicast = True

    def __init__(self, **link: float):
        """Link parameters as for :class:`PointToPointNetwork`."""
        super().__init__(**link)
        self._lock = threading.Lock()
        self._medium_free = 0.0

    def reset(self) -> None:
        with self._lock:
            self._medium_free = 0.0

    def transmit(
        self, source: int, dests: Sequence[int], nbytes: int, t_send: float
    ) -> tuple[Sequence[float], float]:
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if not dests:
            return (), t_send
        frame = nbytes / self.bandwidth
        with self._lock:
            start = max(t_send + self.per_message_overhead, self._medium_free)
            self._medium_free = sender_free = start + frame
        return (sender_free + self.latency,) * len(dests), sender_free

    def burst_seconds(self, port_bytes: Collection[int], messages: int) -> float:
        # Every frame serializes on the one medium.
        return (
            messages * (self.per_message_overhead + self.latency)
            + sum(port_bytes) / self.bandwidth
        )


def ETHERNET_10MBIT() -> SharedEthernet:
    """The paper's network: 10 Mbit/s shared Ethernet, ~1 ms latency."""
    return SharedEthernet(latency=1e-3, bandwidth=1.25e6, per_message_overhead=5e-4)
