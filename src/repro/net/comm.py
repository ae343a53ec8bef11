"""The communicator: virtual-clock message passing between SPMD ranks.

A :class:`Communicator` owns the mailboxes, the network model instance, and
the per-rank virtual clocks for one SPMD run.  Each rank interacts with it
through a :class:`RankContext`, which exposes an MPI-like API (``send`` /
``recv`` / collectives) plus :meth:`RankContext.compute` for charging
computation time through the rank's processor speed and competing-load trace.

:class:`RankContext` holds the one body of every rank operation for both
execution worlds: argument checks, self-sends, the trace event and the
``net.*`` counts.  A world supplies only how bytes and clocks move, as four
private primitives: :meth:`~RankContext._post` (put one payload on the
wire to some destinations), :meth:`~RankContext._advance` (charge
computation), :meth:`~RankContext._synchronize` (the barrier itself) and
:meth:`~RankContext._charge_recv` (take one delivered message).  The ones
here are the sim world's; :mod:`repro.runtime.procs.context` has the real
world's.

Each rank is an OS thread, so ranks block on receives exactly as P4
processes would; under the GIL the threads take turns rather than run at
once, so they model SPMD control flow, not host parallelism.  **All
reported time is virtual**, so results do not depend on the host machine,
the GIL, or thread scheduling — except that the shared-Ethernet model
orders contended frames by thread arrival (see :mod:`repro.net.network`).
Known-pattern drains (:meth:`RankContext.recv_expected`) charge receives
in virtual-arrival order, keeping clocks bit-reproducible on
deterministic networks.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterable, Sequence

from repro.errors import CommunicationError, ConfigurationError
from repro.net.cluster import ClusterSpec
from repro.net.mailbox import Mailbox
from repro.net.message import Message, Tags, payload_nbytes
from repro.net.network import NetworkModel
from repro.net.trace import TraceEvent, TraceLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

__all__ = [
    "BARRIER_OVERHEAD",
    "Communicator",
    "RECV_OVERHEAD",
    "RankContext",
    "resolve_recv_timeout",
]

#: Default *host* timeout for blocking receives, to surface deadlocks in
#: tests instead of hanging forever.  Override per run with the
#: ``recv_timeout`` parameter (``repro run --recv-timeout``) or globally
#: with the ``REPRO_RECV_TIMEOUT`` environment variable.
DEFAULT_RECV_TIMEOUT = 120.0

#: Environment variable overriding :data:`DEFAULT_RECV_TIMEOUT`.
RECV_TIMEOUT_ENV = "REPRO_RECV_TIMEOUT"


def resolve_recv_timeout(explicit: float | None = None) -> float:
    """Resolve the blocking-receive host timeout in seconds.

    Precedence: *explicit* argument > ``REPRO_RECV_TIMEOUT`` environment
    variable > :data:`DEFAULT_RECV_TIMEOUT`.  The result must be > 0.
    """
    if explicit is not None:
        if explicit <= 0:
            raise ConfigurationError(
                f"recv_timeout must be > 0 seconds, got {explicit}"
            )
        return float(explicit)
    env = os.environ.get(RECV_TIMEOUT_ENV)
    if env is not None and env.strip():
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"{RECV_TIMEOUT_ENV}={env!r} is not a number"
            ) from None
        if value <= 0:
            raise ConfigurationError(
                f"{RECV_TIMEOUT_ENV} must be > 0 seconds, got {value}"
            )
        return value
    return DEFAULT_RECV_TIMEOUT


#: Virtual seconds a rank pays to take one delivered message off its
#: mailbox (:meth:`RankContext._charge_recv`).
RECV_OVERHEAD = 2.0e-4

#: Virtual seconds every rank pays to leave a barrier, after the latest
#: rank has arrived (:meth:`RankContext._synchronize`).
BARRIER_OVERHEAD = 1.0e-4


class Communicator:
    """Shared state for one SPMD run over a cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        *,
        trace: bool = False,
        trace_capacity: int | None = None,
        recv_timeout: float | None = None,
    ):
        self.cluster = cluster
        self.size = cluster.size
        self.network = cluster.make_network()
        self.mailboxes = [Mailbox(r) for r in range(self.size)]
        self.clocks = [0.0] * self.size
        self.trace = TraceLog(enabled=trace, capacity=trace_capacity)
        #: One registry per rank; each rank thread touches only its own.
        self.metrics = [MetricsRegistry() for _ in range(self.size)]
        self.recv_timeout = resolve_recv_timeout(recv_timeout)
        self._barrier_max = 0.0
        self._barrier = threading.Barrier(self.size, action=self._barrier_action)

    def _barrier_action(self) -> None:
        # Runs in exactly one thread once all ranks have arrived.
        self._barrier_max = max(self.clocks)

    def context(self, rank: int) -> "RankContext":
        if not (0 <= rank < self.size):
            raise ConfigurationError(f"rank {rank} out of range 0..{self.size - 1}")
        return RankContext(self, rank)

    def shutdown(self) -> None:
        """Close all mailboxes (wakes every blocked receiver)."""
        for box in self.mailboxes:
            box.close()

    @property
    def makespan(self) -> float:
        """Max virtual clock across ranks (total parallel execution time)."""
        return max(self.clocks)


class RankContext:
    """Per-rank handle: the API SPMD rank functions program against.

    The one rank-side surface for both execution worlds (see the module
    docstring); the ``clock`` and the private primitives here are the sim
    world's: virtual clocks and the modeled network.
    """

    def __init__(self, comm: Communicator, rank: int):
        self._comm = comm
        self.rank = rank
        self.size = comm.size
        self.proc = comm.cluster.processors[rank]
        self.metrics = comm.metrics[rank]
        self._mailbox = comm.mailboxes[rank]
        #: Hierarchical span emitter (:mod:`repro.obs`); a no-op unless
        #: the run was started with trace=True.
        self.tracer = Tracer(
            comm.trace, rank, clock_fn=lambda: comm.clocks[rank]
        )

    # ------------------------------------------------------------------ #
    # virtual clock
    # ------------------------------------------------------------------ #

    @property
    def clock(self) -> float:
        """This rank's virtual time in seconds."""
        return self._comm.clocks[self.rank]

    @clock.setter
    def clock(self, value: float) -> None:
        self._comm.clocks[self.rank] = value

    def compute(self, work_seconds: float, *, label: str = "") -> None:
        """Charge *work_seconds* of unit-speed computation.

        The actual elapsed virtual time is larger on slow or loaded
        processors: it is found by integrating the processor's effective
        speed (base speed / (1 + competing load)) from the current clock.
        """
        if work_seconds < 0:
            raise ValueError(f"work_seconds must be >= 0, got {work_seconds}")
        t0 = self.clock
        self._advance(work_seconds)
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent("compute", self.rank, t0, self.clock, label=label)
            )

    def _advance(self, work_seconds: float) -> None:
        """Move the clock past *work_seconds* of unit-speed work."""
        self.clock = self.proc.finish_time(self.clock, work_seconds)

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #

    def send(self, dest: int, payload: Any, tag: int = Tags.USER_BASE) -> None:
        """Buffered (non-blocking-complete) send, like P4/MPI eager sends."""
        if not (0 <= dest < self.size):
            raise CommunicationError(f"send to invalid rank {dest}")
        nbytes = payload_nbytes(payload)
        if dest == self.rank:
            # Self-sends bypass the network (local memory copy).
            self._mailbox.deposit(Message(
                self.rank, dest, tag, payload, nbytes,
                send_time=self.clock, arrival_time=self.clock,
            ))
            return
        self._transmit("send", (dest,), dest, payload, tag, nbytes, "")

    def multicast(
        self, dests: Sequence[int], payload: Any, tag: int = Tags.USER_BASE
    ) -> None:
        """One logical transmission to several destinations (Sec. 3.6).

        Uses hardware multicast when the network supports it (one frame on
        Ethernet); otherwise degrades to sequential unicasts.  Either way
        it is one traced event and one counted message.
        """
        dests = [d for d in dests if d != self.rank]
        for d in dests:
            if not (0 <= d < self.size):
                raise CommunicationError(f"multicast to invalid rank {d}")
        if not dests:
            return
        kind = "multicast" if self.network.supports_multicast else "send"
        self._transmit(
            kind, dests, -1, payload, tag, payload_nbytes(payload),
            f"x{len(dests)}",
        )

    def _transmit(
        self, kind: str, dests: Sequence[int], peer: int, payload: Any,
        tag: int, nbytes: int, label: str,
    ) -> None:
        """Post one transmission, then trace and count it once."""
        t0 = self.clock
        self._post(dests, payload, tag, nbytes)
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent(kind, self.rank, t0, self.clock, nbytes=nbytes,
                           peer=peer, tag=tag, label=label)
            )
        self.metrics.count("net.messages_sent")
        self.metrics.count("net.bytes_sent", nbytes)

    def _post(
        self, dests: Sequence[int], payload: Any, tag: int, nbytes: int
    ) -> None:
        """Put *payload* on the wire to *dests* (never this rank): price
        it through the network model, free the sender when the model
        says, and deposit one message per destination."""
        comm = self._comm
        t0 = self.clock
        arrivals, self.clock = comm.network.transmit(self.rank, dests, nbytes, t0)
        for d, arrival in zip(dests, arrivals):
            comm.mailboxes[d].deposit(Message(
                self.rank, d, tag, payload, nbytes,
                send_time=t0, arrival_time=arrival,
            ))

    def recv(self, source: int, tag: int) -> Any:
        """Blocking receive of the next payload on the exact (source, tag)
        channel; advances the clock to the message arrival."""
        msg = self._mailbox.receive(
            source, tag, timeout=self._comm.recv_timeout
        )
        self._note_recv(msg)
        return msg.payload

    def _charge_recv(self, msg: Message) -> None:
        """Advance the clock for one delivered message: wait for its
        virtual arrival, then pay the fixed receive overhead."""
        self.clock = max(self.clock, msg.arrival_time) + RECV_OVERHEAD

    def _note_recv(self, msg: Message) -> None:
        """Charge, trace and count one delivered message (shared by
        :meth:`recv` and :meth:`recv_expected`, so they report
        identically)."""
        t0 = self.clock
        self._charge_recv(msg)
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent("recv", self.rank, t0, self.clock, nbytes=msg.nbytes,
                           peer=msg.source, tag=msg.tag)
            )
        self.metrics.count("net.messages_recv")
        self.metrics.count("net.bytes_recv", msg.nbytes)
        self.metrics.observe("net.recv_wait", self.clock - t0)
        self.metrics.gauge_max("net.mailbox_depth", self._mailbox.pending_count())

    def recv_expected(
        self, sources: Iterable[int], tag: int
    ) -> dict[int, Message]:
        """Receive exactly one message on *tag* from each of *sources*
        and return them keyed by source rank.

        The known-pattern drain (:meth:`Mailbox.receive_bulk`): progress
        never stalls on a particular peer, and the **clock is charged in
        ascending virtual (arrival_time, source) order** — not the
        host-thread order the messages happened to be deposited in.  On
        deterministic networks this makes the receiver's clock
        bit-reproducible across runs and thread schedules; it is the
        receive pattern behind the executor
        primitives, rooted collectives, and the load-report drains (one
        message per known peer per phase).
        """
        sources = frozenset(sources)
        if self.rank in sources:
            raise CommunicationError(
                "recv_expected cannot expect a message from self"
            )
        received = self._mailbox.receive_bulk(
            sources, tag, timeout=self._comm.recv_timeout
        )
        for msg in sorted(
            received.values(), key=lambda m: (m.arrival_time, m.source)
        ):
            self._note_recv(msg)
        return received

    # ------------------------------------------------------------------ #
    # collectives (implemented in repro.net.collectives)
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """Synchronize all ranks; exit clocks equal the max entry clock."""
        t0 = self.clock
        self._synchronize()
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent("barrier", self.rank, t0, self.clock)
            )
        self.metrics.count("net.barriers")
        self.metrics.observe("net.barrier_wait", self.clock - t0)

    def _synchronize(self) -> None:
        """Wait for every rank, then leave at the latest entry clock plus
        the barrier overhead."""
        comm = self._comm
        comm._barrier.wait()
        self.clock = comm._barrier_max + BARRIER_OVERHEAD

    def bcast(self, payload: Any, *, tag: int = Tags.BCAST) -> Any:
        from repro.net.collectives import bcast

        return bcast(self, payload, tag=tag)

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        from repro.net.collectives import gather

        return gather(self, payload, root=root)

    def allgather(self, payload: Any) -> list[Any]:
        from repro.net.collectives import allgather

        return allgather(self, payload)

    def alltoallv(
        self,
        outgoing: dict[int, Any],
        recv_from: Iterable[int],
        *,
        tag: int = Tags.ALLTOALL,
    ) -> dict[int, Any]:
        from repro.net.collectives import alltoallv

        return alltoallv(self, outgoing, recv_from, tag=tag)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    @property
    def trace(self) -> TraceLog:
        return self._comm.trace

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster specification this rank runs on (replicated
        knowledge: every rank may consult speeds, loads, membership)."""
        return self._comm.cluster

    @property
    def network(self) -> NetworkModel:
        """The analytic network model (replicated pricing knowledge: the
        load-balancing strategy estimates remap cost through it)."""
        return self._comm.network

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(rank={self.rank}, size={self.size}, "
            f"clock={self.clock:.6f})"
        )
