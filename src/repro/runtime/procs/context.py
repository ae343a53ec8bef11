"""Real-process rank contexts: :class:`RankContext` over sockets.

There is one rank-side surface, :class:`repro.net.comm.RankContext`;
:class:`RealRankContext` subclasses it and overrides only the clock and
transport primitives (``clock``/``compute``, ``send``/
``multicast``, ``barrier`` and the per-message ``_charge_recv`` hook).
Receives (exact ``(source, tag)`` channels, as in the sim world) and
collectives are the inherited ones, running over this process's mailbox.

One :class:`RealCommunicator` lives in each worker OS process.  It owns the
peer sockets, one receiver thread per peer (depositing decoded frames into
the rank's :class:`~repro.net.mailbox.Mailbox`, which provides the same
per-channel FIFO guarantee as the sim world), and the
rank's **latched wall clock**.

Latched wall clock
------------------
The adaptive runtime makes *replicated* collective decisions: every rank
evaluates the same predicate (checkpoint due? membership change? remap
profitable?) on inputs that must be identical, or the SPMD protocol
deadlocks.  Several of those inputs are reads of ``ctx.clock`` taken right
after a barrier.  A naive ``time.monotonic()`` clock would return a
slightly different value on every rank and desynchronize the decisions.

Instead, ``ctx.clock`` is a *stored* value that advances in two ways:

* every communication/compute operation latches it forward to the rank's
  current wall time (``max`` keeps it monotonic), so spans measured as
  ``ctx.clock - t0`` reflect real elapsed time; and
* :meth:`RealRankContext.barrier` runs an explicit max-agreement round
  (gather entry clocks to rank 0, broadcast the max ``M``): every rank
  **sets** its clock to the same ``M`` and re-bases its wall offset.

Reads between operations therefore return a stable, rank-agreed value at
every barrier boundary — exactly the property the sim world's virtual
clocks provide — while still measuring real wall time between barriers.
``compute`` only latches (the host already did the work for
real); modeled virtual costs are never added to the real clock.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Any, Sequence

from repro.errors import CommunicationError, MailboxClosedError
from repro.net.cluster import ClusterSpec
from repro.net.comm import RankContext
from repro.net.framing import (
    KIND_SHUTDOWN,
    decode_payload,
    encode_payload,
    recv_frame,
    send_frame,
)
from repro.net.mailbox import Mailbox
from repro.net.message import Message, Tags, payload_nbytes
from repro.net.trace import TraceEvent, TraceLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

__all__ = ["RealCommunicator", "RealRankContext"]


class RealCommunicator:
    """Per-process shared state for one real-world SPMD run.

    Exposes the attributes the inherited :class:`RankContext` methods
    read off the sim :class:`~repro.net.comm.Communicator` — ``cluster``,
    ``trace``, ``recv_timeout`` and ``network`` (the analytic pricing
    model behind the load-balancing strategy's profitability test).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        rank: int,
        peers: dict[int, socket.socket],
        *,
        recv_timeout: float,
        trace: bool = False,
        trace_capacity: int | None = None,
    ):
        self.cluster = cluster
        self.size = cluster.size
        self.rank = rank
        #: Analytic network model instance: real sends do not consult it,
        #: but replicated cost estimates (remap/checkpoint pricing inside
        #: the adaptive strategy) do, exactly as in the sim world.
        self.network = cluster.make_network()
        self.recv_timeout = recv_timeout
        #: Per-process event log over the latched wall clock; the worker
        #: ships its events back to the parent on clean shutdown.
        self.trace = TraceLog(enabled=trace, capacity=trace_capacity)
        self.mailbox = Mailbox(rank)
        self._peers = dict(peers)
        self._t0 = time.perf_counter()
        self._closing = False
        self._clean_peers: set[int] = set()
        self._readers = [
            threading.Thread(
                target=self._reader,
                args=(peer, sock),
                name=f"repro-real-{rank}-recv-{peer}",
                daemon=True,
            )
            for peer, sock in self._peers.items()
        ]
        for t in self._readers:
            t.start()

    # -------------------------------------------------------------- #
    # wire I/O
    # -------------------------------------------------------------- #

    def wall(self) -> float:
        """Raw wall seconds since this communicator was created."""
        return time.perf_counter() - self._t0

    def send_payload(self, dest: int, tag: int, payload: Any) -> int:
        """Encode and write one payload frame to *dest* (never self);
        returns the wire size in bytes."""
        sock = self._peers.get(dest)
        if sock is None:
            raise CommunicationError(
                f"rank {self.rank}: no socket to rank {dest}"
            )
        kind, meta, body = encode_payload(payload)
        try:
            return send_frame(sock, self.rank, tag, kind, meta, body)
        except OSError as exc:
            raise CommunicationError(
                f"rank {self.rank}: send to rank {dest} (tag {tag}) failed: "
                f"{exc}"
            ) from exc

    def _reader(self, peer: int, sock: socket.socket) -> None:
        """Receiver loop: one per peer socket, deposits into the mailbox."""
        try:
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    # EOF: clean only if the peer announced it first.
                    if peer not in self._clean_peers and not self._closing:
                        self.mailbox.close()
                    return
                if frame.kind == KIND_SHUTDOWN:
                    clean = bool(pickle.loads(frame.meta))
                    if clean:
                        self._clean_peers.add(peer)
                        continue  # keep draining until EOF
                    self.mailbox.close()  # error cascade, like sim shutdown
                    return
                now = self.wall()
                msg = Message(
                    frame.source,
                    self.rank,
                    frame.tag,
                    decode_payload(frame.kind, frame.meta, frame.body),
                    frame.nbytes,
                    send_time=now,
                    arrival_time=now,
                )
                self.mailbox.deposit(msg)
        except MailboxClosedError:
            return  # our own rank already failed; drop the stream
        except Exception:
            if not self._closing:
                self.mailbox.close()

    def close(self, *, clean: bool) -> None:
        """Announce departure to all peers and tear the sockets down.

        A clean close lets peers keep running (their receives of anything
        still in flight succeed; a receive that *waits* on us afterwards
        hits their ``recv_timeout``).  An error close makes every peer's
        mailbox close, waking blocked receivers with
        :class:`~repro.errors.MailboxClosedError` — the same failure
        cascade the sim world's ``Communicator.shutdown`` produces.
        """
        self._closing = True
        meta = pickle.dumps(bool(clean))
        for peer, sock in self._peers.items():
            try:
                send_frame(sock, self.rank, 0, KIND_SHUTDOWN, meta, b"")
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        deadline = time.monotonic() + (5.0 if clean else 2.0)
        for t in self._readers:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        for sock in self._peers.values():
            try:
                sock.close()
            except OSError:
                pass


class RealRankContext(RankContext):
    """:class:`~repro.net.comm.RankContext` with the clock and transport
    primitives overridden: real sockets and a latched wall clock.

    Everything else — receives, collectives — is inherited, so rank
    functions, the executor, and the adaptive session run unmodified in
    either world.
    """

    def __init__(self, comm: RealCommunicator):
        self._comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.proc = comm.cluster.processors[comm.rank]
        self._mailbox = comm.mailbox
        self._clock = 0.0
        self._offset = 0.0
        self.metrics = MetricsRegistry()
        #: Spans over the latched wall clock: the same kinds and nesting
        #: as the sim world, so sim-vs-real span structure is comparable.
        self.tracer = Tracer(comm.trace, comm.rank, clock_fn=self._now)

    # -------------------------------------------------------------- #
    # latched wall clock
    # -------------------------------------------------------------- #

    def _now(self) -> float:
        return self._comm.wall() + self._offset

    def _latch(self) -> None:
        now = self._now()
        if now > self._clock:
            self._clock = now

    def _adopt(self, agreed: float) -> None:
        """Set the clock to a barrier-agreed value and re-base the offset."""
        self._clock = max(self._clock, float(agreed))
        self._offset = self._clock - self._comm.wall()

    @property
    def clock(self) -> float:
        """Latched wall time in seconds (see module docstring)."""
        return self._clock

    def compute(self, work_seconds: float, *, label: str = "") -> None:
        """Latch the clock forward to now: the computation already ran on
        the host, so its real duration is captured by the latch."""
        if work_seconds < 0:
            raise ValueError(f"work_seconds must be >= 0, got {work_seconds}")
        t0 = self._clock
        self._latch()
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent("compute", self.rank, t0, self._clock, label=label)
            )

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #

    def send(self, dest: int, payload: Any, tag: int = Tags.USER_BASE) -> None:
        if not (0 <= dest < self.size):
            raise CommunicationError(f"send to invalid rank {dest}")
        if dest == self.rank:
            self._latch()
            msg = Message(
                self.rank, dest, tag, payload, payload_nbytes(payload),
                send_time=self._clock, arrival_time=self._clock,
            )
            self._mailbox.deposit(msg)
            return
        t0 = self._now()
        nbytes = self._comm.send_payload(dest, tag, payload)
        self._latch()
        if self._comm.trace.enabled:
            self._comm.trace.record(
                TraceEvent("send", self.rank, t0, self._clock,
                           nbytes=nbytes, peer=dest, tag=tag)
            )
        self.metrics.count("net.messages_sent")
        self.metrics.count("net.bytes_sent", nbytes)

    def multicast(
        self, dests: Sequence[int], payload: Any, tag: int = Tags.USER_BASE
    ) -> None:
        """Sequential unicasts: loopback TCP has no hardware multicast."""
        for d in dests:
            if d != self.rank:
                self.send(d, payload, tag)

    def _charge_recv(self, msg: Message) -> None:
        """The wait already happened on the host: latch it."""
        self._latch()

    def barrier(self) -> None:
        """Max-agreement barrier: all ranks leave with **identical** clocks.

        Rank 0 collects every rank's entry clock (tag ``Tags.BARRIER``,
        received per-source so back-to-back barriers cannot interleave),
        takes the max — including its own wall time at the moment the last
        entry arrived, which is the true all-arrived instant — and
        broadcasts it.  The internal sends/receives deliberately bypass
        the latch so the adopted value is ``>=`` every rank's clock,
        keeping the clock monotonic *and* rank-agreed.
        """
        self._latch()
        t0 = self._clock
        self.metrics.count("net.barriers")
        if self.size == 1:
            return
        comm = self._comm
        if self.rank == 0:
            entries = [self._clock]
            for r in range(1, self.size):
                msg = self._mailbox.receive(
                    r, Tags.BARRIER, timeout=comm.recv_timeout
                )
                entries.append(float(msg.payload))
            agreed = max(max(entries), self._now())
            for r in range(1, self.size):
                comm.send_payload(r, Tags.BARRIER, agreed)
        else:
            comm.send_payload(0, Tags.BARRIER, self._clock)
            msg = self._mailbox.receive(
                0, Tags.BARRIER, timeout=comm.recv_timeout
            )
            agreed = float(msg.payload)
        self._adopt(agreed)
        if comm.trace.enabled:
            comm.trace.record(
                TraceEvent("barrier", self.rank, t0, self._clock)
            )
        self.metrics.observe("net.barrier_wait", max(self._clock - t0, 0.0))
