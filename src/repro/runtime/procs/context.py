"""Real-process rank contexts: :class:`RankContext` over sockets.

There is one rank-side surface, :class:`repro.net.comm.RankContext`, and
it holds the one body of every operation: ``send``, ``multicast``,
``compute``, ``barrier``, the receives (exact ``(source, tag)`` channels)
and the collectives, with their checks, trace events and counts.
:class:`RealRankContext` subclasses it and supplies only how bytes and
clocks move: the ``clock`` and the private primitives ``_post`` (one
frame per destination), ``_advance`` and ``_charge_recv`` (latch) and
``_synchronize`` (:meth:`RealRankContext.align_clocks`).  A message is
counted by ``payload_nbytes``, the size the sim world's network model
prices, on both sides and in both worlds.

One :class:`RealCommunicator` lives in each worker OS process.  It owns the
non-blocking peer sockets, one :class:`~repro.net.framing.FrameReader` per
peer, the rank's :class:`~repro.net.mailbox.Mailbox` (the same per-channel
FIFO guarantee as the sim world) and the rank's **latched wall clock**.
The worker has one thread, and it progresses its own sockets:

* a receive that finds its channel empty runs the mailbox's blocked-wait
  step, which here is :meth:`RealCommunicator._progress` — ``poll`` over
  the open peer streams, read what is there, deposit each complete frame —
  instead of waiting for another thread to deposit;
* a send writes each frame with one ``sendmsg``; while the peer's socket is
  full it keeps reading incoming frames, so ranks that all send large
  messages before receiving cannot deadlock, and a frame still unsent
  ``recv_timeout`` after its first ``sendmsg`` raises
  :class:`~repro.errors.CommunicationError` naming the destination.

Latched wall clock
------------------
The adaptive runtime makes *replicated* collective decisions: every rank
evaluates the same predicate (checkpoint due? membership change? remap
profitable?) on inputs that must be identical, or the SPMD protocol
deadlocks.  Several of those inputs are reads of ``ctx.clock`` taken right
after a barrier.  A naive ``time.monotonic()`` clock would return a
slightly different value on every rank and desynchronize the decisions.

Instead, ``ctx.clock`` is a *stored* value that advances in two ways:

* every communication/compute operation but a self-send (which never
  leaves the process) latches it forward to the rank's
  current wall time (``max`` keeps it monotonic), so spans measured as
  ``ctx.clock - t0`` reflect real elapsed time, and a rank's flat trace
  events tile its timeline (each starts at the clock the previous one
  latched); and
* ``barrier`` runs an explicit max-agreement round
  (a dissemination exchange of entry clocks, ``ceil(log2 p)`` steps):
  every rank **sets** its clock to the same maximum ``M`` and re-bases
  its wall offset.

Reads between operations therefore return a stable, rank-agreed value at
every barrier boundary — exactly the property the sim world's virtual
clocks provide — while still measuring real wall time between barriers.
``compute`` only latches (the host already did the work for
real); modeled virtual costs are never added to the real clock.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import select
import socket
import time
from typing import Any, Sequence

from repro.errors import CommunicationError, MailboxClosedError
from repro.net.cluster import ClusterSpec
from repro.net.comm import RankContext
from repro.net.framing import (
    KIND_SHUTDOWN,
    Frame,
    FrameReader,
    decode_payload,
    encode_payload,
    frame_parts,
)
from repro.net.mailbox import Mailbox
from repro.net.message import Message, Tags, payload_nbytes
from repro.net.trace import TraceLog
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
        self.mailbox = Mailbox(rank, block=self._progress)
        self._peers = dict(peers)
        self._t0 = time.perf_counter()
        self._closing = False
        self._clean_peers: set[int] = set()
        #: Peers whose outgoing stream stopped inside a frame.
        self._broken: set[int] = set()
        self._readers = {peer: FrameReader() for peer in self._peers}
        #: fd -> peer for every peer whose incoming stream is still open.
        self._reading: dict[int, int] = {}
        self._poll = select.poll()
        for peer, sock in self._peers.items():
            sock.setblocking(False)
            self._reading[sock.fileno()] = peer
            self._poll.register(sock, select.POLLIN)

    def wall(self) -> float:
        """Raw wall seconds since this communicator was created."""
        return time.perf_counter() - self._t0

    # -------------------------------------------------------------- #
    # receive side: the progress routine
    # -------------------------------------------------------------- #

    def _progress(self, timeout: float | None) -> bool:
        """Read every peer stream that has bytes until a frame is
        delivered (or a stream ends); False if *timeout* passes first.

        This is the mailbox's blocked-wait step: the waiting thread is the
        one that reads the sockets and deposits what they carry.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._pump(self._poll_ms(deadline)):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False

    @staticmethod
    def _poll_ms(deadline: float | None) -> int:
        if deadline is None:
            return -1
        return max(0, math.ceil((deadline - time.monotonic()) * 1000.0))

    def _pump(self, wait_ms: int) -> bool:
        """One ``poll`` over the open peer streams, then read each ready
        one; True if any frame was delivered or any stream ended."""
        progressed = False
        for fd, _events in self._poll.poll(wait_ms):
            peer = self._reading.get(fd)
            if peer is not None and self._read(peer):
                progressed = True
        return progressed

    def _read(self, peer: int) -> bool:
        """Read what *peer*'s socket holds without blocking."""
        sock = self._peers[peer]
        fd = sock.fileno()
        reader = self._readers[peer]
        progressed = False
        try:
            while True:
                buf = reader.buffer()
                try:
                    n = sock.recv_into(buf)
                except BlockingIOError:
                    return progressed
                if n == 0:
                    reader.eof()
                    self._end_stream(peer, failed=peer not in self._clean_peers)
                    return True
                for frame in reader.advance(n):
                    self._deliver(peer, frame)
                    progressed = True
                if n < len(buf) or fd not in self._reading:
                    return progressed
        except (OSError, CommunicationError):
            # A reset, a desync or a truncated frame: this stream is over.
            self._end_stream(peer, failed=True)
            return True

    def _deliver(self, peer: int, frame: Frame) -> None:
        if frame.kind == KIND_SHUTDOWN:
            if pickle.loads(frame.meta):
                self._clean_peers.add(peer)  # keep reading until EOF
            else:
                self._end_stream(peer, failed=True)  # error cascade
            return
        now = self.wall()
        payload = decode_payload(frame.kind, frame.meta, frame.body)
        msg = Message(
            frame.source,
            self.rank,
            frame.tag,
            payload,
            payload_nbytes(payload),
            send_time=now,
            arrival_time=now,
        )
        try:
            self.mailbox.deposit(msg)
        except MailboxClosedError:
            pass  # our own rank already failed; drop the message

    def _end_stream(self, peer: int, *, failed: bool) -> None:
        """Stop reading *peer*; a failed stream closes the mailbox, like
        the sim world's ``Communicator.shutdown``."""
        fd = self._peers[peer].fileno()
        if self._reading.pop(fd, None) is not None:
            self._poll.unregister(fd)
        if failed and not self._closing:
            self.mailbox.close()

    # -------------------------------------------------------------- #
    # send side
    # -------------------------------------------------------------- #

    def send_payload(self, dests: Sequence[int], tag: int, payload: Any) -> None:
        """Encode *payload* once and write one frame of it to each of
        *dests* (never self), in order."""
        kind, meta, body = encode_payload(payload)
        for dest in dests:
            self._send_frame(dest, tag, kind, meta, body, self.recv_timeout)

    def _send_frame(
        self, dest: int, tag: int, kind: int, meta: bytes, body: Any,
        patience: float,
    ) -> None:
        """Write one frame as one ``sendmsg``.  While *dest*'s socket is
        full, keep reading incoming frames (two ranks that both send large
        messages before receiving cannot deadlock); raise if the frame is
        not all out *patience* seconds after the first attempt.  One
        deadline per frame: a stopped peer whose kernel still accepts a
        chunk now and then cannot stretch it."""
        sock = self._peers.get(dest)
        if sock is None or dest in self._broken:
            raise CommunicationError(
                f"rank {self.rank}: no socket to rank {dest}"
            )
        parts = frame_parts(self.rank, tag, kind, meta, body)
        total = sum(map(len, parts))
        left = total
        deadline = time.monotonic() + patience
        fd = sock.fileno()
        try:
            while True:
                try:
                    sent = sock.sendmsg(parts)
                except BlockingIOError:
                    sent = 0
                if sent:
                    left -= sent
                    if not left:
                        return
                    parts = _consume(parts, sent)
                if time.monotonic() >= deadline:
                    self._broken.add(dest)
                    raise CommunicationError(
                        f"rank {self.rank}: send to rank {dest} (tag {tag}) "
                        f"not done within {patience}s ({left} of {total} "
                        f"byte(s) unsent); the peer is stopped or not "
                        f"reading — tune with --recv-timeout / "
                        f"REPRO_RECV_TIMEOUT"
                    )
                self._poll.register(
                    fd, select.POLLOUT
                    | (select.POLLIN if fd in self._reading else 0)
                )
                try:
                    self._pump(self._poll_ms(deadline))
                finally:
                    if fd in self._reading:
                        self._poll.register(fd, select.POLLIN)
                    else:
                        with contextlib.suppress(KeyError):
                            self._poll.unregister(fd)
        except OSError as exc:
            self._broken.add(dest)
            raise CommunicationError(
                f"rank {self.rank}: send to rank {dest} (tag {tag}) failed: "
                f"{exc}"
            ) from exc

    def close(self, *, clean: bool) -> None:
        """Announce departure to all peers and tear the sockets down.

        A clean close lets peers keep running (their receives of anything
        still in flight succeed; a receive that *waits* on us afterwards
        hits their ``recv_timeout``).  An error close makes every peer's
        mailbox close, waking blocked receivers with
        :class:`~repro.errors.MailboxClosedError` — the same failure
        cascade the sim world's ``Communicator.shutdown`` produces.  Each
        incoming stream is then drained to its EOF (unread bytes would
        turn our close into a reset that can discard what the peer has
        not read yet), within one deadline.
        """
        self._closing = True
        deadline = time.monotonic() + (5.0 if clean else 2.0)
        meta = pickle.dumps(bool(clean))
        for peer, sock in self._peers.items():
            if peer in self._broken:
                # Mid-frame: the peer sees a truncated stream.  It is not
                # reading us, so its EOF is not worth waiting for.
                self._end_stream(peer, failed=False)
                continue
            try:
                self._send_frame(
                    peer, 0, KIND_SHUTDOWN, meta, b"",
                    max(0.0, deadline - time.monotonic()),
                )
                sock.shutdown(socket.SHUT_WR)
            except (OSError, CommunicationError):
                pass
        while self._reading and time.monotonic() < deadline:
            self._pump(self._poll_ms(deadline))
        for sock in self._peers.values():
            try:
                sock.close()
            except OSError:
                pass


def _consume(parts: Sequence[Any], n: int) -> list[Any]:
    """The buffers of *parts* left after *n* bytes went out."""
    for i, p in enumerate(parts):
        if n < len(p):
            return [memoryview(p)[n:], *parts[i + 1:]]
        n -= len(p)
    return []


class RealRankContext(RankContext):
    """:class:`~repro.net.comm.RankContext` over real sockets and a latched
    wall clock: every public operation is the inherited one, so rank
    functions, the executor and the adaptive session run unmodified in
    either world and trace and count the same.
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

    def _advance(self, work_seconds: float) -> None:
        """The computation already ran on the host: latch its duration."""
        self._latch()

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #

    def _post(
        self, dests: Sequence[int], payload: Any, tag: int, nbytes: int
    ) -> None:
        """One frame per destination (loopback TCP has no hardware
        multicast), then latch."""
        self._comm.send_payload(dests, tag, payload)
        self._latch()

    def _charge_recv(self, msg: Message) -> None:
        """The wait already happened on the host: latch it."""
        self._latch()

    def align_clocks(self) -> None:
        """Every rank adopts the maximum of all ranks' clocks.

        A dissemination round: in step ``k`` rank ``r`` sends its running
        maximum of entry clocks to ``(r + 2**k) mod p`` and receives from
        ``(r - 2**k) mod p`` (tag ``Tags.BARRIER``), ``ceil(log2 p)`` steps
        in all — one exchange for two ranks.  Each step has its own source,
        so per-channel FIFO keeps back-to-back rounds from interleaving.
        The internal sends/receives bypass ``send`` (no metric counts) and
        the latch, so the adopted value is ``>=`` every rank's clock,
        keeping the clock monotonic *and* rank-agreed.

        The round is what :meth:`barrier` waits on; called alone it is not
        a program barrier — no count, no trace event, no wait — so a
        worker aligns its clock epoch with it before the rank function
        runs, and ``net.barriers`` counts what the program asked for in
        either world.
        """
        self._latch()
        comm = self._comm
        agreed = self._clock
        step = 1
        while step < self.size:
            comm.send_payload(
                ((self.rank + step) % self.size,), Tags.BARRIER, agreed
            )
            msg = self._mailbox.receive(
                (self.rank - step) % self.size, Tags.BARRIER,
                timeout=comm.recv_timeout,
            )
            agreed = max(agreed, float(msg.payload))
            step *= 2
        self._adopt(agreed)

    #: The barrier itself: all ranks leave with **identical** clocks.
    _synchronize = align_clocks
