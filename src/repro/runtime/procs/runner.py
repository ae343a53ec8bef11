"""Spawn real OS processes and run a rank function on each.

This is the real-world half of :func:`repro.net.spmd.run_spmd`:
``run_real_spmd(cluster, fn, *args)`` executes ``fn(ctx, *args)`` on one
OS process per rank, connected pairwise by loopback TCP sockets, and
returns the same :class:`~repro.net.spmd.SPMDResult` shape (per-rank
return values and final clocks — wall seconds here, virtual in the sim).

Bootstrap protocol (parent <-> workers over ``multiprocessing.Pipe``):

1. each worker binds a listener on ``127.0.0.1:0`` and reports its port;
2. the parent broadcasts the full port list;
3. worker ``r`` dials every rank ``s < r`` (announcing its own rank in a
   4-byte hello) and accepts connections from every rank ``s > r`` —
   deadlock-free because listeners are bound before any port is reported,
   so a dial can complete before the acceptor reaches ``accept()``;
4. every worker makes its peer sockets non-blocking, aligns the latched
   clocks' epoch across ranks with one barrier round that the program's
   metrics and trace do not see, then calls the rank function.  A worker
   runs one thread: it progresses its own sockets whenever it sends or
   waits to receive (:mod:`repro.runtime.procs.context`).

The parent then waits on every pending result pipe and process sentinel
at once (``multiprocessing.connection.wait``) until each rank has
reported or exited.

Failure semantics mirror the sim runner: a worker that raises sends an
error-shutdown frame to its peers (their blocked receives wake with
:class:`~repro.errors.MailboxClosedError`), secondary mailbox-closed
errors are filtered, and the parent raises
:class:`~repro.errors.RankFailedError` with the primary exceptions.  A
worker that dies without reporting (killed, segfault) is surfaced as a
:class:`~repro.errors.CommunicationError` naming the rank and exit code;
once any rank has failed, a rank the OS reports stopped is killed and
named as unresponsive at once, and one that neither reports nor exits
within ``recv_timeout`` plus a fixed grace (stuck outside a receive) is
killed and named too.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import signal
import socket
import struct
import time
import traceback
from typing import Any, Callable

from repro.errors import (
    CommunicationError,
    ConfigurationError,
    MailboxClosedError,
    RankFailedError,
)
import logging

from repro.net.cluster import ClusterSpec
from repro.net.comm import resolve_recv_timeout
from repro.net.framing import decode_payload, encode_payload
from repro.net.trace import TraceLog
from repro.obs.logconf import configure_logging
from repro.runtime.procs.context import RealCommunicator, RealRankContext

_log = logging.getLogger("repro.procs")

__all__ = ["run_real_spmd"]

#: How long the parent waits for the socket-mesh bootstrap phase.
_BOOTSTRAP_TIMEOUT = 60.0
#: After a rank fails, how much longer than recv_timeout the parent waits
#: for each other rank that is not stopped to report before killing it as
#: unresponsive.
_FAILURE_GRACE = 5.0
_HELLO = struct.Struct("<i")


def _resolve_start_method(explicit: str | None) -> str:
    """Start method: explicit arg > ``REPRO_MP_START`` env > fork if
    available (fast; the cluster/graph are inherited, not pickled)."""
    method = explicit or os.environ.get("REPRO_MP_START")
    if method:
        if method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"multiprocessing start method {method!r} not available; "
                f"pick from {multiprocessing.get_all_start_methods()}"
            )
        return method
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _build_mesh(
    rank: int, size: int, listener: socket.socket, ports: list[int]
) -> dict[int, socket.socket]:
    """Connect this rank to every peer; returns peer -> socket."""
    peers: dict[int, socket.socket] = {}
    for s in range(rank):
        sock = socket.create_connection(
            ("127.0.0.1", ports[s]), timeout=_BOOTSTRAP_TIMEOUT
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(_HELLO.pack(rank))
        peers[s] = sock
    listener.settimeout(_BOOTSTRAP_TIMEOUT)
    for _ in range(size - 1 - rank):
        sock, _addr = listener.accept()
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello = b""
        while len(hello) < _HELLO.size:
            chunk = sock.recv(_HELLO.size - len(hello))
            if not chunk:
                raise CommunicationError(
                    f"rank {rank}: peer hung up during mesh handshake"
                )
            hello += chunk
        (peer,) = _HELLO.unpack(hello)
        if not (rank < peer < size):
            raise CommunicationError(
                f"rank {rank}: bad hello from alleged rank {peer}"
            )
        peers[peer] = sock
    listener.close()
    return peers


def _worker_main(
    rank: int,
    cluster: ClusterSpec,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    conn: Any,
    recv_timeout: float,
    trace: bool,
    trace_capacity: int | None,
) -> None:
    comm: RealCommunicator | None = None
    configure_logging(rank=rank)
    try:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(cluster.size)
        conn.send(("port", listener.getsockname()[1]))
        kind, ports = conn.recv()
        if kind != "ports":  # pragma: no cover - protocol invariant
            raise CommunicationError(f"unexpected control message {kind!r}")
        peers = _build_mesh(rank, cluster.size, listener, ports)
        comm = RealCommunicator(
            cluster, rank, peers, recv_timeout=recv_timeout,
            trace=trace, trace_capacity=trace_capacity,
        )
        ctx = RealRankContext(comm)
        ctx.align_clocks()
        value = fn(ctx, *args, **kwargs)
        # Snapshot the span buffer BEFORE the close (close discards the
        # communicator); ship it through the framing codec so the wire
        # format is the one the rest of the real world already speaks.
        blob = None
        if trace:
            kind_, meta, body = encode_payload(comm.trace.events())
            blob = (kind_, bytes(meta), bytes(body))
        comm.close(clean=True)
        comm = None
        conn.send(("ok", value, ctx.clock, blob))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        # Reported before the error close, whose drain can wait seconds on
        # a peer that never sends its EOF (a stopped one): the parent kills
        # such a peer once it knows a rank failed.
        try:
            conn.send(("error", exc))
        except Exception:
            conn.send(
                ("error-text",
                 f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )
        if comm is not None:
            comm.close(clean=False)
    finally:
        conn.close()


def _decode_error(msg: tuple) -> BaseException:
    if msg[0] == "error":
        return msg[1]
    return CommunicationError(f"remote rank error: {msg[1]}")


def _died_without_reporting(
    rank: int, proc: multiprocessing.process.BaseProcess
) -> CommunicationError:
    """The diagnosis for a worker whose pipe closed with no result on it."""
    proc.join(timeout=5.0)  # the pipe's EOF can precede the exit status
    code = proc.exitcode
    detail = f"exit code {code}"
    if code is not None and code < 0:
        try:
            detail += f", killed by {signal.Signals(-code).name}"
        except ValueError:  # a signal number this platform does not name
            detail += f", killed by signal {-code}"
    return CommunicationError(
        f"rank {rank}: worker process died without reporting ({detail})"
    )


def _process_state(proc: multiprocessing.process.BaseProcess) -> str:
    """``"stopped"`` if the OS reports *proc* stopped (Linux ``/proc``),
    otherwise ``"alive"``."""
    try:
        with open(f"/proc/{proc.pid}/stat") as f:
            state = f.read().rpartition(")")[2].split()[0]
    except (OSError, IndexError):
        return "alive"
    return "stopped" if state in ("T", "t") else "alive"


def run_real_spmd(
    cluster: ClusterSpec,
    fn: Callable[..., Any],
    *args: Any,
    trace: bool = False,
    trace_capacity: int | None = None,
    recv_timeout: float | None = None,
    start_method: str | None = None,
    **kwargs: Any,
):
    """Execute ``fn(ctx, *args, **kwargs)`` on one OS process per rank.

    Returns a :class:`~repro.net.spmd.SPMDResult` whose ``clocks`` are
    barrier-aligned wall seconds.  ``fn`` and all arguments must be
    picklable under the ``spawn`` start method; under ``fork`` (the
    default where available) they are inherited.
    """
    from repro.net.spmd import SPMDResult  # local import: avoid a cycle

    timeout = resolve_recv_timeout(recv_timeout)
    size = cluster.size
    mp = multiprocessing.get_context(_resolve_start_method(start_method))
    conns = []
    procs = []
    try:
        for r in range(size):
            parent_conn, child_conn = mp.Pipe()
            p = mp.Process(
                target=_worker_main,
                args=(r, cluster, fn, args, kwargs, child_conn, timeout,
                      trace, trace_capacity),
                name=f"repro-rank-{r}",
                daemon=True,
            )
            p.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(p)

        # Phase 1: collect listener ports, broadcast the full list.
        ports: list[int] = [0] * size
        deadline = time.monotonic() + _BOOTSTRAP_TIMEOUT
        for r in range(size):
            if not conns[r].poll(max(0.0, deadline - time.monotonic())):
                raise CommunicationError(
                    f"rank {r}: socket bootstrap timed out after "
                    f"{_BOOTSTRAP_TIMEOUT}s"
                )
            kind, port = conns[r].recv()
            if kind != "port":
                raise CommunicationError(
                    f"rank {r}: unexpected control message {kind!r}"
                )
            ports[r] = port
        for r in range(size):
            conns[r].send(("ports", ports))

        # Phase 2: collect results, waiting on every pending pipe and
        # process sentinel at once.  Workers self-police deadlocks via
        # recv_timeout; once one rank has failed, every wake kills and
        # names each pending peer the OS reports stopped, and after
        # recv_timeout + _FAILURE_GRACE every pending peer (stuck outside
        # any receive).
        values: list[Any] = [None] * size
        clocks: list[float] = [0.0] * size
        blobs: list[tuple | None] = [None] * size
        failures: dict[int, BaseException] = {}
        first_failure: tuple[int, float] | None = None  # (rank, when)
        pending = set(range(size))
        while pending:
            wait_s = None
            if first_failure is not None:
                wait_s = max(
                    0.0,
                    first_failure[1] + timeout + _FAILURE_GRACE
                    - time.monotonic(),
                )
            ready = set(mp_connection.wait(
                [conns[r] for r in pending]
                + [procs[r].sentinel for r in pending],
                timeout=wait_s,
            ))
            for r in sorted(pending):
                if conns[r] in ready:
                    try:
                        msg = conns[r].recv()
                    except EOFError:  # the pipe closed with no result on it
                        failures[r] = _died_without_reporting(r, procs[r])
                    except Exception as exc:
                        failures[r] = CommunicationError(
                            f"rank {r}: undecodable result from worker: {exc}"
                        )
                    else:
                        if msg[0] == "ok":
                            values[r], clocks[r] = msg[1], msg[2]
                            blobs[r] = msg[3]
                        else:
                            failures[r] = _decode_error(msg)
                    pending.discard(r)
                elif procs[r].sentinel in ready:
                    failures[r] = _died_without_reporting(r, procs[r])
                    pending.discard(r)
            if failures and first_failure is None:
                first_failure = (min(failures), time.monotonic())
            if first_failure is not None and pending:
                waited = time.monotonic() - first_failure[1]
                late = waited >= timeout + _FAILURE_GRACE
                for r in sorted(pending):
                    state = _process_state(procs[r])
                    if not late and state != "stopped":
                        continue
                    procs[r].kill()
                    procs[r].join(timeout=5.0)
                    failures[r] = CommunicationError(
                        f"rank {r}: unresponsive for {waited:.1f} s after "
                        f"rank {first_failure[0]} failed (process {state})"
                    )
                    pending.discard(r)
    finally:
        for p in procs:
            p.join(timeout=10.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
            if p.is_alive():  # SIGTERM is not delivered to a stopped process
                p.kill()
                p.join(timeout=5.0)
        for c in conns:
            c.close()

    if failures:
        primary = {
            r: e
            for r, e in failures.items()
            if not isinstance(e, MailboxClosedError)
        }
        raise RankFailedError(primary or failures)

    merged = TraceLog(enabled=trace, capacity=trace_capacity)
    if trace:
        for r in range(size):
            if blobs[r] is None:
                continue
            kind, meta, body = blobs[r]
            merged.extend(decode_payload(kind, meta, body))
        _log.debug(
            "merged %d trace event(s) from %d worker(s)", len(merged), size
        )

    return SPMDResult(
        values=values,
        clocks=clocks,
        trace=merged,
        cluster=cluster,
    )
