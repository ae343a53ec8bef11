"""The SPMD runner: execute one function on every rank of a cluster.

This is the substitute for ``mpiexec -n p python app.py`` over P4: the same
program runs on all ranks (the paper's Sec. 2 SPMD model).  Two execution
worlds share this entry point:

``world="sim"`` (default)
    Each rank is an OS thread with its own
    :class:`~repro.net.comm.RankContext` and a **virtual** clock; results
    do not depend on the host machine.  The threads share one interpreter,
    so under the GIL they take turns rather than run at once: they give
    each rank its own blocking control flow, not host parallelism.  A
    small run's ranks can therefore share one CPU (:func:`one_cpu`),
    where a hand-off between them is cheaper.

``world="real"``
    Each rank is an OS process (:mod:`repro.runtime.procs`) connected to
    its peers by loopback sockets; clocks are barrier-synchronized wall
    seconds.  Trace capture records the same events and spans over the
    latched wall clock; each worker ships its buffer back to the parent
    on shutdown and the merged log lands in :attr:`SPMDResult.trace`.

Failure semantics: if any rank raises, all mailboxes are closed so blocked
peers wake with :class:`~repro.errors.MailboxClosedError`, and the runner
raises :class:`~repro.errors.RankFailedError` carrying the *original* per-rank
exceptions (secondary mailbox-closed errors are filtered out).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError, MailboxClosedError, RankFailedError
from repro.net.cluster import ClusterSpec
from repro.net.comm import Communicator, RankContext  # noqa: F401 - re-export
from repro.net.trace import TraceLog

__all__ = ["WORLDS", "SPMDResult", "one_cpu", "run_spmd"]

#: Supported execution worlds.
WORLDS = ("sim", "real")


def _check_world(world: str) -> str:
    if world not in WORLDS:
        raise ConfigurationError(
            f"unknown execution world {world!r}; pick from {WORLDS}"
        )
    return world


@contextmanager
def one_cpu(enabled: bool = True) -> Iterator[None]:
    """Pin the calling thread to one CPU of its mask for the block.

    Threads started inside the block inherit the pin, so the rank threads
    of a sim-world run started here hand the GIL to each other on one
    core instead of waking a thread on another.  The exact previous mask
    is restored on exit, also when the block raises.  A no-op when
    *enabled* is false, where ``os.sched_setaffinity`` does not exist,
    and when the mask already holds a single CPU.
    """
    mask = (
        os.sched_getaffinity(0)
        if enabled and hasattr(os, "sched_setaffinity")
        else set()
    )
    if len(mask) < 2:
        yield
        return
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@dataclass
class SPMDResult:
    """Outcome of one SPMD run.

    ``clocks`` are virtual seconds in the sim world and barrier-aligned
    wall seconds in the real world.
    """

    values: list[Any]
    clocks: list[float]
    trace: TraceLog
    cluster: ClusterSpec

    @property
    def makespan(self) -> float:
        """Parallel execution time: the max final rank clock.

        Empty or negative/non-finite clocks raise
        :class:`~repro.errors.ConfigurationError` instead of silently
        reporting a makespan.
        """
        if not self.clocks:
            raise ConfigurationError(
                "makespan is undefined for a run with no ranks"
            )
        bad = [c for c in self.clocks if not np.isfinite(c) or c < 0]
        if bad:
            raise ConfigurationError(
                f"makespan is undefined: degenerate final clocks {bad} "
                f"(clocks must be finite and >= 0)"
            )
        return max(self.clocks)


def run_spmd(
    cluster: ClusterSpec,
    fn: Callable[..., Any],
    *args: Any,
    trace: bool = False,
    trace_capacity: int | None = None,
    recv_timeout: float | None = None,
    world: str = "sim",
    **kwargs: Any,
) -> SPMDResult:
    """Execute ``fn(ctx, *args, **kwargs)`` on every rank of *cluster*.

    *args*/*kwargs* are shared across ranks (rank-specific data should
    be derived from ``ctx.rank``, as in any SPMD program).  Returns the
    per-rank return values and final clocks.  ``recv_timeout=None``
    resolves through ``REPRO_RECV_TIMEOUT`` and then
    :data:`~repro.net.comm.DEFAULT_RECV_TIMEOUT`.
    """
    if _check_world(world) == "real":
        from repro.runtime.procs import run_real_spmd

        return run_real_spmd(
            cluster, fn, *args,
            trace=trace, trace_capacity=trace_capacity,
            recv_timeout=recv_timeout, **kwargs,
        )

    comm = Communicator(
        cluster, trace=trace, trace_capacity=trace_capacity,
        recv_timeout=recv_timeout,
    )
    size = comm.size
    values: list[Any] = [None] * size
    failures: dict[int, BaseException] = {}
    failure_lock = threading.Lock()

    def worker(rank: int) -> None:
        ctx = comm.context(rank)
        try:
            values[rank] = fn(ctx, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            with failure_lock:
                failures[rank] = exc
            comm.shutdown()  # wake peers blocked in recv/barrier
            comm._barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
        for rank in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if failures:
        primary = {
            r: e
            for r, e in failures.items()
            if not isinstance(e, (MailboxClosedError, threading.BrokenBarrierError))
        }
        raise RankFailedError(primary or failures)

    return SPMDResult(
        values=values,
        clocks=list(comm.clocks),
        trace=comm.trace,
        cluster=cluster,
    )
