"""Event tracing for the simulated cluster.

A :class:`TraceLog` records sends, receives, barriers, compute blocks, and
load-balancing events with their virtual time spans.  Benchmarks use it to
count messages and bytes (e.g. Fig. 5's "number of messages needed to
redistribute the data"); tests use it to assert communication patterns
(e.g. schedule_sort1 builds its schedule with zero messages).

Since the observability layer (:mod:`repro.obs`) the same log also holds
*hierarchical spans*: events with ``span_id >= 0`` produced by a
:class:`~repro.obs.Tracer`, nested through ``parent_id`` and carrying a
wall-clock interval next to the virtual one.  Spans are a strict superset
of the original flat events — every per-kind consumer (the budget of
:func:`repro.obs.summarize`, the Fig. 5 message counts) filters by
``kind`` and never sees them.

Recording NEVER reads or advances any rank clock: enabling a trace leaves
virtual time, final values, and collective counters bit-identical (the
``obs-neutral`` fuzzer invariant pins this).
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = ["TraceEvent", "TraceLog"]

_log = logging.getLogger("repro.net.trace")


@dataclass(frozen=True)
class TraceEvent:
    """One traced event.

    ``kind`` is one of ``send``, ``recv``, ``multicast``, ``compute``,
    ``barrier``, ``collective`` for flat comm/compute events, or a span
    kind (``program``, ``epoch``, ``inspector``, ``executor``,
    ``lb-check``, ``remap``, ``checkpoint``, ``recovery``,
    ``membership-poll``, ``admit``, ``job``) when ``span_id >= 0``.

    ``t_start``/``t_end`` are in the world's primary clock (virtual
    seconds in the sim world, latched wall seconds in the real world);
    spans additionally carry ``wall_start``/``wall_end`` host seconds.
    ``seq`` is a per-rank record counter stamped by :meth:`TraceLog.record`
    — program order per rank, and a deterministic sort key ``(rank, seq)``
    for exports (the global append order across ranks is not
    deterministic under thread scheduling).
    """

    kind: str
    rank: int
    t_start: float
    t_end: float
    nbytes: int = 0
    peer: int = -1
    tag: int = -1
    label: str = ""
    span_id: int = -1
    parent_id: int = -1
    wall_start: float = -1.0
    wall_end: float = -1.0
    seq: int = -1


class TraceLog:
    """Thread-safe append-only event log (one per SPMD run).

    ``capacity`` bounds memory: when set, the log keeps the *newest*
    ``capacity`` events (ring buffer), counts evictions in
    :attr:`dropped_events`, and warns once — tracing a scale-huge run
    cannot OOM the host.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be >= 1 (or None for unbounded), "
                f"got {capacity}"
            )
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: Deque[TraceEvent] = deque()
        self._seq: dict[int, int] = {}
        self._dropped = 0
        self._warned = False

    @property
    def dropped_events(self) -> int:
        """Events evicted by the ring buffer (0 when unbounded)."""
        with self._lock:
            return self._dropped

    def record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        with self._lock:
            if event.seq < 0:
                # Stamp per-rank program order.  The dataclass is frozen
                # so downstream code cannot mutate events; the log itself
                # is the single writer of ``seq``.
                seq = self._seq.get(event.rank, 0)
                object.__setattr__(event, "seq", seq)
                self._seq[event.rank] = seq + 1
            else:
                # Pre-stamped event (merged from a worker's log): keep its
                # local order, but keep this log's counters ahead of it so
                # later direct records still sort after it.
                self._seq[event.rank] = max(
                    self._seq.get(event.rank, 0), event.seq + 1
                )
            if self.capacity is not None and len(self._events) >= self.capacity:
                self._events.popleft()
                self._dropped += 1
                if not self._warned:
                    self._warned = True
                    _log.warning(
                        "trace buffer full (capacity=%d): oldest events are "
                        "being dropped; raise --trace-capacity to keep more",
                        self.capacity,
                    )
            self._events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge pre-recorded events (e.g. shipped from a real-world
        worker process); pre-stamped ``seq`` values are preserved."""
        for event in events:
            self.record(event)

    def events(self, kind: str | None = None, rank: int | None = None) -> list[TraceEvent]:
        """Snapshot of events, optionally filtered by kind and/or rank."""
        with self._lock:
            evs = list(self._events)
        if kind is not None:
            evs = [e for e in evs if e.kind == kind]
        if rank is not None:
            evs = [e for e in evs if e.rank == rank]
        return evs

    def spans(self, kind: str | None = None, rank: int | None = None) -> list[TraceEvent]:
        """Snapshot of span events only (``span_id >= 0``)."""
        return [e for e in self.events(kind=kind, rank=rank) if e.span_id >= 0]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
