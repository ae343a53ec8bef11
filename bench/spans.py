"""Benchmark-owned spans: recorded around the calls into each layer.

Spans live in memory while the traced repetition runs and are written out
once, at the end (:func:`write_trace`).  A span is (name, rank, rep, start,
end, parent): ``rank`` is -1 for the driver, ``rep`` tells the repetitions
of one trace apart (the jobs of ``serve-stream``), ``parent`` is the index
of the enclosing span in the same list or -1.  Clocks are
``time.perf_counter()`` host seconds, which Linux shares between the
processes of the real world.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`); children may overlap
each other — the rank bodies under one ``run_spmd`` span do.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

__all__ = ["Span", "SpanRecorder", "self_times", "layer_seconds", "write_trace"]


@dataclass
class Span:
    name: str
    rank: int
    rep: int
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """The span list of one thread of control (the driver, or one rank)."""

    def __init__(self, rank: int = -1):
        self.rank = rank
        self.rep = 0
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        now = time.perf_counter()
        span = Span(name, self.rank, self.rep, now, now, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def adopt(self, spans: Sequence[Span], parent: int) -> None:
        """Append another recorder's *spans* (a rank's, returned with its
        result) below span *parent*, stamped with the current ``rep``."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                Span(
                    s.name, s.rank, self.rep, s.start, s.end,
                    parent if s.parent < 0 else base + s.parent,
                )
            )


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - _covered(s.start, s.end, children.get(i, []))
        for i, s in enumerate(spans)
    ]


def layer_seconds(spans: Sequence[Span]) -> dict[str, float]:
    """Self time per span name: the driver's spans summed, plus the ranks'
    spans averaged over the ranks of their rep.

    The mean, not the maximum: rank bodies synchronise at a barrier every
    iteration, so they are equally long and the mean per layer adds up to
    one body, whereas the maximum picks a different rank per layer (the
    slowest sweeper waits shortest at the barrier) and over-adds.
    For the same reason a driver span around rank bodies (the
    ``run_spmd`` call) is charged its duration minus the *mean* body, so
    a rank's wait for its thread or process to start counts as launch.
    """
    own = self_times(spans)
    ranks: dict[int, set[int]] = {}
    bodies: dict[int, list[float]] = {}
    for s in spans:
        if s.rank >= 0:
            ranks.setdefault(s.rep, set()).add(s.rank)
            if s.parent >= 0 and spans[s.parent].rank < 0:
                bodies.setdefault(s.parent, []).append(s.duration)
    for parent, durations in bodies.items():
        own[parent] = spans[parent].duration - sum(durations) / len(durations)
    out: dict[str, float] = {}
    for s, seconds in zip(spans, own):
        if s.rank >= 0:
            seconds /= len(ranks[s.rep])
        out[s.name] = out.get(s.name, 0.0) + seconds
    return out


def write_trace(path: str, spans: Sequence[Span], meta: dict[str, Any]) -> None:
    """One JSON document: ``meta`` plus every span with its self time,
    times in seconds relative to the earliest span."""
    origin = min((s.start for s in spans), default=0.0)
    rows = [
        {
            "id": i,
            "name": s.name,
            "rank": s.rank,
            "rep": s.rep,
            "parent": s.parent,
            "start_s": s.start - origin,
            "dur_s": s.duration,
            "self_s": own,
        }
        for i, (s, own) in enumerate(zip(spans, self_times(spans)))
    ]
    with open(path, "w") as fh:
        json.dump({"meta": meta, "spans": rows}, fh)
        fh.write("\n")
