"""Hierarchical spans over a :class:`~repro.net.trace.TraceLog`.

A :class:`Tracer` is a per-rank handle that opens nested phase spans
(program → epoch → inspector / executor / lb-check / remap / checkpoint /
recovery / membership-poll) and records each as a
:class:`~repro.net.trace.TraceEvent` with ``span_id``/``parent_id``
identifiers and both the world's primary clock and the host wall clock.

Design constraints, both load-bearing:

* **Deterministic ids.**  Span ids are a *per-rank* local counter, so the
  (kind, nesting, id) structure of a trace is a pure function of the
  program — a global counter shared across rank threads would order by
  thread schedule and break the golden-trace fixture.
* **Neutrality.**  The tracer only *reads* the clock callback; it never
  charges time.  Opening a span with tracing disabled is a no-op
  (one shared null context, no event, no log write), so traced and
  untraced runs execute identical virtual-time arithmetic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator

from repro.net.trace import TraceEvent, TraceLog

__all__ = ["Tracer"]

#: What :meth:`Tracer.span` returns with tracing disabled (reusable).
_NO_SPAN = nullcontext()


class Tracer:
    """Per-rank span emitter bound to one :class:`TraceLog`.

    ``clock_fn`` returns the world's primary clock (virtual seconds in the
    sim world, latched wall seconds in the real world); ``wall_fn``
    returns host seconds and defaults to :func:`time.perf_counter`.
    """

    __slots__ = ("_log", "_rank", "_clock", "_wall", "_next_id", "_stack")

    def __init__(
        self,
        log: TraceLog | None,
        rank: int,
        clock_fn: Callable[[], float],
        wall_fn: Callable[[], float] | None = None,
    ):
        self._log = log
        self._rank = rank
        self._clock = clock_fn
        self._wall = wall_fn if wall_fn is not None else time.perf_counter
        self._next_id = 0
        self._stack: list[int] = []

    @property
    def enabled(self) -> bool:
        return self._log is not None and self._log.enabled

    @property
    def current_span(self) -> int:
        """Id of the innermost open span, or -1 at top level."""
        return self._stack[-1] if self._stack else -1

    def span(self, kind: str, label: str = "") -> ContextManager[None]:
        """Open a nested span; the event is recorded when it closes.

        Disabled, this is the shared no-op context: no generator, no event.
        """
        if not self.enabled:
            return _NO_SPAN
        return self._span(kind, label)

    @contextmanager
    def _span(self, kind: str, label: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self.current_span
        t0 = self._clock()
        w0 = self._wall()
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self._log.record(
                TraceEvent(
                    kind=kind,
                    rank=self._rank,
                    t_start=t0,
                    t_end=self._clock(),
                    label=label,
                    span_id=span_id,
                    parent_id=parent_id,
                    wall_start=w0,
                    wall_end=self._wall(),
                )
            )
