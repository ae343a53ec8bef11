"""Trace exporter: Chrome trace-event JSON, and its loader.

The Chrome format (``{"traceEvents": [...]}``) loads directly in Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``: one track per rank
(``pid`` = rank, named through ``process_name`` metadata events), nested
phase spans and leaf comm/compute events as complete (``"ph": "X"``)
slices.  Timestamps are microseconds; the timebase is either the world's
primary clock (``"clock"``, virtual seconds in the sim world) or the host
wall clock (``"wall"``, spans only — leaf events carry no wall interval).

Every event's full :class:`~repro.net.trace.TraceEvent` payload rides in
``args``, so an exported file round-trips through
:func:`load_chrome_trace` with no loss — ``repro trace summary|export``
work from the JSON alone.

Events are sorted by ``(rank, seq)`` before export: per-rank ``seq`` is
program order, so the byte output is deterministic even though the
in-memory append order across rank threads is not (the golden fixture
pins this).
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ConfigurationError
from repro.net.trace import TraceEvent, TraceLog

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
]

TIMEBASES = ("clock", "wall")

#: Service-track events record rank -1; give them a stable track id after
#: every real rank (Chrome pids must be non-negative).
_SERVICE_PID = 1_000_000


def _track(rank: int) -> int:
    return _SERVICE_PID if rank < 0 else rank


def chrome_trace(
    trace: TraceLog,
    *,
    timebase: str = "clock",
    include_wall: bool = True,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Render *trace* as a Chrome trace-event dict.

    ``timebase="wall"`` places spans on their host wall-clock interval and
    drops leaf events (which have no wall interval).  ``include_wall=False``
    omits host wall-clock fields from ``args`` — the golden fixture uses
    this to stay byte-deterministic across machines.
    """
    if timebase not in TIMEBASES:
        raise ConfigurationError(
            f"unknown timebase {timebase!r}; known: {', '.join(TIMEBASES)}"
        )
    events = sorted(trace.events(), key=lambda e: (_track(e.rank), e.seq))
    out: list[dict[str, Any]] = []
    for rank in sorted({_track(e.rank) for e in events}):
        name = "service" if rank == _SERVICE_PID else f"rank {rank}"
        out.append({
            "ph": "M", "pid": rank, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })
        out.append({
            "ph": "M", "pid": rank, "tid": 0, "name": "process_sort_index",
            "args": {"sort_index": rank},
        })
    for e in events:
        if timebase == "wall":
            if e.wall_start < 0:
                continue
            t0, t1 = e.wall_start, e.wall_end
        else:
            t0, t1 = e.t_start, e.t_end
        args: dict[str, Any] = {
            "kind": e.kind,
            "rank": e.rank,
            "t_start": e.t_start,
            "t_end": e.t_end,
            "nbytes": e.nbytes,
            "peer": e.peer,
            "tag": e.tag,
            "label": e.label,
            "span_id": e.span_id,
            "parent_id": e.parent_id,
            "seq": e.seq,
        }
        if include_wall:
            args["wall_start"] = e.wall_start
            args["wall_end"] = e.wall_end
        out.append({
            "name": e.label or e.kind,
            "cat": e.kind,
            "ph": "X",
            "pid": _track(e.rank),
            "tid": 0,
            "ts": t0 * 1e6,
            "dur": max(t1 - t0, 0.0) * 1e6,
            "args": args,
        })
    doc: dict[str, Any] = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "metadata": {
            "generator": "repro.obs",
            "timebase": timebase,
            "dropped_events": trace.dropped_events,
            **(metadata or {}),
        },
    }
    return doc


def write_chrome_trace(
    path: str,
    trace: TraceLog,
    *,
    timebase: str = "clock",
    include_wall: bool = True,
    metadata: dict[str, Any] | None = None,
) -> None:
    doc = chrome_trace(
        trace, timebase=timebase, include_wall=include_wall, metadata=metadata
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_chrome_trace(path: str) -> TraceLog:
    """Rebuild a :class:`TraceLog` from an exported Chrome trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(
                f"{path}: not a JSON trace file ({exc})"
            ) from exc
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ConfigurationError(
            f"{path}: not a Chrome trace-event file (no traceEvents key)"
        )
    log = TraceLog(enabled=True)
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        a = ev.get("args", {})
        if "kind" not in a:
            raise ConfigurationError(
                f"{path}: trace was not exported by repro (event args carry "
                f"no kind); only round-tripping repro exports is supported"
            )
        log.record(TraceEvent(
            kind=a["kind"],
            rank=int(a["rank"]),
            t_start=float(a["t_start"]),
            t_end=float(a["t_end"]),
            nbytes=int(a.get("nbytes", 0)),
            peer=int(a.get("peer", -1)),
            tag=int(a.get("tag", -1)),
            label=a.get("label", ""),
            span_id=int(a.get("span_id", -1)),
            parent_id=int(a.get("parent_id", -1)),
            wall_start=float(a.get("wall_start", -1.0)),
            wall_end=float(a.get("wall_end", -1.0)),
            seq=int(a.get("seq", -1)),
        ))
    return log
