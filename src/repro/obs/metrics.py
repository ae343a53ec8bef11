"""Typed per-rank metrics with one snapshot-and-merge path.

Each rank owns a :class:`MetricsRegistry` (single-threaded, no locks: a
rank only ever touches its own registry).  At the end of a run every rank
snapshots its registry into plain dicts; :func:`merge_snapshots` folds
them into one cluster-wide view with fixed per-type rules:

* **counter** — summed across ranks (messages, bytes, remap counts, ...).
* **gauge** — maximum across ranks (peak mailbox depth, ...).
* **histogram** — ``count``/``total``/``min``/``max`` merged element-wise
  (recv-wait time, queue waits, ...).

Snapshots are plain JSON-able dicts so they cross the real world's
process boundary through the existing pickle path unchanged.

Like tracing, metrics never read or advance a rank clock: the values
*recorded* may be virtual durations, but recording them is free in
virtual time, so enabling metrics is deterministically neutral.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["MetricsRegistry", "merge_snapshots"]


class MetricsRegistry:
    """Counters, gauges, and histograms for one rank."""

    __slots__ = ("_counters", "_gauges", "_hists")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict[str, float]] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name* (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge *name* to *value* if larger (high-water mark)."""
        prev = self._gauges.get(name)
        if prev is None or value > prev:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram *name*.

        ``total`` sums the observations in order from ``0.0``, exactly as
        a float field accumulated with ``+=`` would.
        """
        h = self._hists.get(name)
        if h is None:
            self._hists[name] = {
                "count": 1, "total": 0.0 + value, "min": value, "max": value,
            }
        else:
            h["count"] += 1
            h["total"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value

    def snapshot(self) -> dict[str, Any]:
        """A deep-copied, picklable view of this registry."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: dict(v) for k, v in self._hists.items()},
        }


def _empty() -> dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[dict[str, Any] | None]) -> dict[str, Any]:
    """Fold per-rank snapshots into one cluster-wide snapshot.

    ``None`` entries (ranks without a registry, e.g. never-joined standby
    ranks) are skipped.  Merging is order-independent for counters and
    gauges; histogram merge is order-independent too, so the result is
    deterministic whatever rank order the caller iterates in.
    """
    merged = _empty()
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            prev = merged["gauges"].get(name)
            if prev is None or value > prev:
                merged["gauges"][name] = value
        for name, h in snap.get("histograms", {}).items():
            m = merged["histograms"].get(name)
            if m is None:
                merged["histograms"][name] = dict(h)
            else:
                m["count"] += h["count"]
                m["total"] += h["total"]
                if h["min"] < m["min"]:
                    m["min"] = h["min"]
                if h["max"] > m["max"]:
                    m["max"] = h["max"]
    return merged
