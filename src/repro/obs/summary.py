"""The trace analyzer: where did each rank's time go?

:func:`summarize` reduces a :class:`~repro.net.trace.TraceLog` in one
pass to per-(rank, kind) event counts, times and bytes, per-tag traffic
of the transmissions, and each rank's end — the largest ``t_end`` among
its events.  Every report is derived from that one result: the phase
rows, the per-rank budget behind the paper's Sec. 4 efficiency (compute
/ comm / barrier / other, and the compute fraction of the rank's time),
the traffic-by-tag table, the remap audit (each Phase D remap's price,
from its ``remap`` span's ``price=`` label, beside the span it was
charged), and a coarse ASCII timeline for spotting the Table 5
staircase of an imbalanced run.

Rank ends come from the trace itself: a :func:`~repro.runtime.run_program`
rank's outermost ``program`` span ends exactly at its final clock, so a
saved Chrome trace (``repro trace summary FILE``) carries the whole
budget.  Times are in the world's primary clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.trace import TraceLog
from repro.utils.tables import format_table

__all__ = ["PRICE_LABEL", "TraceSummary", "summarize", "timeline"]

#: Event kinds counted as communication time.
_COMM_KINDS = ("send", "recv", "multicast")
#: Event kinds that are one transmission each (a multicast counts once).
_TRANSMISSIONS = ("send", "multicast")
#: Event kinds that make a rank's budget: a rank with none of them (a
#: ``repro serve`` machine recording only ``job`` spans) has no budget row.
_BUDGET_KINDS = ("compute", *_COMM_KINDS, "barrier", "program")
#: How a decided remap's ``remap`` span label starts: the price Phase D
#: put on it follows, in virtual seconds.
PRICE_LABEL = "price="


@dataclass
class TraceSummary:
    """What :func:`summarize` tallies; every report is a view of it."""

    #: (rank, kind) -> [events, time, bytes]; rank -1 is the service track.
    phases: dict[tuple[int, str], list] = field(default_factory=dict, init=False)
    messages_by_tag: dict[int, int] = field(default_factory=dict, init=False)
    bytes_by_tag: dict[int, int] = field(default_factory=dict, init=False)
    #: rank -> largest ``t_end`` among its events.
    ends: dict[int, float] = field(default_factory=dict, init=False)
    #: rank -> (duration, label) of each of its ``remap`` spans, in order.
    remap_spans: dict[int, list[tuple[float, str]]] = field(
        default_factory=dict, init=False
    )
    dropped_events: int = 0

    @property
    def ranks(self) -> list[int]:
        """The ranks (not the service track) that recorded events."""
        return sorted(r for r in self.ends if r >= 0)

    @property
    def makespan(self) -> float:
        return max((self.ends[r] for r in self.ranks), default=0.0)

    def time(self, rank: int, *kinds: str) -> float:
        return sum(self.phases.get((rank, k), (0, 0.0))[1] for k in kinds)

    def budget(self, rank: int) -> dict[str, float]:
        """One rank's time budget; ``util`` is compute over total."""
        compute = self.time(rank, "compute")
        comm = self.time(rank, *_COMM_KINDS)
        barrier = self.time(rank, "barrier")
        total = self.ends.get(rank, 0.0)
        return {
            "compute": compute,
            "comm": comm,
            "barrier": barrier,
            # Unattributed time: schedule charges without events, etc.
            "other": max(total - (compute + comm + barrier), 0.0),
            "total": total,
            "util": compute / total if total > 0 else 0.0,
        }

    @property
    def remaps(self) -> list[tuple[float | None, float]]:
        """One (price, charge) per remap, in order.  Every rank runs each
        remap (it is a collective), so the i-th ``remap`` span of every
        rank is the same remap; its charge is the longest of them (the
        barrier ends them together), its price the ``price=`` label a
        decided remap carries (None for one the caller supplied)."""
        out = []
        for spans in itertools.zip_longest(*self.remap_spans.values()):
            spans = [span for span in spans if span is not None]
            prices = [
                float(label[len(PRICE_LABEL):])
                for _, label in spans
                if label.startswith(PRICE_LABEL)
            ]
            out.append(
                (prices[0] if prices else None, max(d for d, _ in spans))
            )
        return out

    @property
    def budget_ranks(self) -> list[int]:
        """The ranks that recorded compute, comm, barrier or ``program``."""
        return [
            r for r in self.ranks
            if any((r, k) in self.phases for k in _BUDGET_KINDS)
        ]

    def to_text(self) -> str:
        """Phase rows, the per-rank budget and the traffic by tag."""
        rows = [
            ["service" if rank < 0 else rank, kind, int(c), t, int(b)]
            for (rank, kind), (c, t, b) in sorted(
                self.phases.items(), key=lambda kv: (kv[0][0] < 0, kv[0])
            )
        ]
        parts = [format_table(
            ["rank", "phase", "events", "time", "bytes"], rows,
            title="Per-rank phase breakdown", float_fmt="{:.6f}",
        )]
        if self.budget_ranks:
            parts.append(format_table(
                ["rank", "compute", "comm", "barrier", "other", "total",
                 "util"],
                [[r, *self.budget(r).values()] for r in self.budget_ranks],
                title="Per-rank time budget", float_fmt="{:.4f}",
            ))
        if self.messages_by_tag:
            parts.append(format_table(
                ["tag", "messages", "bytes"],
                [[tag, n, self.bytes_by_tag[tag]]
                 for tag, n in sorted(self.messages_by_tag.items())],
                title="Traffic by message tag",
            ))
        if self.remaps:
            parts.append(format_table(
                ["remap", "price", "charge", "charge/price"],
                [
                    [i, "-" if price is None else price, charge,
                     "-" if not price else charge / price]
                    for i, (price, charge) in enumerate(self.remaps)
                ],
                title="Remaps: price against charge (virtual s)",
                float_fmt="{:.6f}",
            ))
        if self.dropped_events:
            parts.append(
                f"(ring buffer dropped {self.dropped_events} event(s))"
            )
        return "\n\n".join(parts)


def summarize(trace: TraceLog) -> TraceSummary:
    """Reduce *trace* in one pass; see :class:`TraceSummary`."""
    if not trace.enabled and len(trace) == 0:
        raise ConfigurationError(
            "trace is empty; run with trace=True to collect events"
        )
    s = TraceSummary(dropped_events=trace.dropped_events)
    for ev in trace:
        tally = s.phases.setdefault((ev.rank, ev.kind), [0, 0.0, 0])
        tally[0] += 1
        tally[1] += ev.t_end - ev.t_start
        tally[2] += ev.nbytes
        s.ends[ev.rank] = max(ev.t_end, s.ends.get(ev.rank, ev.t_end))
        if ev.kind == "remap":
            s.remap_spans.setdefault(ev.rank, []).append(
                (ev.t_end - ev.t_start, ev.label)
            )
        if ev.kind in _TRANSMISSIONS:
            s.messages_by_tag[ev.tag] = s.messages_by_tag.get(ev.tag, 0) + 1
            s.bytes_by_tag[ev.tag] = s.bytes_by_tag.get(ev.tag, 0) + ev.nbytes
    return s


#: Time buckets per :func:`timeline` row.
_WIDTH = 72


def timeline(trace: TraceLog) -> str:
    """One row per rank of *trace*, one glyph per time bucket (72 of them).

    Glyphs: ``#`` compute-dominated bucket, ``~`` communication, ``.``
    barrier/idle, space for time after the rank's end.
    """
    s = summarize(trace)
    makespan = s.makespan
    if makespan <= 0:
        return "(empty timeline)"
    dt = makespan / _WIDTH
    row = {r: i for i, r in enumerate(s.ranks)}
    compute = [[0.0] * _WIDTH for _ in row]
    comm = [[0.0] * _WIDTH for _ in row]
    for ev in trace:
        if ev.rank not in row:
            continue
        if ev.kind == "compute":
            target = compute[row[ev.rank]]
        elif ev.kind in _COMM_KINDS:
            target = comm[row[ev.rank]]
        else:
            continue
        b0 = min(int(ev.t_start / dt), _WIDTH - 1)
        b1 = min(int(ev.t_end / dt), _WIDTH - 1)
        for b in range(b0, b1 + 1):
            lo = max(ev.t_start, b * dt)
            hi = min(ev.t_end, (b + 1) * dt)
            target[b] += max(hi - lo, 0.0)
    lines = []
    for r, i in row.items():
        end_bucket = min(int(s.ends[r] / dt), _WIDTH)
        chars = []
        for b in range(_WIDTH):
            c, m = compute[i][b], comm[i][b]
            if b >= end_bucket:
                chars.append(" ")
            elif c >= m and c > 0.1 * dt:
                chars.append("#")
            elif m > 0.1 * dt:
                chars.append("~")
            else:
                chars.append(".")
        lines.append(f"rank {r:2d} |{''.join(chars)}|")
    lines.append(f"        0{' ' * (_WIDTH - 10)}{makespan:.3f}s")
    return "\n".join(lines)
