"""Competing-load and membership traces for adaptive environments.

The paper's adaptive experiments (Table 5) add "a constant competing load" to
one workstation: the data-parallel process then receives only a fraction of
that machine's cycles.  We model the environment's adaptivity with a *load
trace* L(t): the number of competing processes at virtual time ``t``.  With
fair CPU sharing, the application's instantaneous rate on a processor of base
speed ``s`` is ``s / (1 + L(t))``.

All traces are piecewise-constant in time (ramps and random walks are
discretized at construction), which lets :func:`advance_clock` integrate the
rate exactly, segment by segment.

Sec. 1's definition of an adaptive environment also covers machines whose
*availability* changes at runtime — a workstation is reclaimed by its owner,
a faster one becomes idle and joins.  :class:`MembershipTrace` describes
that axis: join/leave/replace events at virtual times over a fixed world of
processors.  It deliberately shares the load traces' piecewise-constant
algebra (``next_change_after`` with a ``math.inf`` sentinel).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = [
    "LoadTrace",
    "NoLoad",
    "ConstantLoad",
    "StepLoad",
    "RampLoad",
    "RandomWalkLoad",
    "ServiceLoad",
    "EVENT_KINDS",
    "MembershipEvent",
    "MembershipTrace",
    "advance_clock",
    "work_done_in",
]


class LoadTrace:
    """Base class: a piecewise-constant competing load L(t) >= 0."""

    def load_at(self, t: float) -> float:
        """Competing load at virtual time *t* (t >= 0)."""
        raise NotImplementedError

    def next_change_after(self, t: float) -> float:
        """The next breakpoint strictly after *t*, or ``math.inf``."""
        raise NotImplementedError

    def peak_load(self) -> float:
        """The largest load the trace ever reaches (t >= 0)."""
        peak, t = self.load_at(0.0), 0.0
        while (t := self.next_change_after(t)) < math.inf:
            peak = max(peak, self.load_at(t))
        return peak


@dataclass(frozen=True)
class NoLoad(LoadTrace):
    """A dedicated machine: no competing processes, ever."""

    def load_at(self, t: float) -> float:
        return 0.0

    def next_change_after(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class ConstantLoad(LoadTrace):
    """A constant competing load (the paper's Table 5 setup).

    ``load=1.0`` means one competing process: the application gets half the
    machine.
    """

    load: float

    def __post_init__(self) -> None:
        check_positive("load", self.load, strict=False)

    def load_at(self, t: float) -> float:
        return self.load

    def next_change_after(self, t: float) -> float:
        return math.inf


class StepLoad(LoadTrace):
    """Piecewise-constant load given explicitly as (time, load) steps.

    ``StepLoad([(0, 0), (10, 2), (50, 0)])`` is unloaded until t=10, has two
    competing processes until t=50, then is unloaded again.
    """

    def __init__(self, steps: Sequence[tuple[float, float]]):
        if not steps:
            raise ValueError("StepLoad needs at least one (time, load) step")
        times = [float(t) for t, _ in steps]
        loads = [float(load) for _, load in steps]
        if times != sorted(times):
            raise ValueError("StepLoad step times must be non-decreasing")
        if any(load < 0 for load in loads):
            raise ValueError("StepLoad loads must be non-negative")
        if times[0] > 0:
            times.insert(0, 0.0)
            loads.insert(0, 0.0)
        self._times = times
        self._loads = loads

    def load_at(self, t: float) -> float:
        idx = bisect_right(self._times, t) - 1
        return self._loads[max(idx, 0)]

    def next_change_after(self, t: float) -> float:
        idx = bisect_right(self._times, t)
        if idx >= len(self._times):
            return math.inf
        return self._times[idx]


class RampLoad(StepLoad):
    """A linear ramp from ``load0`` at ``t0`` to ``load1`` at ``t1``.

    Discretized into ``n_steps`` constant segments so integration stays
    exact; outside [t0, t1] the load holds its endpoint value.
    """

    def __init__(
        self,
        t0: float,
        t1: float,
        load0: float,
        load1: float,
        *,
        n_steps: int = 32,
    ):
        if t1 <= t0:
            raise ValueError(f"ramp needs t1 > t0, got [{t0}, {t1}]")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        edges = np.linspace(t0, t1, n_steps + 1)
        mids = (edges[:-1] + edges[1:]) / 2.0
        frac = (mids - t0) / (t1 - t0)
        vals = load0 + frac * (load1 - load0)
        steps = [(0.0, float(load0))]
        steps += [(float(e), float(v)) for e, v in zip(edges[:-1], vals)]
        steps.append((float(t1), float(load1)))
        super().__init__(steps)


#: A :class:`RandomWalkLoad` starts at no load and stays within [0, 3]
#: competing processes; each step is a normal increment of standard
#: deviation 0.5.
_WALK_MAX_LOAD = 3.0
_WALK_STEP = 0.5


class RandomWalkLoad(StepLoad):
    """A bounded random-walk load, resampled every ``dt`` seconds.

    Models the "dynamic" resource class from Section 1 of the paper.  The
    walk is precomputed over ``horizon`` seconds at construction from an
    explicit seed, so a given experiment is reproducible; past the horizon
    the final value holds.
    """

    def __init__(self, *, horizon: float, dt: float, seed: SeedLike = None):
        check_positive("horizon", horizon)
        check_positive("dt", dt)
        rng = as_generator(seed)
        n = int(math.ceil(horizon / dt)) + 1
        loads = np.empty(n)
        loads[0] = 0.0
        increments = rng.normal(0.0, _WALK_STEP, size=n - 1)
        for i in range(1, n):
            loads[i] = min(
                max(loads[i - 1] + increments[i - 1], 0.0), _WALK_MAX_LOAD
            )
        steps = [(i * dt, float(loads[i])) for i in range(n)]
        super().__init__(steps)


class ServiceLoad(StepLoad):
    """Competing load induced by co-tenant jobs' busy intervals.

    The job service (:mod:`repro.serve`) records, for every physical rank,
    the service-time intervals during which an admitted job keeps that
    machine busy.  A later job admitted at service time ``origin`` sees
    those co-tenants as ordinary competing processes: each interval
    ``(start, end, load)`` contributes *load* competing processes over
    ``[start, end)`` of service time, and the whole trace is shifted into
    the new job's local clock (local ``t`` = service ``origin + t``).
    Intervals already over by ``origin`` vanish; intervals straddling it
    are clipped.  Overlapping intervals sum — this is how "each running
    job's compute *is* the other jobs' load" closes the loop the paper's
    Sec. 3.5 scripts by hand.
    """

    def __init__(
        self,
        intervals: Sequence[tuple[float, float, float]],
        *,
        origin: float = 0.0,
    ):
        if origin < 0:
            raise ValueError(f"origin must be >= 0, got {origin}")
        deltas: dict[float, float] = {}
        for start, end, load in intervals:
            if end < start:
                raise ValueError(
                    f"busy interval must have end >= start, got ({start}, {end})"
                )
            if load < 0:
                raise ValueError(f"interval load must be >= 0, got {load}")
            lo = max(float(start) - origin, 0.0)
            hi = float(end) - origin
            if hi <= lo or load == 0.0:
                continue
            deltas[lo] = deltas.get(lo, 0.0) + float(load)
            deltas[hi] = deltas.get(hi, 0.0) - float(load)
        steps: list[tuple[float, float]] = [(0.0, 0.0)]
        level = 0.0
        for t in sorted(deltas):
            level += deltas[t]
            # Clamp accumulated float error so StepLoad's >= 0 check holds.
            steps.append((t, max(level, 0.0)))
        super().__init__(steps)


#: Recognized membership event kinds (the DSL vocabulary of
#: :meth:`MembershipTrace.parse`, minus the pseudo-kind ``standby``).
EVENT_KINDS = ("leave", "join", "replace", "fail")


@dataclass(frozen=True)
class MembershipEvent:
    """One change of the active processor set at a virtual time.

    ``kind`` is ``"leave"`` (the machine is reclaimed, announced — the
    runtime gets to drain its data), ``"join"`` (a standby machine becomes
    available), ``"replace"`` (*rank* leaves and *replacement* joins
    atomically — the "a workstation is swapped for a faster one"
    scenario), or ``"fail"`` (the machine dies *unannounced*, taking its
    memory — and any application data it held — with it; recovery is the
    business of :mod:`repro.runtime.resilience`).
    """

    time: float
    kind: str
    rank: int
    replacement: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"membership event kind must be one of "
                f"{'/'.join(EVENT_KINDS)}, got {self.kind!r}"
            )
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.rank < 0:
            raise ValueError(f"event rank must be >= 0, got {self.rank}")
        if (self.replacement is not None) != (self.kind == "replace"):
            raise ValueError(
                "replacement is required for 'replace' events and forbidden "
                "otherwise"
            )
        if self.replacement is not None and self.replacement < 0:
            raise ValueError(
                f"replacement rank must be >= 0, got {self.replacement}"
            )
        if self.replacement == self.rank:
            raise ValueError(
                f"replace event cannot swap rank {self.rank} for itself"
            )


class MembershipTrace:
    """The active rank set over virtual time for a *world_size* pool.

    All ranks start active except those in *initially_inactive* (standby
    machines that may join later).  Events apply at their timestamp:
    ``active_mask(t)`` reflects every event with ``time <= t``.  The trace
    is validated at construction by replaying it: a leave requires the rank
    to be active, a join requires it to be standby, and the active set may
    never become empty — an invalid trace fails here, not mid-run.

    Like the load traces, the trace is replicated knowledge (every rank
    holds a copy, mirroring the paper's replicated interval list), which is
    what lets membership decisions be evaluated redundantly on every rank
    without a discovery protocol.
    """

    def __init__(
        self,
        world_size: int,
        events: Sequence[MembershipEvent] = (),
        *,
        initially_inactive: Sequence[int] = (),
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = int(world_size)
        inactive = frozenset(int(r) for r in initially_inactive)
        if any(r < 0 or r >= world_size for r in inactive):
            raise ValueError(
                f"initially_inactive ranks out of range: {sorted(inactive)}"
            )
        if len(inactive) == world_size:
            raise ValueError("at least one rank must start active")
        self.initially_inactive = inactive
        # Stable sort: coincident events apply in their listed order.
        self.events: tuple[MembershipEvent, ...] = tuple(
            sorted(events, key=lambda ev: ev.time)
        )
        self._times = [ev.time for ev in self.events]
        # Replay once to validate and precompute the mask after each event.
        active = set(range(world_size)) - inactive
        failed: set[int] = set()
        masks = []
        failed_masks = []
        for ev in self.events:
            for leaving, joining in self._as_moves(ev):
                if leaving is not None:
                    if leaving not in active:
                        raise ValueError(
                            f"rank {leaving} cannot {ev.kind} at "
                            f"t={ev.time}: not active"
                        )
                    active.discard(leaving)
                    if ev.kind == "fail":
                        failed.add(leaving)
                if joining is not None:
                    if joining >= world_size:
                        raise ValueError(
                            f"event rank {joining} out of range for world "
                            f"of {world_size}"
                        )
                    if joining in active:
                        raise ValueError(
                            f"rank {joining} cannot join at t={ev.time}: "
                            f"already active"
                        )
                    active.add(joining)
                    # A repaired machine rejoining starts with blank
                    # memory, like any standby joiner; it is no longer
                    # counted as failed.
                    failed.discard(joining)
            if not active:
                raise ValueError(
                    f"active set empties at t={ev.time}; a run needs at "
                    f"least one processor"
                )
            mask = np.zeros(world_size, dtype=bool)
            mask[sorted(active)] = True
            masks.append(mask)
            fmask = np.zeros(world_size, dtype=bool)
            if failed:
                fmask[sorted(failed)] = True
            failed_masks.append(fmask)
        self._masks = masks
        self._failed_masks = failed_masks

    def _as_moves(
        self, ev: MembershipEvent
    ) -> list[tuple[int | None, int | None]]:
        """Decompose one event into (leaving, joining) rank moves."""
        if ev.rank >= self.world_size:
            raise ValueError(
                f"event rank {ev.rank} out of range for world of "
                f"{self.world_size}"
            )
        if ev.kind in ("leave", "fail"):
            return [(ev.rank, None)]
        if ev.kind == "join":
            return [(None, ev.rank)]
        return [(ev.rank, ev.replacement)]

    # ------------------------------------------------------------------ #
    # the piecewise-constant algebra shared with the load traces
    # ------------------------------------------------------------------ #

    def active_mask(self, t: float) -> np.ndarray:
        """Boolean mask (indexed by rank) of the active set at time *t*."""
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            mask = np.ones(self.world_size, dtype=bool)
            if self.initially_inactive:
                mask[sorted(self.initially_inactive)] = False
            return mask
        return self._masks[idx].copy()

    def failed_mask(self, t: float) -> np.ndarray:
        """Boolean mask of the ranks that have *failed* by time *t*.

        A failed rank's memory is gone (its replicas and application data
        with it); a graceful leave keeps the machine's resource-manager
        daemon — and whatever checkpoint replicas it holds — reachable.  A
        failed rank that later rejoins is repaired hardware with blank
        memory and is no longer counted here.
        """
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            return np.zeros(self.world_size, dtype=bool)
        return self._failed_masks[idx].copy()

    @property
    def has_failures(self) -> bool:
        """Whether any event is an unannounced ``fail`` (needs recovery)."""
        return any(ev.kind == "fail" for ev in self.events)

    def events_between(self, t0: float, t1: float) -> list[MembershipEvent]:
        """Events with ``t0 < time <= t1`` (the poll window of a session)."""
        if t1 < t0:
            raise ValueError(f"need t1 >= t0, got ({t0}, {t1}]")
        lo = bisect_right(self._times, t0)
        hi = bisect_right(self._times, t1)
        return list(self.events[lo:hi])

    def next_change_after(self, t: float) -> float:
        """The next membership breakpoint strictly after *t*, or ``inf``."""
        idx = bisect_right(self._times, t)
        if idx >= len(self._times):
            return math.inf
        return self._times[idx]

    # ------------------------------------------------------------------ #
    # composition and derivation helpers
    # ------------------------------------------------------------------ #

    def subset(self, ranks: Sequence[int]) -> "MembershipTrace":
        """Re-index the trace onto the sub-world of *ranks*.

        Events touching dropped ranks are discarded; a replace whose two
        sides straddle the subset degrades to the surviving half.
        """
        ranks = [int(r) for r in ranks]
        if any(r < 0 or r >= self.world_size for r in ranks):
            raise ValueError(f"subset ranks out of range: {ranks}")
        index = {r: i for i, r in enumerate(ranks)}
        events: list[MembershipEvent] = []
        for ev in self.events:
            if ev.kind == "replace":
                old_in = ev.rank in index
                new_in = ev.replacement in index
                if old_in and new_in:
                    events.append(
                        MembershipEvent(
                            ev.time, "replace", index[ev.rank],
                            replacement=index[ev.replacement],
                        )
                    )
                elif old_in:
                    events.append(MembershipEvent(ev.time, "leave", index[ev.rank]))
                elif new_in:
                    events.append(
                        MembershipEvent(ev.time, "join", index[ev.replacement])
                    )
            elif ev.rank in index:
                events.append(MembershipEvent(ev.time, ev.kind, index[ev.rank]))
        return MembershipTrace(
            len(ranks),
            events,
            initially_inactive=[
                index[r] for r in sorted(self.initially_inactive) if r in index
            ],
        )

    @classmethod
    def parse(cls, spec: str, world_size: int) -> "MembershipTrace":
        """Build a trace from the CLI mini-language.

        *spec* is a comma- or semicolon-separated event list::

            standby:3, join:3@5.0, leave:0@9.5, replace:1->2@12, fail:2@15

        ``standby:R`` marks rank R initially inactive; the other tokens are
        ``kind:rank@time`` with ``replace`` naming ``old->new``.  Events
        must be listed in non-decreasing time order (the DSL is a schedule;
        an out-of-order token is almost always a typo in a timestamp) and
        every rank must lie in ``0..world_size-1``.
        """

        def _rank(text: str) -> int:
            r = int(text)
            if not (0 <= r < world_size):
                raise ValueError(
                    f"rank {r} out of range for a world of {world_size} "
                    f"processors (valid ranks: 0..{world_size - 1})"
                )
            return r

        inactive: list[int] = []
        events: list[MembershipEvent] = []
        last_time = -math.inf
        last_token = ""
        for raw in spec.replace(";", ",").split(","):
            token = raw.strip()
            if not token:
                continue
            kind, sep, rest = token.partition(":")
            kind = kind.strip()
            if not sep:
                raise ValueError(
                    f"malformed membership token {token!r}: expected "
                    f"'kind:rank@time' (or 'standby:rank')"
                )
            try:
                if kind == "standby":
                    inactive.append(_rank(rest))
                    continue
                body, at, time_text = rest.partition("@")
                if not at:
                    raise ValueError("missing @time")
                t = float(time_text)
                if t < last_time:
                    raise ValueError(
                        f"time {t:g} goes backwards (previous event "
                        f"{last_token!r} is at t={last_time:g}); list "
                        f"events in non-decreasing time order"
                    )
                if kind == "replace":
                    old_text, arrow, new_text = body.partition("->")
                    if not arrow:
                        raise ValueError("replace needs old->new")
                    events.append(
                        MembershipEvent(
                            t, "replace", _rank(old_text),
                            replacement=_rank(new_text),
                        )
                    )
                elif kind in ("leave", "join", "fail"):
                    events.append(MembershipEvent(t, kind, _rank(body)))
                else:
                    raise ValueError(
                        f"unknown event kind {kind!r}; known kinds: "
                        f"{', '.join(EVENT_KINDS)} (plus 'standby:rank')"
                    )
                last_time, last_token = t, token
            except ValueError as exc:
                raise ValueError(
                    f"malformed membership token {token!r}: {exc}"
                ) from None
        return cls(world_size, events, initially_inactive=inactive)

    def format(self) -> str:
        """The DSL spelling of the trace: ``parse(format(tr)) == tr``.

        Standby tokens come first (ascending rank), then the events in
        their stored (stably time-sorted) order, so coincident events keep
        their apply order through a parse→format→parse cycle.  Times are
        spelled with :func:`repr` so floats round-trip exactly.
        """

        def _time(t: float) -> str:
            return repr(int(t)) if t == int(t) else repr(t)

        tokens = [f"standby:{r}" for r in sorted(self.initially_inactive)]
        for ev in self.events:
            if ev.kind == "replace":
                tokens.append(
                    f"replace:{ev.rank}->{ev.replacement}@{_time(ev.time)}"
                )
            else:
                tokens.append(f"{ev.kind}:{ev.rank}@{_time(ev.time)}")
        return ", ".join(tokens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MembershipTrace):
            return NotImplemented
        return (
            self.world_size == other.world_size
            and self.initially_inactive == other.initially_inactive
            and self.events == other.events
        )

    def __hash__(self) -> int:
        return hash((self.world_size, self.initially_inactive, self.events))

    def __repr__(self) -> str:
        return (
            f"MembershipTrace(world_size={self.world_size}, "
            f"events={len(self.events)}, "
            f"initially_inactive={sorted(self.initially_inactive)})"
        )


#: Load changes :func:`advance_clock` crosses before it calls the trace a
#: runaway.
_MAX_SEGMENTS = 10_000_000


def advance_clock(
    t0: float,
    work_seconds: float,
    speed: float,
    trace: LoadTrace,
) -> float:
    """Return the virtual time at which *work_seconds* of unit-speed work
    finishes, starting at *t0* on a processor of relative *speed* whose
    competing load follows *trace*.

    Solves  ∫_{t0}^{t1}  speed / (1 + L(s)) ds = work_seconds  exactly for
    piecewise-constant L, crossing at most ``_MAX_SEGMENTS`` load changes.
    """
    check_positive("speed", speed)
    if work_seconds < 0:
        raise ValueError(f"work_seconds must be >= 0, got {work_seconds}")
    if work_seconds == 0:
        return t0
    remaining = float(work_seconds)
    t = float(t0)
    for _ in range(_MAX_SEGMENTS):
        rate = speed / (1.0 + trace.load_at(t))
        boundary = trace.next_change_after(t)
        if boundary == math.inf:
            return t + remaining / rate
        span = boundary - t
        capacity = rate * span
        if capacity >= remaining:
            return t + remaining / rate
        remaining -= capacity
        t = boundary
    raise RuntimeError("advance_clock exceeded segment budget (runaway trace?)")


def work_done_in(
    t0: float,
    t1: float,
    speed: float,
    trace: LoadTrace,
) -> float:
    """Unit-speed work completed on the processor during [t0, t1].

    The inverse of :func:`advance_clock`.
    """
    check_positive("speed", speed)
    if t1 < t0:
        raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
    total = 0.0
    t = float(t0)
    while t < t1:
        rate = speed / (1.0 + trace.load_at(t))
        boundary = min(trace.next_change_after(t), t1)
        total += rate * (boundary - t)
        t = boundary
    return total
