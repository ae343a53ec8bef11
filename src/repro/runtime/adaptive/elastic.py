"""Elastic processor membership: grow/shrink the active rank set at runtime.

The paper's adaptive environments (Secs. 1, 3.4-3.5) include machines whose
*availability* changes during a run — a workstation is reclaimed by its
owner, an idle one joins the pool.  This module is the runtime half of that
scenario family; the environment half (:class:`MembershipEvent` /
:class:`MembershipTrace`) lives with the load traces in
:mod:`repro.net.loadmodel` and rides on :class:`~repro.net.cluster.ClusterSpec`.

The design keeps the paper's replicated-knowledge philosophy: the
membership trace, like the Fig. 3 interval list, is replicated on every
rank, so membership changes need no discovery protocol.  The simulated SPMD
world always spans the *full* pool — standby machines stay reachable (a
resource-manager daemon runs there) but own an **empty interval**, compute
nothing, and exchange no data.  A leave therefore is: shrink the active
mask, repartition onto the survivors (through the ordinary
:func:`~repro.runtime.adaptive.strategy.decide` profitability function,
where an inactive rank holding data makes the current split infeasible and
the remap mandatory), drain the departing rank's fields through the packed
:func:`~repro.runtime.adaptive.redistribution.redistribute_fields`
exchange, and rebuild translation tables and schedules for the new
communicator — the departed rank's schedule and kernel plan become empty.
A join re-runs the profitability test: the extra capability is only
adopted when the predicted savings over the remaining iterations beat the
transfer cost.

:class:`ElasticState` is the per-rank state machine
:class:`~repro.runtime.adaptive.session.AdaptiveSession` polls at iteration
boundaries; :func:`membership_decision` is the replicated decision each
event triggers.  Both are deterministic in (trace, synchronized clock), so
every rank reaches the identical conclusion without a decision broadcast —
the same argument that makes the distributed
:func:`~repro.runtime.adaptive.strategy.check` correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import LoadBalanceError
from repro.net.loadmodel import MembershipEvent, MembershipTrace
from repro.partition.intervals import IntervalPartition
from repro.runtime.adaptive.strategy import Decision, decide

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext
    from repro.runtime.incremental import RebuildPrice

__all__ = [
    "MembershipEvent",
    "MembershipTrace",
    "ElasticState",
    "membership_decision",
    "resolve_membership",
]


def resolve_membership(
    spec: "MembershipTrace | str | None", world_size: int
) -> MembershipTrace | None:
    """Normalize a membership spec: a trace, a CLI DSL string, or ``None``.

    The string form is :meth:`MembershipTrace.parse`'s mini-language
    (``"standby:3, join:3@5.0, leave:0@9.5"``), which is what
    ``repro run --membership`` accepts.
    """
    if spec is None or isinstance(spec, MembershipTrace):
        if (
            isinstance(spec, MembershipTrace)
            and spec.world_size != world_size
        ):
            raise LoadBalanceError(
                f"membership trace spans {spec.world_size} ranks, the world "
                f"has {world_size}"
            )
        return spec
    if isinstance(spec, str):
        try:
            return MembershipTrace.parse(spec, world_size)
        except ValueError as exc:
            raise LoadBalanceError(f"bad membership spec: {exc}") from None
    raise LoadBalanceError(
        f"cannot resolve a membership trace from {type(spec).__name__}"
    )


@dataclass
class ElasticState:
    """One rank's view of the evolving active set (replicated, poll-driven).

    ``poll`` must be called at a *synchronized* virtual time (right after a
    barrier), so every rank consumes the identical event window and updates
    the identical mask — the session enforces that call discipline.
    """

    trace: MembershipTrace
    active: np.ndarray = field(init=False)
    #: Cumulative unannounced-failure mask: memory on these machines is
    #: gone (checkpoint replicas included).  Cleared for a rank that
    #: rejoins — repaired hardware arrives blank, like any standby joiner.
    failed: np.ndarray = field(init=False)
    last_poll: float = field(init=False, default=0.0)
    events_seen: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.active = self.trace.active_mask(0.0)
        self.failed = self.trace.failed_mask(0.0)

    def poll(self, t: float) -> list[MembershipEvent]:
        """Consume events in ``(last_poll, t]`` and update the masks."""
        if t < self.last_poll:
            raise LoadBalanceError(
                f"membership poll moved backwards: {self.last_poll} -> {t}"
            )
        events = self.trace.events_between(self.last_poll, t)
        self.last_poll = t
        if events:
            self.active = self.trace.active_mask(t)
            self.failed = self.trace.failed_mask(t)
            self.events_seen += len(events)
        return events


def membership_decision(
    ctx: "RankContext",
    partition: IntervalPartition,
    active: np.ndarray,
    remaining_iterations: int,
    *,
    num_fields: int = 1,
    rebuild: "RebuildPrice | None" = None,
    force: bool = False,
    iteration_span: float | None = None,
) -> Decision:
    """The replicated decision one membership-event batch triggers.

    Every rank evaluates :func:`decide` redundantly from replicated inputs
    only — the cluster's effective speeds at the current (synchronized)
    clock, the active mask, and the last iteration's synchronized duration
    — so no load reports or decision broadcasts move.  Departures come out
    mandatory on their own: the departing rank still holds elements while
    inactive, which makes the current split's predicted time infinite.
    Joins are a pure profitability test; a rejected join leaves the joiner
    active but empty, to be picked up by a later periodic check once it is
    worth the transfer.

    *iteration_span* anchors the per-item times in real virtual seconds.
    The effective speeds fix only the *ratios* between machines; the span
    of the last barrier-to-barrier iteration (identical on every rank — a
    synchronized clock minus a synchronized clock) supplies the absolute
    scale: if the slowest rank ran ``size_r`` items in ``span`` seconds,
    one item of unit work costs ``span / max(size_r / eff_r)``.  Without a
    span the test falls back to unit work of 1 s/item, which only affects
    the join profitability threshold, never the proportions.  The remap
    is priced like a periodic check's, rebuild included (*rebuild*);
    with no load history the horizon is not capped by persistence, only
    by the next announced change (the session's cap).
    """
    eff = ctx.cluster.effective_speeds(ctx.clock)
    unit_work = 1.0
    if iteration_span is not None and iteration_span > 0:
        slowest = float(np.max(partition.sizes() / eff))
        if slowest > 0:
            unit_work = iteration_span / slowest
    times = unit_work / eff
    return decide(
        ctx,
        partition,
        times,
        remaining_iterations,
        num_fields=num_fields,
        rebuild=rebuild,
        active=np.asarray(active, dtype=bool),
        force=force,
    )
