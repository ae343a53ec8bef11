"""The Phase D session: one owner for the monitor→decide→remap→rebuild loop.

Before this subsystem existed, the loop of Sec. 3.5 — monitor the load,
run the profitability check, redistribute, re-run the inspector — was
hand-wired separately in ``run_program``, the adaptive-refinement app, and
several benchmarks.  :class:`AdaptiveSession` is the single code path all
of them drive now (the app and ``scale-real`` through ``run_program``):

* :meth:`record` feeds the per-iteration load sample to the monitor
  ("average computation time per data item");
* :meth:`maybe_rebalance` runs the configured
  :func:`~repro.runtime.adaptive.strategy.check` protocol at the check
  interval and, when the decision says remap, performs the packed
  redistribution and the inspector rebuild;
* :class:`Phase` s carry *adaptive applications* (paper footnote 1): at
  each phase's first iteration the session remaps to the caller's (say,
  weighted) partition through the path an approved decision takes;
* :meth:`poll_membership` applies elastic membership events
  (:mod:`repro.runtime.adaptive.elastic`): a departing rank's fields are
  drained through the same packed redistribution and the schedules are
  rebuilt for the shrunk (or grown) active set;
* with a checkpoint policy configured
  (:mod:`repro.runtime.resilience`), the session periodically replicates
  every rank's block to a ring partner, and an unannounced ``fail``
  event triggers the recovery path: roll every rank back to the last
  checkpoint epoch, reassemble the lost block from its partner's
  replica, repartition onto the survivors, and tell the driver (via
  :meth:`next_iteration`) to re-execute from the epoch's iteration.

The session also does the bookkeeping Tables 4-5 are made of, once, in
its rank's metrics registry (:data:`LEDGER`): virtual time spent in
checks, remaps, checkpoints, and rollbacks; check/remap/epoch counts; and
the host seconds of the redistribution exchange (what the
``scale-adaptive`` benchmarks report).

The competing load this loop reacts to comes from two producers: scripted
per-rank traces (``StepLoad`` schedules — the Table 5 setup), and the job
service (:mod:`repro.serve`), where the load on a rank is other admitted
jobs' measured compute projected through
:class:`~repro.net.loadmodel.ServiceLoad`.  Either way it arrives through
the same capability estimate (:func:`decide` inverts each rank's measured
time per item), so the session is oblivious to which world it is
balancing against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import ConfigurationError, LoadBalanceError, ResilienceError
from repro.graph.csr import CSRGraph
from repro.obs.summary import PRICE_LABEL
from repro.partition.intervals import IntervalPartition
from repro.runtime.adaptive.elastic import (
    ElasticState,
    membership_decision,
)
from repro.runtime.adaptive.redistribution import redistribute_fields
from repro.runtime.adaptive.strategy import (
    LOAD_TOLERANCE,
    Decision,
    LoadBalanceConfig,
    check,
    resolve_load_balance,
)
from repro.runtime.incremental import (
    IncrementalInspector,
    RebuildPrice,
    check_inspector_mode,
)
from repro.runtime.inspector import InspectorResult, run_inspector
from repro.runtime.monitor import LoadMonitor
from repro.runtime.resilience.checkpoint import ResilienceState, take_checkpoint
from repro.runtime.resilience.policy import (
    CheckpointPolicy,
    require_checkpoint,
    resolve_checkpoint_policy,
)
from repro.runtime.resilience.recovery import recover_redistribute_fields
from repro.runtime.schedule_builders import InspectorCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = ["LEDGER", "Phase", "SessionStats", "AdaptiveSession"]

#: What a session records in its rank's metrics registry: name -> (registry
#: entry, the error a disagreement between ranks raises).  An entry with an
#: error is a counter every rank must agree on (Phase D decisions are
#: replicated); one without is a duration histogram whose ``total`` is the
#: rank's value.
LEDGER: dict[str, tuple[str, type[Exception] | None]] = {
    # virtual s: the initial schedule build (rebuilds are in remap_time)
    "inspector_time": ("inspector.initial_build_time", None),
    # virtual s: kernel sweeps, as fed to the load monitor
    "compute_time": ("exec.compute_time", None),
    # virtual s: strategy checks and membership decisions
    "lb_check_time": ("lb.check_time", None),
    # virtual s: redistribute + rebuild + barrier
    "remap_time": ("lb.remap_time", None),
    # virtual s: replication + barrier
    "checkpoint_time": ("cp.checkpoint_time", None),
    # virtual s: restore + recovery remap + rebuild
    "rollback_time": ("cp.rollback_time", None),
    # virtual s of discarded (re-executed) progress
    "lost_time": ("cp.lost_time", None),
    # host s inside the packed exchange
    "redistribute_host_s": ("lb.redistribute_host_time", None),
    "num_checks": ("lb.checks", LoadBalanceError),
    "num_remaps": ("lb.remaps", LoadBalanceError),
    # elastic join/leave/replace/fail events
    "membership_events": ("membership.events", LoadBalanceError),
    # epochs taken (bootstrap included)
    "num_checkpoints": ("cp.checkpoints", ResilienceError),
    # failure recoveries performed
    "num_rollbacks": ("cp.rollbacks", ResilienceError),
}


def ledger_value(snapshot: dict[str, Any], name: str) -> float:
    """One rank's *name* out of its registry *snapshot* (0 if never
    recorded)."""
    entry, error = LEDGER[name]
    if error is not None:
        return snapshot["counters"].get(entry, 0)
    hist = snapshot["histograms"].get(entry)
    return hist["total"] if hist is not None else 0.0


class SessionStats:
    """One rank's :data:`LEDGER` by name: a read-only view of a registry
    snapshot."""

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: dict[str, Any]) -> None:
        self._snapshot = snapshot

    def __getattr__(self, name: str) -> float:
        if name not in LEDGER:
            raise AttributeError(name)
        return ledger_value(self._snapshot, name)


@dataclass(frozen=True)
class Phase:
    """A stretch of iterations whose computational structure is fixed.

    From iteration ``start`` on, each vertex's sweep work is scaled by
    ``weights`` (None: unit work), and at the boundary before ``start``
    the session remaps to ``partition`` (None: keep the current split; at
    ``start=0`` it is the initial split).  Both index the ordered 1-D
    list the program runs on.
    """

    start: int
    weights: np.ndarray | None = None
    partition: IntervalPartition | None = None


@dataclass
class AdaptiveSession:
    """One rank's Phase D state machine (SPMD: every rank owns one).

    Construction runs the inspector (Phase B) for the initial partition;
    thereafter the session keeps ``partition`` and ``inspector`` consistent
    through every remap, so callers always read the current schedule and
    kernel plan from it.
    """

    ctx: "RankContext"
    graph: CSRGraph
    partition: IntervalPartition
    total_iterations: int
    #: A :class:`LoadBalanceConfig`, a protocol name, or None / "off" for
    #: a static run; normalized by :func:`resolve_load_balance` on init.
    lb: "LoadBalanceConfig | str | None" = None
    schedule_strategy: str = "sort2"
    inspector_cost: InspectorCostModel = field(default_factory=InspectorCostModel)
    # bench/tracing.py passes this; ROADMAP item 3 deletes it.
    backend: None = None
    #: Checkpoint policy (:mod:`repro.runtime.resilience`): a policy
    #: object, a DSL string ("interval:4" / "cost:50"), or None for no
    #: checkpointing.  Mandatory when the membership trace contains
    #: unannounced ``fail`` events — a failure without an epoch to roll
    #: back to is unrecoverable.
    checkpoint: "CheckpointPolicy | str | None" = None
    #: Phase B rebuild mode after a remap: ``"full"`` re-runs the
    #: inspector from scratch (the paper's protocol), ``"incremental"``
    #: patches the previous schedule/plan through the boundary diff
    #: (:mod:`repro.runtime.incremental`), producing bit-identical
    #: results for a fraction of the virtual (and host) cost.
    inspector_mode: str = "full"
    #: The program's :class:`Phase` sequence: each partition given past
    #: iteration 0 is remapped to at its phase's first iteration, in place
    #: of that boundary's check.
    phases: Sequence[Phase] = ()

    def __post_init__(self) -> None:
        if self.backend is not None:
            raise ConfigurationError(
                f"backend must be None (the runtime has one "
                f"implementation), got {self.backend!r}"
            )
        if self.total_iterations < 1:
            raise LoadBalanceError(
                f"total_iterations must be >= 1, got {self.total_iterations}"
            )
        self.lb = resolve_load_balance(self.lb)
        self.monitor = LoadMonitor()
        self._predictor = None
        if not self.static and self.lb.predictor == "trend":
            from repro.runtime.prediction import LinearTrendPredictor

            self._predictor = LinearTrendPredictor()
        # Elastic membership is the cluster's trace (run_program attaches
        # the resolved one); clusters without one keep a fixed rank set.
        trace = self.ctx.cluster.membership
        self.elastic: ElasticState | None = (
            ElasticState(trace) if trace is not None else None
        )
        self.resilience: ResilienceState | None = None
        policy = resolve_checkpoint_policy(self.checkpoint)
        if policy is not None:
            self.resilience = ResilienceState(policy)
        require_checkpoint(trace, policy)
        self._given = {
            phase.start: phase.partition
            for phase in self.phases
            if phase.start > 0 and phase.partition is not None
        }
        self._resume_at: int | None = None
        self._last_sync_clock = self.ctx.clock
        self._last_span = 0.0
        if self.elastic is not None:
            sizes = self.partition.sizes()
            standby = ~self.elastic.active
            if np.any(standby & (sizes > 0)):
                bad = np.flatnonzero(standby & (sizes > 0)).tolist()
                raise LoadBalanceError(
                    f"initial partition assigns elements to standby ranks "
                    f"{bad}; mask the initial capabilities with the "
                    f"membership trace's active set at t=0"
                )
        check_inspector_mode(self.inspector_mode, self.schedule_strategy)
        self._rebuild = RebuildPrice(
            self.graph,
            strategy=self.schedule_strategy,
            mode=self.inspector_mode,
            cost_model=self.inspector_cost,
        )
        self._incremental: IncrementalInspector | None = None
        if self.inspector_mode == "incremental":
            self._incremental = IncrementalInspector(
                self.graph,
                self.partition,
                self.ctx.rank,
                strategy=self.schedule_strategy,
                ctx=self.ctx,
                cost_model=self.inspector_cost,
            )
            self.inspector: InspectorResult = self._incremental.result
        else:
            self.inspector = self._build_inspector()
        self.ctx.metrics.observe(
            "inspector.initial_build_time", self.inspector.build_time
        )

    @property
    def stats(self) -> SessionStats:
        """This rank's :data:`LEDGER` as recorded so far."""
        return SessionStats(self.ctx.metrics.snapshot())

    # ------------------------------------------------------------------ #
    # phase B plumbing
    # ------------------------------------------------------------------ #

    def _build_inspector(self) -> InspectorResult:
        return run_inspector(
            self.graph,
            self.partition,
            self.ctx.rank,
            strategy=self.schedule_strategy,
            ctx=self.ctx,
            cost_model=self.inspector_cost,
        )

    def _rebuild_inspector(self) -> InspectorResult:
        """Phase B after a remap: incremental patch when configured.

        The incremental inspector diffs against the partition its cached
        result was built for (not the session's transient ``partition``),
        so the recovery path — which restores the checkpoint partition
        before remapping to the survivor split — patches correctly too.
        """
        if self._incremental is not None:
            return self._incremental.rebuild(self.partition)
        return self._build_inspector()

    @property
    def schedule(self):
        """The current communication schedule (tracks remaps)."""
        return self.inspector.schedule

    @property
    def kernel_plan(self):
        """The current kernel plan (tracks remaps)."""
        return self.inspector.kernel_plan

    def interval(self) -> tuple[int, int]:
        """This rank's current [lo, hi) block of the 1-D list."""
        return self.partition.interval(self.ctx.rank)

    @property
    def active(self) -> np.ndarray:
        """Current active-rank mask (all-true without a membership trace)."""
        if self.elastic is not None:
            return self.elastic.active
        return np.ones(self.ctx.size, dtype=bool)

    @property
    def static(self) -> bool:
        """No load-balance config: the run never adapts voluntarily."""
        return self.lb is None

    def _remap_decision(
        self,
        fields: Sequence[np.ndarray],
        next_iteration: int,
        span: float,
        *,
        report: np.ndarray | None = None,
        events: Sequence = (),
        force: bool = False,
    ) -> Decision:
        """Price a remap, cap its horizon, decide; SPMD collective.

        The one path the periodic check, a membership batch and the
        recovery share.  The remap is priced for what the packed exchange
        will really ship — every field plus the slab bounds (with no
        fields at all it only moves ownership and rebuilds schedules) —
        plus every rank's schedule rebuild, priced by the cost model that
        charges it (:class:`~repro.runtime.incremental.RebuildPrice`).
        All inputs are identical on every rank, keeping decisions
        collective.

        With *report* (this rank's time per item, its persistence and its
        latest sample's time per item) the configured :func:`check`
        protocol collects every rank's report; without it the decision
        is evaluated redundantly from replicated inputs
        (:func:`membership_decision`), for the *events* of a membership
        batch or a recovery's survivor split.
        """
        pricing = dict(num_fields=len(fields) or 1, rebuild=self._rebuild)
        remaining = max(self.total_iterations - next_iteration, 0)
        if self.elastic is not None:
            remaining = self._capped_remaining(remaining, span)
        if report is not None:
            return check(
                self.ctx, self.lb.style, self.partition, report, remaining,
                active=self.active, **pricing,
            )
        assert self.elastic is not None
        mask = self.elastic.active
        if self.static:
            # The baseline's mandatory drain targets only the active ranks
            # already holding data — otherwise a later departure would
            # smuggle data onto a joiner the baseline never adopted.  A
            # replace's designated successor is the explicit exception
            # (the operator swapped the machine *in order to* hand over).
            # If the departing ranks held everything, fall back to the
            # full active set: the data must land somewhere.
            holders = mask & (self.partition.sizes() > 0)
            for ev in events:
                if ev.kind == "replace" and mask[ev.replacement]:
                    holders[ev.replacement] = True
            if holders.any():
                mask = holders
        return membership_decision(
            self.ctx,
            self.partition,
            mask,
            remaining,
            force=force,
            iteration_span=span if span > 0 else None,
            **pricing,
        )

    def _capped_remaining(self, remaining: int, span: float) -> int:
        """Cap the profitability horizon at the next *announced* change.

        The membership trace is replicated, announced schedule: a remap
        can only pay until the next membership event rips the arrangement
        up again.  *span* is the last synchronized iteration duration;
        both inputs are identical on every rank, so the cap is too.
        """
        assert self.elastic is not None
        nxt = self.elastic.trace.next_change_after(self.ctx.clock)
        if np.isfinite(nxt) and span > 0:
            until_change = int((nxt - self.ctx.clock) / span)
            remaining = min(remaining, max(until_change, 0))
        return remaining

    # ------------------------------------------------------------------ #
    # phase D proper
    # ------------------------------------------------------------------ #

    def record(self, compute_seconds: float, items: int) -> None:
        """Feed one iteration's compute sample to the load monitor (and
        to ``compute_time``)."""
        self.monitor.record(compute_seconds, items)
        self.ctx.metrics.observe("exec.compute_time", compute_seconds)

    def check_due(self, iteration: int) -> bool:
        """Whether :meth:`maybe_rebalance` would run a check now.

        *iteration* is 0-based; checks fire every ``check_interval``
        completed iterations, never after the final one (there is nothing
        left to rebalance for), and only once the monitor has a window.

        The window clause must evaluate identically on every rank or the
        collective check deadlocks.  Under elastic membership the local
        window is *not* a reliable collective signal (a rank that just
        joined, or owns an empty interval, has none while its peers do),
        so every due check runs and windowless ranks report ``nan`` for
        :func:`decide` to impute.  Without a trace the legacy gate stands,
        extended to empty intervals (which can never fill a window but
        must still participate).
        """
        if self.static:
            return False
        done = iteration + 1
        if done % self.lb.check_interval != 0 or done >= self.total_iterations:
            return False
        if self.elastic is not None:
            return True
        return (
            self.monitor.has_window
            or self.partition.size(self.ctx.rank) == 0
        )

    def maybe_rebalance(
        self, iteration: int, fields: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Run Phase D at the end of *iteration* (0-based); SPMD collective.

        Elastic membership events that fired during the iteration are
        applied first (:meth:`poll_membership`); a departure drains the
        leaving rank's fields regardless of the load-balance style.  A
        :class:`Phase` starting at the next iteration with a partition
        remaps *fields* to it.  Otherwise, when a check is due, every rank
        contributes its monitored load to the configured protocol; if the
        collective decision says remap, *fields* are redistributed to the
        new partition and the inspector is rebuilt.
        With a checkpoint policy configured, a due boundary additionally
        replicates the (possibly remapped) state as a fresh epoch; a
        ``fail`` event detected by the poll instead triggers the rollback
        recovery and skips the periodic check (the world was just
        repartitioned from the checkpoint).  Returns the (possibly moved)
        fields.
        """
        if self._resume_at is not None:
            # A rollback armed the rewind at a previous boundary and the
            # driver marched on anyway: its loop counter no longer means
            # what the session thinks it means, and silently continuing
            # would skip the re-execution of the discarded iterations.
            raise ResilienceError(
                "next_iteration() was not consulted after a rollback; a "
                "driver of a resilient session must advance its loop with "
                "session.next_iteration(iteration), as run_program does"
            )
        # Synchronized boundary clock (the caller barriers first): the
        # replicated time reference every rank's checkpoint policy sees,
        # unpolluted by the per-rank skew a no-remap check leaves behind.
        boundary_clock = self.ctx.clock
        fields = self.poll_membership(iteration, fields)
        if self._resume_at is not None:
            # A rollback just restored and re-checkpointed the world;
            # the driver must now consult next_iteration().
            return fields
        given = self._given.get(iteration + 1)
        if given is not None:
            if np.any(~self.active & (given.sizes() > 0)):
                raise LoadBalanceError(
                    f"the phase starting at iteration {iteration + 1} "
                    f"assigns elements to inactive ranks"
                )
            fields = self._remap(given, fields)
            # The samples so far measured the structure that just ended.
            self.monitor.reset_window()
            return self._maybe_checkpoint(iteration, boundary_clock, fields)
        if not self.check_due(iteration):
            return self._maybe_checkpoint(iteration, boundary_clock, fields)
        ctx = self.ctx
        t0 = ctx.clock
        with ctx.tracer.span("lb-check", label=self.lb.style):
            time_per_item = (
                self.monitor.avg_time_per_item()
                if self.monitor.has_window
                else float("nan")  # empty interval: decide() imputes
            )
            if self._predictor is not None and np.isfinite(time_per_item):
                # Footnote 2: forecast next-phase capability from history.
                self._predictor.observe(1.0 / time_per_item)
                time_per_item = 1.0 / self._predictor.predict()
            report = np.array([
                time_per_item,
                self.monitor.persistence(LOAD_TOLERANCE),
                self.monitor.latest_time_per_item,
            ])
            decision = self._remap_decision(
                fields, iteration + 1, self._last_span, report=report
            )
        ctx.metrics.observe("lb.check_time", ctx.clock - t0)
        ctx.metrics.count("lb.checks")
        self.monitor.reset_window()
        if decision.remap:
            fields = self._remap(
                decision.new_partition, fields, price=decision.remap_cost
            )
        return self._maybe_checkpoint(iteration, boundary_clock, fields)

    def poll_membership(
        self, iteration: int, fields: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Apply membership events up to the current clock; SPMD collective.

        Must be called at a *synchronized* virtual time — in practice right
        after the iteration barrier, which is why membership runs require
        per-iteration barriers — so every rank consumes the same event
        window and evaluates :func:`membership_decision` on identical
        inputs.  Departures (leave/replace) force the remap; a batch of
        pure joins only remaps if the profitability test accepts the grown
        pool.  No messages move: the trace is replicated knowledge.
        """
        fields = list(fields)
        if self.elastic is None:
            return fields
        ctx = self.ctx
        t0 = ctx.clock
        # Barrier-to-barrier span of the iteration that just ended: a
        # synchronized clock minus a synchronized clock, so identical on
        # every rank — the replicated absolute time scale for decisions.
        span = ctx.clock - self._last_sync_clock
        self._last_sync_clock = ctx.clock
        self._last_span = span
        events = self.elastic.poll(ctx.clock)
        if not events:
            return fields
        ctx.metrics.count("membership.events", len(events))
        with ctx.tracer.span(
            "membership-poll", label=f"{len(events)} event(s)"
        ):
            return self._apply_membership_events(
                iteration, fields, events, span, t0
            )

    def _apply_membership_events(
        self,
        iteration: int,
        fields: list[np.ndarray],
        events: Sequence,
        span: float,
        t0: float,
    ) -> list[np.ndarray]:
        """Handle one non-empty membership event batch (poll_membership body)."""
        assert self.elastic is not None
        ctx = self.ctx
        sizes = self.partition.sizes()
        if any(ev.kind == "fail" and sizes[ev.rank] > 0 for ev in events):
            # An unannounced failure of a data holder: its block is gone,
            # so the batch cannot be handled by a forward drain — roll
            # the world back to the checkpoint epoch instead.  Any leaves
            # or joins in the same batch fold into the recovery's target
            # active set.
            return self._recover(fields, span)
        # A failed rank that owned nothing lost nothing (a standby or
        # drained machine's host died): the live state is intact, so the
        # failure degrades to an ordinary membership shrink — no
        # rollback, no re-execution.  `sizes` is replicated, so every
        # rank takes the same branch.  The dead machine may still have
        # held *replicas* of the current epoch (or its own snapshot), so
        # redundancy is degraded: re-replicate over the survivors before
        # a later single failure can look like an unrecoverable double
        # failure.
        refresh = (
            any(ev.kind == "fail" for ev in events)
            and self.resilience is not None
            and self.resilience.checkpoint is not None
            and iteration + 1 < self.total_iterations
        )
        forced = any(ev.kind in ("leave", "replace") for ev in events)
        if not forced and self.static:
            # The static baseline never adapts voluntarily: departures must
            # drain (the data has nowhere else to go), but a join is an
            # opportunity only a balancing run exploits.  The joiner stays
            # active-but-empty.
            if refresh:
                fields = self._take_checkpoint(
                    fields, next_iteration=iteration + 1
                )
            return fields
        decision = self._remap_decision(
            fields, iteration + 1, span, events=events, force=forced
        )
        ctx.metrics.observe("lb.check_time", ctx.clock - t0)
        if decision.remap:
            fields = self._remap(
                decision.new_partition, fields, price=decision.remap_cost
            )
        if refresh:
            fields = self._take_checkpoint(fields, next_iteration=iteration + 1)
        return fields

    # ------------------------------------------------------------------ #
    # resilience: checkpoint epochs and failure recovery
    # ------------------------------------------------------------------ #

    def bootstrap_resilience(
        self, fields: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Establish epoch 0 (the initial state) before the first iteration.

        SPMD collective; a no-op without a checkpoint policy.  Epoch 0 is
        what a failure before the first periodic checkpoint rolls back
        to — without it the run would be unrecoverable in its opening
        iterations.
        """
        fields = list(fields)
        if self.resilience is None:
            return fields
        return self._take_checkpoint(fields, next_iteration=0)

    def next_iteration(self, iteration: int) -> int:
        """The driver loop's successor of *iteration* (0-based).

        Normally ``iteration + 1``; after a rollback, the recovered
        epoch's first uncaptured iteration, so the driver re-executes the
        discarded suffix.  Drivers that feed ``fail`` events through
        :meth:`poll_membership` must advance their loop with this method
        (``run_program`` does).
        """
        if self._resume_at is not None:
            resume = self._resume_at
            self._resume_at = None
            return resume
        return iteration + 1

    def _take_checkpoint(
        self, fields: list[np.ndarray], *, next_iteration: int
    ) -> list[np.ndarray]:
        """Replicate the current state as a fresh epoch; SPMD collective.

        Entered through a barrier so the measured cost is a synchronized
        span — identical on every rank, which is what lets the cost-model
        policy schedule the next epoch without a message.
        """
        res = self.resilience
        assert res is not None
        ctx = self.ctx
        ctx.barrier()
        t0 = ctx.clock
        with ctx.tracer.span("checkpoint", label=f"epoch {res.epochs_taken}"):
            res.checkpoint = take_checkpoint(
                ctx,
                self.partition,
                fields,
                self.active,
                next_iteration=next_iteration,
                epoch=res.epochs_taken,
                replication_factor=res.policy.replication_factor,
            )
        res.measured_cost = ctx.clock - t0
        res.epochs_taken += 1
        ctx.metrics.observe("cp.checkpoint_time", res.measured_cost)
        ctx.metrics.count("cp.checkpoints")
        # The next iteration-span sample starts where the checkpoint
        # ended, not where the iteration did.
        self._last_sync_clock = ctx.clock
        return fields

    def _maybe_checkpoint(
        self,
        iteration: int,
        boundary_clock: float,
        fields: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Consult the policy at a boundary; replicate when due.

        Never fires after the final iteration (there is nothing left to
        protect).  All policy inputs are replicated — the iteration, the
        synchronized boundary clock, the last epoch's synchronized clock
        and measured cost — so every rank reaches the same conclusion.
        """
        res = self.resilience
        if res is None or iteration + 1 >= self.total_iterations:
            return fields
        cp = res.checkpoint
        if cp is not None and cp.clock >= boundary_clock:
            # An epoch was already taken at this very boundary (a
            # redundancy refresh after a data-less failure): don't
            # replicate the identical state twice.  Both clocks are
            # synchronized, so every rank skips together.
            return fields
        due = res.policy.due(
            iteration,
            boundary_clock,
            last_checkpoint_clock=cp.clock if cp is not None else 0.0,
            checkpoint_cost=res.measured_cost,
        )
        if due:
            fields = self._take_checkpoint(
                fields, next_iteration=iteration + 1
            )
        return fields

    def _recover(
        self, fields: Sequence[np.ndarray], span: float
    ) -> list[np.ndarray]:
        """Roll back to the last epoch and repartition onto the survivors.

        SPMD collective, entered from :meth:`poll_membership` when the
        event window contains a ``fail``.  Every rank discards its
        current fields, restores its snapshot of the checkpoint epoch,
        and the epoch is redistributed from the checkpoint partition to a
        fresh MCR split over the surviving active set — with the dead
        ranks' slabs shipped by their checkpoint partners.  Virtual
        clocks never roll back: the discarded progress is the failure's
        price, accounted in ``stats.lost_time``.  Finishes by taking a
        fresh epoch of the recovered state (bounding the next rollback)
        and arming :meth:`next_iteration` with the epoch's iteration.
        """
        res = self.resilience
        assert self.elastic is not None
        if res is None:  # pragma: no cover - construction forbids this
            raise ResilienceError(
                "a rank failed but no checkpoint policy is configured"
            )
        cp = res.checkpoint
        if cp is None:
            raise ResilienceError(
                "a rank failed before any checkpoint epoch was "
                "established; call bootstrap_resilience() before the "
                "first iteration"
            )
        ctx = self.ctx
        t0 = ctx.clock
        ctx.metrics.observe("cp.lost_time", max(ctx.clock - cp.clock, 0.0))
        ctx.metrics.count("cp.rollbacks")
        with ctx.tracer.span("recovery", label=f"resume@{cp.next_iteration}"):
            # Restore the epoch: replicated partition, snapshot data.  The
            # incoming fields (post-checkpoint progress) are discarded.
            self.partition = cp.partition
            fields = [s.copy() for s in cp.snapshot]
            self.monitor.reset_window()
            # Survivor split: mandatory (the dead rank holds epoch data while
            # inactive).  The static baseline keeps its drain-only semantics:
            # data lands only on active ranks that already hold some.
            decision = self._remap_decision(
                fields, cp.next_iteration, span, force=True
            )
            assert decision.remap and decision.new_partition is not None
            host0 = time.perf_counter()
            fields = recover_redistribute_fields(
                ctx,
                cp.partition,
                decision.new_partition,
                fields,
                failed=self.elastic.failed,
                partners=cp.partners,
                replicas=cp.replicas,
            )
            ctx.metrics.observe(
                "lb.redistribute_host_time", time.perf_counter() - host0
            )
            self.partition = decision.new_partition
            self.inspector = self._rebuild_inspector()
            ctx.barrier()
        ctx.metrics.observe("cp.rollback_time", ctx.clock - t0)
        self._resume_at = cp.next_iteration
        return self._take_checkpoint(
            fields, next_iteration=cp.next_iteration
        )

    def _remap(
        self,
        new_partition: IntervalPartition,
        fields: Sequence[np.ndarray],
        *,
        price: float | None = None,
    ) -> list[np.ndarray]:
        """Redistribute *fields* to *new_partition*, rebuild, synchronize.

        The one remap path of an approved decision and of a given
        :class:`Phase` partition.  The ``remap`` span's label is the
        *price* a decision put on it, which ``repro trace summary`` prints
        beside the span's charge (empty for a given partition).
        """
        label = "" if price is None else f"{PRICE_LABEL}{price!r}"
        ctx = self.ctx
        fields = list(fields)
        t0 = ctx.clock
        with ctx.tracer.span("remap", label=label):
            if fields:
                host0 = time.perf_counter()
                fields = redistribute_fields(
                    ctx, self.partition, new_partition, fields
                )
                ctx.metrics.observe(
                    "lb.redistribute_host_time", time.perf_counter() - host0
                )
            self.partition = new_partition
            self.inspector = self._rebuild_inspector()
            ctx.barrier()
        ctx.metrics.observe("lb.remap_time", ctx.clock - t0)
        ctx.metrics.count("lb.remaps")
        # The next iteration-span sample (membership runs) starts where the
        # remap ended: a synchronized clock, after the barrier.
        self._last_sync_clock = ctx.clock
        return fields
