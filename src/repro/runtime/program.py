"""High-level driver: the four-phase runtime of the paper's Fig. 1.

:func:`run_program` executes an iterative irregular computation (the Fig. 8
kernel) over a simulated cluster, wiring together:

* **Phase A** — a 1-D ordering of the graph + proportional interval split;
* **Phase B** — the inspector (translation + communication schedule);
* **Phase C** — the executor loop (gather, kernel sweep, barrier);
* **Phase D** — optional adaptive load balancing, delegated to
  :class:`repro.runtime.adaptive.AdaptiveSession` (monitor, strategy
  check every ``check_interval`` iterations, MCR repartition, packed
  redistribution, inspector rebuild).

The report carries final values (in original vertex numbering), virtual
phase times, and load-balancing statistics — everything Tables 4 and 5 are
made of.

Footnote 1's *adaptive applications* are the same loop: a run takes
:class:`~repro.runtime.adaptive.Phase` s, whose weights scale the sweep
charge and whose partitions Phase D remaps to.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    LoadBalanceError,
    ResilienceError,
    ScheduleError,
)
from repro.graph.csr import CSRGraph
from repro.net.cluster import ClusterSpec
from repro.net.loadmodel import MembershipTrace
from repro.net.network import PointToPointNetwork, SharedEthernet
from repro.net.spmd import SPMDResult, one_cpu, run_spmd
from repro.net.trace import TraceLog
from repro.partition.intervals import IntervalPartition, partition_list
from repro.partition.ordering import OrderingMethod
from repro.partition.rcb import RCBOrdering
from repro.runtime.adaptive import (
    AdaptiveSession,
    LoadBalanceConfig,
    Phase,
    resolve_load_balance,
)
from repro.runtime.adaptive.session import LEDGER, SessionStats, ledger_value
from repro.runtime.executor import ExecutorCostModel, ExecutorScratch, gather
from repro.runtime.incremental import check_inspector_mode
from repro.runtime.kernels import KernelCostModel
from repro.runtime.resilience import (
    effective_replication_factor,
    require_checkpoint,
)
from repro.runtime.schedule_builders import InspectorCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.resilience import CheckpointPolicy

__all__ = ["VIRTUAL", "ProgramConfig", "ProgramReport", "run_program"]

#: What one sim-world cost model makes identical between two runs of one
#: program: the makespan and every :data:`LEDGER` aggregate but host
#: seconds.  The oracle, the scale tier and the sweeps read it here.
VIRTUAL = ("makespan", *(n for n in LEDGER if not n.endswith("_host_s")))

#: Edge references per rank below which a sim-world run's rank threads
#: share one CPU (:func:`~repro.net.spmd.one_cpu`).  Such a run's host time
#: goes to handing the GIL between rank threads, and a hand-off that wakes
#: a thread on another core costs more than the sweeps it would overlap.
#: Larger runs keep every CPU: their numpy sweeps release the GIL.
#: docs/architecture.md ("Execution worlds") has the measured crossover.
ONE_CPU_BELOW_REFS_PER_RANK = 2**15


@dataclass(frozen=True)
class ProgramConfig:
    """Configuration of one program run."""

    iterations: int = 100
    strategy: str = "sort2"
    #: Phase B rebuild mode after a remap: "full" re-runs the inspector
    #: from scratch (the paper's protocol), "incremental" patches the
    #: previous schedule/plan through the boundary diff
    #: (:mod:`repro.runtime.incremental`) — bit-identical results, a
    #: fraction of the rebuild cost.  Requires a sorting strategy.
    inspector_mode: str = "full"
    # bench/tracing.py passes this; ROADMAP item 3 deletes it.
    backend = None
    ordering: OrderingMethod | None = None  # None -> RCB (or identity if no coords)
    #: "speeds" (split by known base speeds), "equal" (the paper's adaptive
    #: experiment: "the graph was decomposed assuming all the processors had
    #: equal computational ratio"), or an explicit capability vector.
    initial_capabilities: str | Sequence[float] = "speeds"
    #: Phase D: a :class:`LoadBalanceConfig`, a name ("off" |
    #: "centralized" | "distributed", default options), or None (same as
    #: "off").  Normalized to LoadBalanceConfig | None on init
    #: (:func:`~repro.runtime.adaptive.resolve_load_balance`).
    load_balance: LoadBalanceConfig | str | None = None
    #: Elastic membership: a :class:`~repro.net.loadmodel.MembershipTrace`,
    #: a DSL string ("leave:0@9.5, join:2@20"), or None.  A trace given
    #: here overrides the cluster's own ``ClusterSpec.membership``; the DSL
    #: string is resolved against the cluster size at run time.
    membership: MembershipTrace | str | None = None
    #: Checkpoint policy (:mod:`repro.runtime.resilience`): a
    #: :class:`~repro.runtime.resilience.CheckpointPolicy`, a DSL string
    #: ("interval:4" = every 4 iterations, "cost:50" = Young's interval
    #: for an MTBF estimate of 50 virtual seconds), or None.  Required
    #: when the membership trace contains unannounced ``fail`` events;
    #: allowed without one (the overhead-only baseline the
    #: ``scale-resilience`` experiments measure).
    #: The DSL's ``:rF`` suffix ("interval:4:r2") sets how many ring
    #: successors hold each data-holding rank's epoch.
    checkpoint: "CheckpointPolicy | str | None" = None
    kernel_cost: KernelCostModel = KernelCostModel()
    inspector_cost: InspectorCostModel = InspectorCostModel()
    executor_cost: ExecutorCostModel = ExecutorCostModel()
    trace: bool = False
    #: Ring-buffer cap on the trace event log (``None`` = unbounded).
    #: With a cap, the newest events win and
    #: :attr:`~repro.net.trace.TraceLog.dropped_events` counts evictions —
    #: tracing a scale-huge run cannot OOM (the ``--trace-capacity`` knob).
    trace_capacity: int | None = None
    #: Execution world: "sim" (threads + virtual clocks, the default) or
    #: "real" (one OS process per rank over loopback sockets, wall-clock
    #: time).  Final field values are bit-identical between the two; time
    #: and cost metrics are virtual vs measured.  See docs/architecture.md
    #: "Execution worlds".
    world: str = "sim"
    #: Host timeout for blocking receives in seconds; ``None`` resolves
    #: through ``REPRO_RECV_TIMEOUT`` and then the library default (the
    #: ``--recv-timeout`` CLI knob).
    recv_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}"
            )
        from repro.net.spmd import WORLDS

        if self.world not in WORLDS:
            raise ConfigurationError(
                f"unknown execution world {self.world!r}; pick from {WORLDS}"
            )
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1 (or None for unbounded), got "
                f"{self.trace_capacity}"
            )
        try:
            check_inspector_mode(self.inspector_mode, self.strategy)
            object.__setattr__(
                self, "load_balance", resolve_load_balance(self.load_balance)
            )
        except (ScheduleError, LoadBalanceError) as exc:
            raise ConfigurationError(str(exc)) from None
        if self.recv_timeout is not None and self.recv_timeout <= 0:
            raise ConfigurationError(
                f"recv_timeout must be > 0 seconds, got {self.recv_timeout}"
            )
        if self.checkpoint is not None:
            from repro.runtime.resilience import resolve_checkpoint_policy

            # Normalize eagerly so a malformed --checkpoint DSL fails at
            # configuration time, not inside the rank threads.
            object.__setattr__(
                self, "checkpoint", resolve_checkpoint_policy(self.checkpoint)
            )


@dataclass
class ProgramReport:
    """Outcome of :func:`run_program`.

    Every :data:`LEDGER` name is an attribute, aggregated over the ranks'
    registries: a counter with a desync error must be equal on every rank
    (else that error is raised), a time is the maximum over ranks.
    """

    values: np.ndarray  # final y, original vertex numbering
    makespan: float
    clocks: list[float]
    #: Each rank's :mod:`repro.obs` registry snapshot, rank order.
    metrics_by_rank: list[dict[str, Any]]
    cluster: ClusterSpec
    config: ProgramConfig
    work_per_iteration: float  # unit-speed seconds of one whole-graph sweep
    trace: TraceLog | None = None
    partition_final: IntervalPartition | None = None
    #: Merged snapshot (counters summed, gauges maxed, histograms folded
    #: across ranks).
    metrics: dict[str, Any] | None = None

    def __getattr__(self, name: str) -> Any:
        if name not in LEDGER:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        if not self.metrics_by_rank:
            # Aggregates over zero ranks are undefined: say so instead of
            # a bare ValueError from max() or a misleading desync error.
            raise ConfigurationError(
                f"{name} is undefined: this report carries no per-rank metrics"
            )
        per_rank = {
            rank: ledger_value(snapshot, name)
            for rank, snapshot in enumerate(self.metrics_by_rank)
        }
        error = LEDGER[name][1]
        if error is None:
            return max(per_rank.values())
        if len(set(per_rank.values())) != 1:
            raise error(
                f"ranks disagree on {name}: {per_rank} — Phase D desynchronized"
            )
        return per_rank[0]

    @property
    def rank_stats(self) -> list[SessionStats]:
        """Each rank's :data:`LEDGER`, by name."""
        return [SessionStats(snapshot) for snapshot in self.metrics_by_rank]

    @property
    def total_work_seconds(self) -> float:
        """Unit-speed work of the whole run (for efficiency metrics)."""
        return self.work_per_iteration * self.config.iterations

    def virtual_metrics(self) -> dict[str, float]:
        """:data:`VIRTUAL` by name."""
        return {name: float(getattr(self, name)) for name in VIRTUAL}

    def differences(
        self, other: "ProgramReport", *, virtual: bool
    ) -> list[str]:
        """The differential rule: where two runs of one program disagree.

        Two runs that differ only in a *neutral axis* — tracing,
        inspector mode, execution world — must compute the same final
        values, bit for bit.  When both ran on the sim world's one cost
        model (*virtual*), per-rank clocks and :data:`VIRTUAL` must be
        identical too.  One message per differing field, naming it.  A
        counter that raises on desync is skipped: that is one run's own
        defect (reading it reports it), not a difference between the two.
        """
        out = []
        if not np.array_equal(self.values, other.values):
            out.append("final values differ")
        if not virtual:
            return out
        if self.clocks != other.clocks:
            out.append(
                f"per-rank clocks differ: {self.clocks} vs {other.clocks}"
            )
        for name in VIRTUAL:
            try:
                a, b = getattr(self, name), getattr(other, name)
            except (LoadBalanceError, ResilienceError):
                continue
            if a != b:
                out.append(f"{name} differs: {a!r} vs {b!r}")
        return out


def _initial_capabilities(
    config: ProgramConfig, cluster: ClusterSpec
) -> np.ndarray:
    spec = config.initial_capabilities
    if isinstance(spec, str):
        if spec == "speeds":
            return cluster.speeds
        if spec == "equal":
            return np.ones(cluster.size)
        raise ConfigurationError(
            f"initial_capabilities must be 'speeds', 'equal', or a vector; "
            f"got {spec!r}"
        )
    caps = np.asarray(spec, dtype=np.float64)
    if caps.shape != (cluster.size,):
        raise ConfigurationError(
            f"capability vector has shape {caps.shape}, cluster has "
            f"{cluster.size} processors"
        )
    return caps


def _pick_ordering(config: ProgramConfig, graph: CSRGraph) -> OrderingMethod:
    if config.ordering is not None:
        return config.ordering
    if graph.coords is not None:
        return RCBOrdering()
    from repro.partition.ordering import IdentityOrdering

    return IdentityOrdering()


def _shares_one_cpu(
    gperm: CSRGraph, cluster: ClusterSpec, config: ProgramConfig
) -> bool:
    """Whether this run's rank threads share one CPU.  Only sim-world runs
    on point-to-point links qualify: real-world ranks are forked processes
    that would inherit the pin, and the shared Ethernet grants its medium
    in thread arrival order, which the pin would change."""
    if config.world != "sim":
        return False
    if gperm.indices.size / cluster.size >= ONE_CPU_BELOW_REFS_PER_RANK:
        return False
    network = cluster.make_network()
    return isinstance(network, PointToPointNetwork) and not isinstance(
        network, SharedEthernet
    )


def _check_phases(
    phases: Sequence[Phase], n: int, size: int, iterations: int
) -> tuple[Phase, ...]:
    """*phases* as a run consumes them: led by one starting at 0."""
    phases = tuple(phases)
    starts = [phase.start for phase in phases]
    bad = starts != sorted(set(starts)) or any(
        not 0 <= start < iterations for start in starts
    )
    for phase in phases:
        part = phase.partition
        bad |= phase.weights is not None and np.shape(phase.weights) != (n,)
        bad |= part is not None and part.num_elements != n
        bad |= part is not None and part.num_processors != size
    if bad:
        raise ConfigurationError(
            f"phases must start in increasing order within [0, "
            f"{iterations}), with ({n},) weights and partitions of {n} "
            f"elements over {size} processors"
        )
    if not starts or starts[0] > 0:
        phases = (Phase(0), *phases)
    return phases


def _rank_main(
    ctx: Any,
    gperm: CSRGraph,
    y_init: np.ndarray,
    caps: np.ndarray,
    config: ProgramConfig,
    phases: tuple[Phase, ...],
) -> dict[str, Any]:
    with ctx.tracer.span("program", label=f"world={config.world}"):
        out = _rank_body(ctx, gperm, y_init, caps, config, phases)
    out["metrics"] = ctx.metrics.snapshot()
    return out


def _rank_body(
    ctx: Any,
    gperm: CSRGraph,
    y_init: np.ndarray,
    caps: np.ndarray,
    config: ProgramConfig,
    phases: tuple[Phase, ...],
) -> dict[str, Any]:
    n = gperm.num_vertices
    starts = [phase.start for phase in phases]

    # Phase D lives in one place: the session builds the inspector, owns
    # the monitor, and runs the strategy check / packed remap / rebuild.
    session = AdaptiveSession(
        ctx,
        gperm,
        phases[0].partition or partition_list(n, caps),
        total_iterations=config.iterations,
        lb=config.load_balance,
        schedule_strategy=config.strategy,
        inspector_cost=config.inspector_cost,
        checkpoint=config.checkpoint,
        inspector_mode=config.inspector_mode,
        phases=phases,
    )
    lo, hi = session.interval()
    local = y_init[lo:hi].copy()
    # Ghost receive buffers are reused across iterations (the payloads a
    # gather *sends* are still freshly packed — in-flight sim messages
    # alias the sender's buffers, so those must never be recycled).
    scratch = ExecutorScratch()
    (local,) = session.bootstrap_resilience((local,))

    # A while-loop, not `for`: after a failure rollback the session's
    # next_iteration() rewinds to the recovered epoch's iteration and the
    # discarded suffix is re-executed.
    it = 0
    while it < config.iterations:
        # By iteration, not by boundary: a rollback may rewind past one.
        weights = phases[bisect_right(starts, it) - 1].weights
        with ctx.tracer.span("epoch", label=f"iter {it}"):
            with ctx.tracer.span("executor"):
                ghost = gather(
                    ctx, session.schedule, local,
                    cost_model=config.executor_cost, scratch=scratch,
                )
                t0 = ctx.clock
                local = session.kernel_plan.sweep(local, ghost)
                refs, items = session.kernel_plan.n_references, local.size
                if weights is not None:
                    # A refined vertex does proportionally more work on
                    # all its terms: its references and its update.
                    lo, hi = session.interval()
                    w = weights[lo:hi]
                    refs = float(w @ np.diff(gperm.indptr[lo : hi + 1]))
                    items = float(w.sum())
                ctx.compute(
                    config.kernel_cost.sweep_seconds(refs, items), label="kernel"
                )
            session.record(ctx.clock - t0, int(local.size))
            ctx.barrier()
            (local,) = session.maybe_rebalance(it, (local,))
        it = session.next_iteration(it)

    # Final assembly at rank 0.
    lo, hi = session.interval()
    pieces = ctx.gather((lo, local), root=0)
    full = None
    if ctx.rank == 0:
        full = np.empty(n, dtype=np.float64)
        for piece_lo, data in pieces:
            full[piece_lo : piece_lo + data.size] = data
    return {"full": full, "partition": session.partition}


def run_program(
    graph: CSRGraph,
    cluster: ClusterSpec,
    config: ProgramConfig = ProgramConfig(),
    y0: np.ndarray | None = None,
    phases: Sequence[Phase] = (),
) -> ProgramReport:
    """Run the Fig. 8 loop for ``config.iterations`` over *cluster*.

    ``y0`` is the initial value per vertex in the graph's own numbering
    (default: vertex index as a float, which makes convergence toward the
    neighborhood mean easy to eyeball and exactly reproducible).
    ``phases`` (:class:`~repro.runtime.adaptive.Phase`, by increasing
    start) index the ordered 1-D list: give them with an
    :class:`~repro.partition.ordering.IdentityOrdering` over a graph you
    ordered yourself.
    """
    n = graph.num_vertices
    if n == 0:
        raise ConfigurationError("cannot run on an empty graph")
    if y0 is None:
        y0 = np.arange(n, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (n,):
        raise ConfigurationError(f"y0 has shape {y0.shape}, expected ({n},)")
    phases = _check_phases(phases, n, cluster.size, config.iterations)

    # Elastic membership: a config-level trace (or DSL string) overrides
    # the cluster's own; either way the resolved trace rides on the cluster
    # so every rank's session sees it as replicated knowledge.
    from repro.runtime.adaptive import resolve_membership

    trace = resolve_membership(
        config.membership
        if config.membership is not None
        else cluster.membership,
        cluster.size,
    )
    if trace is not None:
        cluster = cluster.with_membership(trace)
    require_checkpoint(trace, config.checkpoint)

    # Phase A: 1-D transformation (done once, offline).
    ordering = _pick_ordering(config, graph)
    perm = ordering(graph)
    gperm = graph.permute(perm)
    y_init = np.empty(n, dtype=np.float64)
    y_init[perm] = y0

    # Surface a replication-factor cap at configuration time (the same
    # warning the checkpoint layer would emit from inside the ranks).
    if config.checkpoint is not None:
        num_active = (
            int(np.count_nonzero(trace.active_mask(0.0)))
            if trace is not None
            else cluster.size
        )
        effective_replication_factor(
            config.checkpoint.replication_factor, num_active
        )

    caps = _initial_capabilities(config, cluster)
    if trace is not None:
        # Standby machines (inactive at t=0) start with nothing; they get
        # elements only if and when a join's profitability test accepts.
        caps = np.where(trace.active_mask(0.0), caps, 0.0)

    # An open obs capture window (repro bench --trace-out) turns tracing
    # on for runs whose config the harness does not own; the obs-neutral
    # invariant guarantees the run's numbers do not change under capture.
    from repro.obs.capture import active_capture

    capture = active_capture()
    want_trace = config.trace or capture is not None
    trace_capacity = config.trace_capacity
    if trace_capacity is None and capture is not None:
        trace_capacity = capture.capacity
    with one_cpu(_shares_one_cpu(gperm, cluster, config)):
        result: SPMDResult = run_spmd(
            cluster,
            _rank_main,
            gperm,
            y_init,
            caps,
            config,
            phases,
            trace=want_trace,
            trace_capacity=trace_capacity,
            world=config.world,
            recv_timeout=config.recv_timeout,
        )
    if capture is not None:
        capture.deposit(
            f"{config.world}:{cluster.size}ranks:{config.iterations}it",
            result.trace,
        )

    full_t = result.values[0]["full"]
    assert full_t is not None
    values = full_t[perm]  # back to original vertex numbering

    kc = config.kernel_cost
    work_per_iter = kc.sweep_seconds(int(gperm.indices.size), n)
    from repro.obs.metrics import merge_snapshots

    per_rank = [v["metrics"] for v in result.values]
    return ProgramReport(
        values=values,
        makespan=result.makespan,
        clocks=result.clocks,
        metrics_by_rank=per_rank,
        cluster=cluster,
        config=config,
        work_per_iteration=work_per_iter,
        trace=result.trace if want_trace else None,
        partition_final=result.values[0]["partition"],
        metrics=merge_snapshots(per_rank),
    )
