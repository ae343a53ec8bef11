"""The decision layer of Phase D: one profitability rule, two protocols.

Sec. 3.5 fixes *what* is decided — :func:`decide`, the rule that
remapping pays iff the predicted per-iteration improvement, summed over
the iterations it is forecast to last, exceeds the estimated remap cost
(redistribution + schedule rebuild), with the new arrangement chosen by
MCR.  Both sides of that test are measured, not assumed:

* the *price* is what the remap will charge: the packed exchange's
  transfer plus the slowest rank's rebuild, each rank's priced by the
  same :class:`~repro.runtime.schedule_builders.InspectorCostModel`
  formula its rebuild charges
  (:class:`~repro.runtime.incremental.RebuildPrice`) at its measured
  slowdown;
* the *horizon* is the remaining iterations, capped at
  :data:`PERSISTENCE_MULTIPLE` times the load's observed persistence
  (the fewest trailing iterations any active rank's time per item has
  stayed within :data:`LOAD_TOLERANCE` of its latest value; unbounded
  while no rank's has ever changed) unless the pattern is quiet.  A
  load seen for one iteration is not forecast for fifty.

Sec. 3.5 then varies two things: how often to check ("the frequency of load
balancing is an important parameter") and how the ``p`` load reports
reach whoever runs the rule.  :func:`check` is that second choice, the
two arms of one function:

* ``"centralized"``, the paper's implementation — "each processor
  monitors its own load and sends it to a controller processor, which
  makes the decision about repartitioning the data ... which broadcasts
  the decision to all the processors": (p-1) unicast load reports + 1
  decision broadcast, the rule evaluated once at rank 0;
* ``"distributed"``, its stated future work — "when better resource
  management tools are available, we hope to have distributed
  strategies": p load multicasts (one hardware multicast per rank on
  Ethernet, O(p^2) unicasts otherwise), the rule evaluated p times
  redundantly — determinism guarantees every rank reaches the identical
  conclusion without exchanging it.

:class:`LoadBalanceConfig` holds the three options a caller sets (check
interval, protocol, predictor); :func:`resolve_load_balance` is the one
place the names ``"off"`` and ``None`` are understood — below it, "no
config" *is* the static run.

:func:`price_checks` applies the same profitability reasoning one level
up, to the checks themselves: before a job runs, it bounds what any
remap could save and what the due checks must cost, so a caller that
knows the placement (the job service) can drop checks that cannot pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.errors import LoadBalanceError
from repro.net.comm import RECV_OVERHEAD
from repro.net.message import Tags
from repro.partition.arrangement import minimize_cost_redistribution
from repro.partition.intervals import IntervalPartition, partition_list
from repro.runtime.adaptive.redistribution import estimate_remap_cost
from repro.runtime.kernels import KernelCostModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.cluster import ClusterSpec
    from repro.net.comm import RankContext
    from repro.runtime.incremental import RebuildPrice

__all__ = [
    "LoadBalanceConfig",
    "Decision",
    "CheckPrice",
    "STRATEGY_NAMES",
    "PROFITABILITY_MARGIN",
    "MIN_IMPROVEMENT",
    "ELEMENT_NBYTES",
    "MCR_SECONDS_PER_P3",
    "PERSISTENCE_MULTIPLE",
    "LOAD_TOLERANCE",
    "resolve_load_balance",
    "decide",
    "check",
    "price_checks",
]

#: The two protocols of :func:`check` — the values
#: :attr:`LoadBalanceConfig.style` takes — and, with "off" in front, the
#: ``--load-balance`` vocabulary.
_PROTOCOLS = ("centralized", "distributed")
STRATEGY_NAMES = ("off", *_PROTOCOLS)

# What Sec. 3.5 fixes rather than varies: constants, not options.
#: Remap only if the predicted savings exceed ``margin`` x the estimated
#: remap cost; 1.0 is the paper's break-even rule.
PROFITABILITY_MARGIN = 1.0
#: The predicted per-iteration improvement must also reach this fraction
#: of the current per-iteration time; filters out remaps that only chase
#: block-rounding noise.
MIN_IMPROVEMENT = 0.02
#: The Fig. 8 fields are double precision: 8 bytes per moved element.
ELEMENT_NBYTES = 8
#: The O(p^3) MCR search always chooses the new arrangement (with
#: :class:`~repro.partition.arrangement.RedistributionCostModel`'s default
#: weights); paper Table 1 measures it at ~2 microseconds x p^3 on the
#: testbed's workstations.
MCR_SECONDS_PER_P3 = 2.0e-6
#: A measured load is forecast to last at most this many times as long as
#: it has been seen to hold: the cap on the profitability horizon.
PERSISTENCE_MULTIPLE = 2.0
#: Two times per item within this relative distance are the same load:
#: the band of the persistence count, and of the quiet pattern (no active
#: rank's speed-normalized time per item above 1 + this times the
#: fastest's), which keeps the whole horizon.
LOAD_TOLERANCE = 0.25


@dataclass(frozen=True)
class LoadBalanceConfig:
    """The options of the load-balancing protocol someone sets.

    ``check_interval`` — iterations between checks (the paper checks every
    10 and calls frequency selection out of scope; the ablation bench
    sweeps it).
    ``style`` — which :func:`check` protocol collects the load reports:
    "centralized" (the paper's implementation) or "distributed" (its
    stated future work).  A static run has no config at all
    (:func:`resolve_load_balance`).
    ``predictor`` — None for the paper's last-phase assumption, or a
    predictor name from :mod:`repro.runtime.prediction` ("trend") to
    forecast capabilities from more than one previous phase (paper
    footnote 2).
    """

    check_interval: int = 10
    style: str = "centralized"
    predictor: str | None = None

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise LoadBalanceError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.style not in _PROTOCOLS:
            raise LoadBalanceError(
                f"style must be one of {_PROTOCOLS}, got {self.style!r}"
            )
        if self.predictor not in (None, "trend"):
            raise LoadBalanceError(
                f"unknown predictor {self.predictor!r}; pick None (the "
                f"last phase) or 'trend'"
            )


def resolve_load_balance(
    spec: "LoadBalanceConfig | str | None", **options: Any
) -> LoadBalanceConfig | None:
    """Normalize a load-balance spec: a config, a name, or ``None``.

    ``None`` and ``"off"`` mean a static run (``None``); a protocol name
    becomes ``LoadBalanceConfig(style=name, **options)``; a config passes
    through unchanged.
    """
    if spec is None or isinstance(spec, LoadBalanceConfig):
        return spec
    if isinstance(spec, str):
        if spec == "off":
            return None
        return LoadBalanceConfig(style=spec, **options)
    raise LoadBalanceError(
        f"cannot resolve a load-balance config from {type(spec).__name__}"
    )


@dataclass(frozen=True)
class Decision:
    """The outcome of one load-balance check (identical on every rank)."""

    remap: bool
    new_partition: IntervalPartition | None
    predicted_current: float  # predicted next-phase time under current split
    predicted_balanced: float  # predicted next-phase time after remap
    remap_cost: float  # priced redistribution + slowest rebuild


def decide(
    ctx: "RankContext",
    partition: IntervalPartition,
    times_per_item: np.ndarray,
    remaining_iterations: int,
    *,
    num_fields: int = 1,
    rebuild: "RebuildPrice | None" = None,
    persistence: np.ndarray | None = None,
    active: np.ndarray | None = None,
    force: bool = False,
) -> Decision:
    """The shared deterministic decision function (Sec. 3.5).

    Given every processor's monitored average compute time per item,
    predicts the per-iteration time under the current and rebalanced
    partitions, prices the remap (MCR arrangement + transfer plan +
    schedule rebuild), forecasts how long the measured load lasts, and
    remaps iff the predicted saving over that horizon exceeds the price.
    Deterministic in its inputs, which is what lets the distributed
    :func:`check` evaluate it redundantly on every rank without a
    decision broadcast.

    Every value that can change the outcome is an argument here or a
    module constant above:

    * *num_fields* — how many field arrays the packed exchange will ship,
      so the priced transfer matches what :func:`redistribute_fields`
      moves;
    * *rebuild* — prices each rank's Phase B rebuild for the candidate
      partition (:class:`~repro.runtime.incremental.RebuildPrice`, built
      from the cost model the session charges with).  Each rank's
      unloaded price is scaled by its measured slowdown — its time per
      item over the fastest speed-normalized one, ``times[r] /
      min(times * speeds)`` over active ranks — and the slowest rank's is
      added to the transfer: the barrier after the rebuild waits for it.
      None prices no rebuild (a caller with no schedule to rebuild);
    * *persistence* — per rank, the trailing iterations its time per item
      has held, ``inf`` while it has never changed
      (:meth:`~repro.runtime.monitor.LoadMonitor.persistence`).
      The horizon is *remaining_iterations* capped at
      :data:`PERSISTENCE_MULTIPLE` x the minimum over active ranks,
      unless the pattern is quiet (no active rank's ``times * speeds``
      above ``1 + LOAD_TOLERANCE`` of the fastest's): a balanced load
      keeps the whole horizon, so the remap back from a departed load
      is not stranded.  None keeps the whole horizon (replicated inputs
      with no history: a membership batch, a recovery).

    Elastic membership threads through two extra inputs:

    * *active* — boolean mask of the participating ranks.  Inactive ranks
      get capability 0 (the new partition assigns them nothing); if an
      inactive rank still *holds* elements, the current split is infeasible
      (its predicted time is infinite) and remapping is unconditionally
      profitable — a departure makes rebalancing mandatory by construction.
    * *force* — remap regardless of the profitability test (a replace event
      must move data even when the predicted times break even).

    A ``nan`` entry in *times_per_item* marks a rank without a monitor
    window (a standby machine, or a just-joined rank that owns nothing
    yet).  Its time is imputed from the cluster's *base* speed ratios — a
    deterministic, clock-independent input, so redundant evaluation on
    ranks with different virtual clocks still reaches one conclusion.

    Every :class:`Decision` field is a Python ``float``: the centralized
    protocol pickles the decision, and its size is priced.
    """
    times_per_item = np.asarray(times_per_item, dtype=np.float64).copy()
    p = times_per_item.size
    if active is None:
        active = np.ones(p, dtype=bool)
    else:
        active = np.asarray(active, dtype=bool)
        if active.shape != (p,):
            raise LoadBalanceError(
                f"active mask has shape {active.shape}, expected ({p},)"
            )
        if not active.any():
            raise LoadBalanceError("cannot decide with no active ranks")
    missing = np.isnan(times_per_item)  # the documented no-window sentinel
    reported = ~missing
    if np.any(times_per_item[reported] <= 0) or not np.all(
        np.isfinite(times_per_item[reported])
    ):
        raise LoadBalanceError(
            f"invalid load reports: {times_per_item.tolist()}"
        )
    speeds = ctx.cluster.speeds
    if missing.any():
        # Impute missing windows from base speeds: time_i * speed_i is the
        # (machine-independent) unit work per item, estimated from the
        # ranks that did report.
        if reported.any():
            unit_work = float(
                np.median(times_per_item[reported] * speeds[reported])
            )
        else:
            unit_work = 1.0
        times_per_item[missing] = unit_work / speeds[missing]
    sizes = partition.sizes().astype(np.float64)
    n = partition.num_elements
    # Predicted next-phase (per-iteration) time under the current split:
    # the slowest processor bounds the loosely synchronous iteration.  An
    # inactive rank that still holds elements can never finish them.
    if np.any((sizes > 0) & ~active):
        predicted_current = float("inf")
    else:
        predicted_current = float(np.max(sizes * times_per_item))
    # Estimated capabilities for the next phase (items/second), assuming
    # the environment persists ("the computational resources allocated ...
    # are the same as for the previous phase").  Inactive ranks contribute
    # no capability and receive no elements.
    capabilities = np.where(active, 1.0 / times_per_item, 0.0)
    predicted_balanced = float(n / capabilities.sum())

    ctx.compute(MCR_SECONDS_PER_P3 * ctx.size**3, label="mcr")
    arrangement = minimize_cost_redistribution(
        partition.owners,
        sizes / max(sizes.sum(), 1.0),
        capabilities / capabilities.sum(),
        n,
    )
    new_partition = partition_list(
        n, capabilities / capabilities.sum(), arrangement
    )
    # Speed-normalized time per item: unit work x (1 + load).  Its
    # minimum over active ranks stands in for the unloaded unit work.
    normalized = times_per_item * speeds
    unloaded = float(np.min(normalized[active]))
    remap_cost = float(
        estimate_remap_cost(
            ctx.network,
            partition,
            new_partition,
            ELEMENT_NBYTES,
            num_fields=num_fields,
        )
    )
    if rebuild is not None:
        slowdown = times_per_item / unloaded
        remap_cost += float(
            np.max(rebuild.seconds(partition, new_partition) * slowdown)
        )
    horizon = float(remaining_iterations)
    quiet = np.max(normalized[active]) <= (1.0 + LOAD_TOLERANCE) * unloaded
    if persistence is not None and not quiet:
        held = float(np.min(np.asarray(persistence, dtype=np.float64)[active]))
        horizon = min(horizon, PERSISTENCE_MULTIPLE * held)
    if np.isinf(predicted_current):
        profitable = True
    else:
        savings = (predicted_current - predicted_balanced) * horizon
        relative_gain = (
            (predicted_current - predicted_balanced) / predicted_current
            if predicted_current > 0
            else 0.0
        )
        profitable = (
            savings > PROFITABILITY_MARGIN * remap_cost
            and relative_gain >= MIN_IMPROVEMENT
        )
    profitable = bool(profitable) or force
    return Decision(
        remap=profitable,
        new_partition=new_partition if profitable else None,
        predicted_current=predicted_current,
        predicted_balanced=predicted_balanced,
        remap_cost=remap_cost,
    )


@dataclass(frozen=True)
class CheckPrice:
    """What a run's load-balance checks could gain against what they cost.

    ``savings`` is an upper bound on the virtual seconds any remap could
    save; ``per_check`` a lower bound on the virtual seconds one due check
    adds to the critical path.  When the bound on the gain does not
    exceed the ``checks`` checks' price, the run without them can never
    finish later (:func:`price_checks`).
    """

    checks: int
    savings: float
    per_check: float

    @property
    def cost(self) -> float:
        """Lower bound on the virtual seconds all due checks charge."""
        return self.checks * self.per_check

    @property
    def pays(self) -> bool:
        """Whether the checks may pay: no check is due, or the bound on
        the savings exceeds their price."""
        return self.checks == 0 or self.savings > self.cost


def price_checks(
    cluster: "ClusterSpec",
    row_references: np.ndarray,
    iterations: int,
    lb: LoadBalanceConfig,
    *,
    kernel_cost: KernelCostModel = KernelCostModel(),
) -> CheckPrice:
    """Price a run's load-balance checks before it starts (Sec. 3.5).

    Inputs are what is known before the run: the *cluster* it is placed
    on (speeds and competing-load traces), the per-row reference counts of
    its graph, its iteration count and its load-balance config.  The run
    starts on an equal split, so no rank holds more than ceil(n/p) rows.

    * *Savings, an upper bound.*  A remap can at best remove the whole
      compute of the slowest rank from every iteration after the first
      due check.  That compute is at most the kernel work of the graph's
      heaviest ceil(n/p) rows at the rank's speed under its peak load,
      which also bounds :func:`decide`'s predicted savings when no
      predictor forecasts past the measured load.  It is 0 for one rank:
      there is nowhere to move data to.
    * *Price per check, a lower bound.*  Each due check costs the critical
      path at least one load-report hop (the network's
      ``per_message_overhead + latency``), the p-1 receive overheads of the
      reports, rank 0's MCR charge of :data:`MCR_SECONDS_PER_P3` x p^3 at
      its unloaded speed, and under ``"centralized"`` one decision hop.
      One rank pays only the MCR charge.
    """
    p = cluster.size
    n = int(np.size(row_references))
    checks = max(iterations - 1, 0) // lb.check_interval
    savings = 0.0
    if checks and p > 1:
        rows = -(-n // p)
        heaviest = np.sort(np.asarray(row_references))[n - rows :]
        work = kernel_cost.sweep_seconds(int(heaviest.sum()), rows)
        slowdown = max(
            (1.0 + proc.load.peak_load()) / proc.speed
            for proc in cluster.processors
        )
        savings = (iterations - lb.check_interval) * work * slowdown
    network = cluster.make_network()
    hops = 0 if p == 1 else 2 if lb.style == "centralized" else 1
    per_check = (
        hops * (network.per_message_overhead + network.latency)
        + (p - 1) * RECV_OVERHEAD
        + MCR_SECONDS_PER_P3 * p**3 / cluster.processors[0].speed
    )
    return CheckPrice(checks=checks, savings=savings, per_check=per_check)


def check(
    ctx: "RankContext",
    style: str,
    partition: IntervalPartition,
    report: "np.ndarray | tuple[float, float]",
    remaining_iterations: int,
    *,
    num_fields: int = 1,
    rebuild: "RebuildPrice | None" = None,
    active: np.ndarray | None = None,
) -> Decision:
    """One load-balance check under protocol *style* (an SPMD collective).

    All ranks call it in the same phase with their own load *report*, the
    two numbers :func:`decide` needs from each rank: its monitored time
    per item (``nan`` for a rank with no monitor window) and the trailing
    iterations that time has held (``inf`` if it has never been seen to
    change).  The report travels as one 2-float64 array.  Every rank gets
    the *same* :class:`Decision` back — the session redistributes
    unconditionally on ``decision.remap``, so anything less deadlocks the
    exchange.  The keyword inputs are forwarded to :func:`decide`.
    """
    if remaining_iterations < 0:
        raise LoadBalanceError("remaining_iterations must be >= 0")
    own = np.asarray(report, dtype=np.float64)
    if own.shape != (2,):
        raise LoadBalanceError(
            f"a load report is (time per item, persistence), got shape "
            f"{own.shape}"
        )
    inputs = dict(num_fields=num_fields, rebuild=rebuild, active=active)
    if style == "centralized":
        # "sending the load information as separate messages to the
        # controller, which broadcasts the decision to all the processors"
        decision = None
        if ctx.rank == 0:
            reports = _load_reports(ctx, own, range(1, ctx.size))
            decision = decide(
                ctx, partition, reports[:, 0], remaining_iterations,
                persistence=reports[:, 1], **inputs,
            )
        else:
            ctx.send(0, own, Tags.LOAD_REPORT)
        return ctx.bcast(decision, tag=Tags.LB_DECISION)
    if style == "distributed":
        # No controller: every rank multicasts its load and redundantly
        # runs the same deterministic decision.
        peers = [r for r in range(ctx.size) if r != ctx.rank]
        if peers:
            ctx.multicast(peers, own, Tags.LOAD_REPORT)
        reports = _load_reports(ctx, own, peers)
        return decide(
            ctx, partition, reports[:, 0], remaining_iterations,
            persistence=reports[:, 1], **inputs,
        )
    raise LoadBalanceError(
        f"unknown load-balance protocol {style!r}; known: {_PROTOCOLS}"
    )


def _load_reports(
    ctx: "RankContext", own: np.ndarray, peers: Iterable[int]
) -> np.ndarray:
    """This rank's report plus one received from every rank in *peers*:
    one row per rank."""
    reports = np.empty((ctx.size, 2), dtype=np.float64)
    reports[ctx.rank] = own
    for source, msg in ctx.recv_expected(peers, Tags.LOAD_REPORT).items():
        reports[source] = msg.payload
    return reports
