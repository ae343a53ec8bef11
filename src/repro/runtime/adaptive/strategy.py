"""The decision layer of Phase D: one profitability rule, two protocols.

Sec. 3.5 fixes *what* is decided — :func:`decide`, the rule that
remapping pays iff the predicted per-iteration improvement, summed over
the remaining iterations, exceeds the estimated remap cost
(redistribution + schedule rebuild), with the new arrangement chosen by
MCR — and varies two things: how often to check ("the frequency of load
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

__all__ = [
    "LoadBalanceConfig",
    "Decision",
    "CheckPrice",
    "STRATEGY_NAMES",
    "PROFITABILITY_MARGIN",
    "MIN_IMPROVEMENT",
    "ELEMENT_NBYTES",
    "MCR_SECONDS_PER_P3",
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
    remap_cost: float  # estimated redistribution + rebuild cost


def decide(
    ctx: "RankContext",
    partition: IntervalPartition,
    times_per_item: np.ndarray,
    remaining_iterations: int,
    *,
    num_fields: int = 1,
    rebuild_cost: float = 0.0,
    active: np.ndarray | None = None,
    force: bool = False,
) -> Decision:
    """The shared deterministic decision function (Sec. 3.5).

    Given every processor's monitored average compute time per item,
    predicts the next phase's duration under the current and rebalanced
    partitions, prices the remap (MCR arrangement + transfer plan +
    schedule rebuild), and applies the profitability rule.  Deterministic
    in its inputs, which is what lets the distributed :func:`check`
    evaluate it redundantly on every rank without a decision broadcast.

    Every value that can change the outcome is an argument here or a
    module constant above.  The two per-check prices:

    * *num_fields* — how many field arrays the packed exchange will ship,
      so the priced remap matches what :func:`redistribute_fields` moves;
    * *rebuild_cost* — virtual seconds charged for re-running the
      inspector after a remap, added to the transfer estimate.

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
    if missing.any():
        # Impute missing windows from base speeds: time_i * speed_i is the
        # (machine-independent) unit work per item, estimated from the
        # ranks that did report.
        speeds = ctx.cluster.speeds
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
    remap_cost = (
        estimate_remap_cost(
            ctx.network,
            partition,
            new_partition,
            ELEMENT_NBYTES,
            num_fields=num_fields,
        )
        + rebuild_cost
    )
    if np.isinf(predicted_current):
        profitable = True
    else:
        savings = (predicted_current - predicted_balanced) * remaining_iterations
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
    time_per_item: float,
    remaining_iterations: int,
    *,
    num_fields: int = 1,
    rebuild_cost: float = 0.0,
    active: np.ndarray | None = None,
) -> Decision:
    """One load-balance check under protocol *style* (an SPMD collective).

    All ranks call it in the same phase with their own monitored
    *time_per_item* (``nan`` for a rank with no monitor window) and get
    the *same* :class:`Decision` back — the session redistributes
    unconditionally on ``decision.remap``, so anything less deadlocks the
    exchange.  The keyword inputs are forwarded to :func:`decide`.
    """
    if remaining_iterations < 0:
        raise LoadBalanceError("remaining_iterations must be >= 0")
    inputs = dict(
        num_fields=num_fields, rebuild_cost=rebuild_cost, active=active
    )
    if style == "centralized":
        # "sending the load information as separate messages to the
        # controller, which broadcasts the decision to all the processors"
        decision = None
        if ctx.rank == 0:
            times = _load_reports(ctx, time_per_item, range(1, ctx.size))
            decision = decide(
                ctx, partition, times, remaining_iterations, **inputs
            )
        else:
            ctx.send(0, float(time_per_item), Tags.LOAD_REPORT)
        return ctx.bcast(decision, tag=Tags.LB_DECISION)
    if style == "distributed":
        # No controller: every rank multicasts its load and redundantly
        # runs the same deterministic decision.
        peers = [r for r in range(ctx.size) if r != ctx.rank]
        if peers:
            ctx.multicast(peers, float(time_per_item), Tags.LOAD_REPORT)
        times = _load_reports(ctx, time_per_item, peers)
        return decide(ctx, partition, times, remaining_iterations, **inputs)
    raise LoadBalanceError(
        f"unknown load-balance protocol {style!r}; known: {_PROTOCOLS}"
    )


def _load_reports(
    ctx: "RankContext", own: float, peers: Iterable[int]
) -> np.ndarray:
    """This rank's report plus one received from every rank in *peers*."""
    times = np.empty(ctx.size, dtype=np.float64)
    times[ctx.rank] = own
    for source, msg in ctx.recv_expected(peers, Tags.LOAD_REPORT).items():
        times[source] = msg.payload
    return times
