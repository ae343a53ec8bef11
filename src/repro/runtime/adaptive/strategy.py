"""Pluggable rebalancing strategies: the decision layer of Phase D.

Sec. 3.5 describes two protocols for deciding *whether and how* to remap:

* the paper's implementation — "each processor monitors its own load and
  sends it to a controller processor, which makes the decision about
  repartitioning the data ... which broadcasts the decision to all the
  processors" (:class:`CentralizedStrategy`);
* its stated future work — "when better resource management tools are
  available, we hope to have distributed strategies"
  (:class:`DistributedStrategy`).

Both share one deterministic decision function, :func:`decide` — the
profitability rule that remapping pays iff the predicted per-iteration
improvement, summed over the remaining iterations, exceeds the estimated
remap cost (redistribution + schedule rebuild).  The strategies differ only
in protocol cost:

* centralized: (p-1) unicast load reports + 1 decision broadcast, the
  decision computed once at the controller;
* distributed: p load multicasts (one hardware multicast per rank on
  Ethernet, O(p^2) unicasts otherwise), the decision computed p times
  redundantly — determinism guarantees every rank reaches the identical
  conclusion without exchanging it.

:class:`NoBalancing` completes the lattice: checks never fire and no
messages move, so a static run and an adaptive run share one driver loop
(:class:`repro.runtime.adaptive.AdaptiveSession`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.errors import LoadBalanceError
from repro.net.message import Tags
from repro.partition.arrangement import (
    RedistributionCostModel,
    minimize_cost_redistribution,
)
from repro.partition.intervals import IntervalPartition, partition_list
from repro.runtime.adaptive.redistribution import estimate_remap_cost

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = [
    "LoadBalanceConfig",
    "Decision",
    "RebalanceStrategy",
    "CentralizedStrategy",
    "DistributedStrategy",
    "NoBalancing",
    "STRATEGY_NAMES",
    "make_strategy",
    "decide",
]

#: Recognized strategy names (the ``style`` field / CLI vocabulary).
STRATEGY_NAMES = ("off", "centralized", "distributed")


@dataclass(frozen=True)
class LoadBalanceConfig:
    """Knobs of the load-balancing protocol.

    ``check_interval`` — iterations between checks (the paper checks every
    10 and calls frequency selection out of scope; the ablation bench
    sweeps it).
    ``profitability_margin`` — remap only if predicted savings exceed
    ``margin`` x estimated remap cost (1.0 = the paper's break-even rule).
    ``min_improvement`` — additionally require the predicted per-iteration
    improvement to exceed this fraction of the current per-iteration time;
    filters out remaps that only chase block-rounding noise.
    ``use_mcr`` — choose the new arrangement with MCR (True) or keep the
    current arrangement (False; the "without MCR" baseline of Table 2).
    ``rebuild_cost_estimate`` — virtual seconds charged for re-running the
    inspector after a remap, included in the profitability test.
    ``num_fields`` — how many field arrays a remap will move in the packed
    exchange (the session sets this to the actual field count per check),
    so the priced remap matches what :func:`redistribute_fields` ships.
    ``style`` — "centralized" (the paper's implementation), "distributed"
    (its stated future work), or "off" (monitor but never check: a static
    run).  :func:`make_strategy` maps the name onto a strategy object.
    ``predictor`` — None for the paper's last-phase assumption, or a
    predictor name from :mod:`repro.runtime.prediction` ("last",
    "moving-average", "ewma", "trend") to forecast capabilities from more
    than one previous phase (paper footnote 2).
    """

    check_interval: int = 10
    profitability_margin: float = 1.0
    min_improvement: float = 0.02
    use_mcr: bool = True
    element_nbytes: int = 8
    num_fields: int = 1
    rebuild_cost_estimate: float = 0.0
    cost_model: RedistributionCostModel = RedistributionCostModel()
    style: str = "centralized"
    predictor: str | None = None

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise LoadBalanceError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.profitability_margin < 0:
            raise LoadBalanceError("profitability_margin must be >= 0")
        if not (0.0 <= self.min_improvement < 1.0):
            raise LoadBalanceError("min_improvement must be in [0, 1)")
        if self.style not in STRATEGY_NAMES:
            raise LoadBalanceError(
                f"style must be one of {STRATEGY_NAMES}, got {self.style!r}"
            )
        if self.element_nbytes <= 0:
            raise LoadBalanceError("element_nbytes must be > 0")
        if self.num_fields < 1:
            raise LoadBalanceError("num_fields must be >= 1")


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
    config: LoadBalanceConfig,
    *,
    active: np.ndarray | None = None,
    force: bool = False,
) -> Decision:
    """The shared deterministic decision function (Sec. 3.5).

    Given every processor's monitored average compute time per item,
    predicts the next phase's duration under the current and rebalanced
    partitions, prices the remap (MCR arrangement + transfer plan +
    schedule rebuild), and applies the profitability rule.  Deterministic
    in its inputs, which is what lets :class:`DistributedStrategy` evaluate
    it redundantly on every rank without a decision broadcast.

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

    if config.use_mcr:
        # Charge the controller's O(p^3) MCR search (paper Table 1 measures
        # it at ~2 microseconds x p^3 on the testbed's workstations).
        ctx.compute(2.0e-6 * ctx.size**3, label="mcr")
        arrangement = minimize_cost_redistribution(
            partition.owners,
            sizes / max(sizes.sum(), 1.0),
            capabilities / capabilities.sum(),
            n,
            cost_model=config.cost_model,
        )
    else:
        arrangement = partition.owners
    new_partition = partition_list(
        n, capabilities / capabilities.sum(), arrangement
    )
    remap_cost = (
        estimate_remap_cost(
            ctx.network,
            partition,
            new_partition,
            config.element_nbytes,
            num_fields=config.num_fields,
        )
        + config.rebuild_cost_estimate
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
            savings > config.profitability_margin * remap_cost
            and relative_gain >= config.min_improvement
        )
    profitable = bool(profitable) or force
    return Decision(
        remap=profitable,
        new_partition=new_partition if profitable else None,
        predicted_current=predicted_current,
        predicted_balanced=predicted_balanced,
        remap_cost=remap_cost,
    )


@runtime_checkable
class RebalanceStrategy(Protocol):
    """One load-balance check protocol (an SPMD collective).

    Implementations exchange the per-rank load reports however they like,
    but must return the *same* :class:`Decision` on every rank — the
    session redistributes unconditionally on ``decision.remap``, so a
    strategy that desynchronizes ranks deadlocks the exchange (and trips
    the :attr:`ProgramReport.num_remaps` cross-rank consistency check).

    Under elastic membership, *time_per_item* may be ``nan`` (a rank with
    no monitor window), *active* masks the participating ranks, and
    *force* marks a mandatory remap — all three are forwarded to
    :func:`decide`.
    """

    name: str

    def check(
        self,
        ctx: "RankContext",
        partition: IntervalPartition,
        time_per_item: float,
        remaining_iterations: int,
        config: LoadBalanceConfig,
        *,
        active: np.ndarray | None = None,
        force: bool = False,
    ) -> Decision:
        """Run one collective check; all ranks call it in the same phase."""
        ...


def _check_remaining(remaining_iterations: int) -> None:
    if remaining_iterations < 0:
        raise LoadBalanceError("remaining_iterations must be >= 0")


@dataclass(frozen=True)
class CentralizedStrategy:
    """The paper's implementation: load reports to a controller rank.

    "This currently requires sending the load information as separate
    messages to the controller, which broadcasts the decision to all the
    processors."
    """

    root: int = 0
    name: str = "centralized"

    def check(
        self,
        ctx: "RankContext",
        partition: IntervalPartition,
        time_per_item: float,
        remaining_iterations: int,
        config: LoadBalanceConfig,
        *,
        active: np.ndarray | None = None,
        force: bool = False,
    ) -> Decision:
        _check_remaining(remaining_iterations)
        root = self.root
        # "sending the load information as separate messages to the controller"
        if ctx.rank == root:
            times = np.empty(ctx.size, dtype=np.float64)
            times[root] = time_per_item
            peers = [r for r in range(ctx.size) if r != root]
            for source, msg in ctx.recv_expected(
                peers, Tags.LOAD_REPORT
            ).items():
                times[source] = msg.payload
            decision = decide(
                ctx, partition, times, remaining_iterations, config,
                active=active, force=force,
            )
        else:
            ctx.send(root, float(time_per_item), Tags.LOAD_REPORT)
            decision = None
        # "broadcasts the decision to all the processors"
        return ctx.bcast(decision, root=root, tag=Tags.LB_DECISION)


@dataclass(frozen=True)
class DistributedStrategy:
    """No controller: every rank multicasts its load and decides locally.

    One hardware multicast per rank on Ethernet (O(p) frames), a sequential
    unicast fan-out otherwise (O(p^2) messages) — exactly the trade-off
    ``bench_ext_distributed_lb`` quantifies.  Determinism of :func:`decide`
    guarantees all ranks reach the identical conclusion without a decision
    broadcast.
    """

    name: str = "distributed"

    def check(
        self,
        ctx: "RankContext",
        partition: IntervalPartition,
        time_per_item: float,
        remaining_iterations: int,
        config: LoadBalanceConfig,
        *,
        active: np.ndarray | None = None,
        force: bool = False,
    ) -> Decision:
        _check_remaining(remaining_iterations)
        peers = [r for r in range(ctx.size) if r != ctx.rank]
        if peers:
            ctx.multicast(peers, float(time_per_item), Tags.LOAD_REPORT)
        times = np.empty(ctx.size, dtype=np.float64)
        times[ctx.rank] = time_per_item
        for source, msg in ctx.recv_expected(
            peers, Tags.LOAD_REPORT
        ).items():
            times[source] = msg.payload
        # Every rank redundantly runs the same deterministic decision.
        return decide(
            ctx, partition, times, remaining_iterations, config,
            active=active, force=force,
        )


@dataclass(frozen=True)
class NoBalancing:
    """Checks never remap and exchange nothing: the static baseline."""

    name: str = "off"

    def check(
        self,
        ctx: "RankContext",
        partition: IntervalPartition,
        time_per_item: float,
        remaining_iterations: int,
        config: LoadBalanceConfig,
        *,
        active: np.ndarray | None = None,
        force: bool = False,
    ) -> Decision:
        _check_remaining(remaining_iterations)
        return Decision(
            remap=False,
            new_partition=None,
            predicted_current=float("nan"),
            predicted_balanced=float("nan"),
            remap_cost=0.0,
        )


def make_strategy(
    spec: "str | RebalanceStrategy | LoadBalanceConfig | None",
) -> RebalanceStrategy:
    """Resolve a strategy from a name, config, instance, or ``None``.

    ``None`` and ``"off"`` mean :class:`NoBalancing`; a
    :class:`LoadBalanceConfig` resolves through its ``style``; any object
    satisfying :class:`RebalanceStrategy` passes through unchanged.
    """
    if spec is None:
        return NoBalancing()
    if isinstance(spec, LoadBalanceConfig):
        spec = spec.style
    if isinstance(spec, str):
        if spec == "off":
            return NoBalancing()
        if spec == "centralized":
            return CentralizedStrategy()
        if spec == "distributed":
            return DistributedStrategy()
        raise LoadBalanceError(
            f"unknown rebalance strategy {spec!r}; known: {STRATEGY_NAMES}"
        )
    if isinstance(spec, RebalanceStrategy):
        return spec
    raise LoadBalanceError(
        f"cannot make a rebalance strategy from {type(spec).__name__}"
    )

