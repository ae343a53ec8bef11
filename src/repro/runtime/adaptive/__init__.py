"""Phase D as a subsystem: adaptive load balancing (Secs. 3.4-3.5).

The paper's headline capability — monitor the load, test profitability,
MinimizeCostRedistribution, remap — lives here as three pluggable layers:

* :mod:`~repro.runtime.adaptive.strategy` — *when and what to remap*:
  the :class:`RebalanceStrategy` protocol with the paper's
  :class:`CentralizedStrategy`, the future-work
  :class:`DistributedStrategy`, and :class:`NoBalancing`, all sharing one
  deterministic :func:`decide` profitability function;
* :mod:`~repro.runtime.adaptive.redistribution` — *how data moves*:
  :func:`redistribute_fields` ships k fields plus vertex identity in one
  packed message per peer, with backend-paired (reference/vectorized)
  buffer packing;
* :mod:`~repro.runtime.adaptive.session` — *the loop*:
  :class:`AdaptiveSession` owns monitor → decide → redistribute →
  inspector-rebuild, so ``run_program``, the adaptive apps, and the
  benchmarks all drive the same code path;
* :mod:`~repro.runtime.adaptive.elastic` — *who participates*:
  :class:`MembershipTrace` events grow and shrink the active rank set at
  runtime; :class:`ElasticState` + :func:`membership_decision` drain
  departing ranks through the same packed redistribution and re-run the
  profitability test for joiners.

The old single-module homes (``repro.runtime.controller``,
``repro.runtime.distributed_lb``, ``repro.runtime.redistribution``) have
been removed; import everything from :mod:`repro.runtime.adaptive` (or
the :mod:`repro.runtime` facade).
"""

from repro.runtime.adaptive.elastic import (
    ElasticState,
    MembershipEvent,
    MembershipTrace,
    membership_decision,
    resolve_membership,
)
from repro.runtime.adaptive.redistribution import (
    IDENTITY_NBYTES,
    estimate_remap_cost,
    redistribute,
    redistribute_fields,
    transfer_plan_summary,
)
from repro.runtime.adaptive.session import AdaptiveSession, SessionStats
from repro.runtime.adaptive.strategy import (
    STRATEGY_NAMES,
    CentralizedStrategy,
    Decision,
    DistributedStrategy,
    LoadBalanceConfig,
    NoBalancing,
    RebalanceStrategy,
    decide,
    make_strategy,
)

__all__ = [
    "AdaptiveSession",
    "CentralizedStrategy",
    "Decision",
    "DistributedStrategy",
    "ElasticState",
    "IDENTITY_NBYTES",
    "LoadBalanceConfig",
    "MembershipEvent",
    "MembershipTrace",
    "NoBalancing",
    "RebalanceStrategy",
    "STRATEGY_NAMES",
    "SessionStats",
    "decide",
    "estimate_remap_cost",
    "make_strategy",
    "membership_decision",
    "redistribute",
    "redistribute_fields",
    "resolve_membership",
    "transfer_plan_summary",
]
