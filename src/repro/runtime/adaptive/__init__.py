"""Phase D as a subsystem: adaptive load balancing (Secs. 3.4-3.5).

The paper's headline capability — monitor the load, test profitability,
MinimizeCostRedistribution, remap — lives here in four modules:

* :mod:`~repro.runtime.adaptive.strategy` — *when and what to remap*:
  one deterministic :func:`decide` profitability function (its inputs are
  its arguments plus four named constants), reached through the two
  :func:`check` protocols Sec. 3.5 describes — ``"centralized"`` (the
  paper's controller) and ``"distributed"`` (its stated future work) —
  and :func:`resolve_load_balance`, the one place ``"off"`` / ``None``
  (a static run) is understood;
* :mod:`~repro.runtime.adaptive.redistribution` — *how data moves*:
  :func:`redistribute_fields` ships k fields plus their slab bounds in one
  packed message per peer;
* :mod:`~repro.runtime.adaptive.session` — *the loop*:
  :class:`AdaptiveSession` owns monitor → decide → redistribute →
  inspector-rebuild, so ``run_program``, the adaptive apps, and the
  benchmarks all drive the same code path;
* :mod:`~repro.runtime.adaptive.elastic` — *who participates*:
  :class:`MembershipTrace` events grow and shrink the active rank set at
  runtime; :class:`ElasticState` + :func:`membership_decision` drain
  departing ranks through the same packed redistribution and re-run the
  profitability test for joiners.
"""

from repro.runtime.adaptive.elastic import (
    ElasticState,
    MembershipEvent,
    MembershipTrace,
    membership_decision,
    resolve_membership,
)
from repro.runtime.adaptive.redistribution import (
    SLAB_BOUNDS_NBYTES,
    estimate_remap_cost,
    redistribute,
    redistribute_fields,
    transfer_plan_summary,
)
from repro.runtime.adaptive.session import AdaptiveSession, Phase, SessionStats
from repro.runtime.adaptive.strategy import (
    STRATEGY_NAMES,
    CheckPrice,
    Decision,
    LoadBalanceConfig,
    check,
    decide,
    price_checks,
    resolve_load_balance,
)

__all__ = [
    "AdaptiveSession",
    "CheckPrice",
    "Decision",
    "ElasticState",
    "LoadBalanceConfig",
    "MembershipEvent",
    "MembershipTrace",
    "Phase",
    "SLAB_BOUNDS_NBYTES",
    "STRATEGY_NAMES",
    "SessionStats",
    "check",
    "decide",
    "estimate_remap_cost",
    "membership_decision",
    "price_checks",
    "redistribute",
    "redistribute_fields",
    "resolve_load_balance",
    "resolve_membership",
    "transfer_plan_summary",
]
