"""The fuzz oracle: run a scenario, classify it, check the contracts.

The oracle never asks "did it print the right number" — it asks whether
the standing invariants of the runtime held:

* ``reference-match`` — a recovered run's final values are bit-identical
  to the scenario's quiet baseline (same graph/y0/iterations, no churn,
  no loads, no checkpoints).  Final values are a function of the
  computation alone; any divergence means recovery or redistribution
  corrupted data.
* ``no-desync`` — the collective counters (remaps, membership events,
  checkpoints, rollbacks) aggregate without a cross-rank disagreement;
  the :class:`~repro.runtime.ProgramReport` properties raise on desync
  and the oracle surfaces that as a violation, for every run it makes.
* ``recoverable`` — the run either completes or dies with a *diagnosed*
  :class:`~repro.errors.ResilienceError` (directly, or wrapped per-rank
  in a :class:`~repro.errors.RankFailedError`); any other exception is a
  crash.  A scenario's ``expect`` field may narrow this to exactly one
  of the two legitimate outcomes.

and four *differentials*, one per row of :data:`LATTICE`: the scenario is
re-run with one neutral :class:`~repro.runtime.ProgramConfig` axis moved,
and the two reports must agree under the one rule,
:meth:`ProgramReport.differences <repro.runtime.ProgramReport.differences>`.
``backend-differential`` (the paper-faithful loops) and ``obs-neutral``
(recording is observation only: a span that advanced a clock or perturbed
a decision would break determinism in the subtlest possible way; obs's
*own* outputs, e.g. the mailbox-depth gauge, are not compared) stay
inside one cost model, so the outcome, every clock, virtual time and
collective counter must match too.  ``inspector-differential`` and
``world-differential`` are values-only: a patch is charged less virtual
time than a rebuild, and in the real world membership events fire on
wall time, so clocks — and in the real world even the outcome —
legitimately move.  A variant run that *crashes* is always a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    LoadBalanceError,
    RankFailedError,
    ResilienceError,
)
from repro.fuzz.scenario import Scenario
from repro.runtime.adaptive.session import LEDGER
from repro.runtime.program import run_program

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.program import ProgramReport

__all__ = [
    "INVARIANTS",
    "LATTICE",
    "Axis",
    "OracleReport",
    "check_invariant_names",
    "run_scenario",
]


class Axis(NamedTuple):
    """One neutral axis of the configuration lattice."""

    invariant: str
    #: The :class:`ProgramConfig` fields the variant run replaces.
    changes: Mapping[str, Any]
    #: Both runs charge the same sim cost model: clocks, virtual times,
    #: collective counters and the outcome must agree, not only values.
    virtual: bool
    applies: Callable[[Scenario], bool] = lambda scenario: True


LATTICE = (
    Axis("backend-differential", {"backend": "reference"}, virtual=True),
    Axis("obs-neutral", {"trace": True}, virtual=True),
    Axis(
        "inspector-differential",
        {"inspector_mode": "incremental"},
        virtual=False,
        applies=lambda scenario: scenario.strategy != "simple",
    ),
    Axis("world-differential", {"world": "real"}, virtual=False),
)

#: The oracle's invariant vocabulary (``--invariant`` on the CLI).
INVARIANTS = (
    "reference-match",
    "no-desync",
    "recoverable",
    *(axis.invariant for axis in LATTICE),
)


def check_invariant_names(names: Sequence[str]) -> tuple[str, ...]:
    """Validate ``--invariant`` selections; actionable on a typo."""
    if not names:
        return INVARIANTS
    for name in names:
        if name not in INVARIANTS:
            raise ConfigurationError(
                f"unknown invariant {name!r}; known invariants: "
                f"{', '.join(INVARIANTS)} (default: all of them)"
            )
    # Preserve the canonical order, drop duplicates.
    return tuple(inv for inv in INVARIANTS if inv in set(names))


@dataclass
class OracleReport:
    """What the oracle concluded about one scenario."""

    scenario: Scenario
    #: ``recovered`` | ``diagnosed`` | ``crashed``
    outcome: str
    checked: tuple[str, ...]
    violations: list[str] = field(default_factory=list)
    #: The ResilienceError message when the outcome is ``diagnosed``.
    diagnosis: str = ""
    makespan: float | None = None
    num_rollbacks: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        label = self.scenario.name or "scenario"
        if self.ok:
            extra = ""
            if self.makespan is not None:
                extra = f" (makespan {self.makespan:.4f} s"
                if self.num_rollbacks is not None:
                    extra += f", {self.num_rollbacks} rollback(s)"
                extra += ")"
            return f"{label}: {self.outcome} ok{extra}"
        first = self.violations[0]
        more = (
            f" (+{len(self.violations) - 1} more)"
            if len(self.violations) > 1
            else ""
        )
        return f"{label}: FAIL [{self.outcome}] {first}{more}"


def _attempt(
    scenario: Scenario, **changes: Any
) -> tuple[str, "ProgramReport | None", str]:
    """One run of *scenario* on the vectorized backend, with *changes*
    replaced in its config: (outcome, report-or-None, diagnosis-or-crash)."""
    graph = scenario.build_graph()
    y0 = scenario.build_y0(graph)
    cluster = scenario.build_cluster()
    config = replace(scenario.build_config(backend="vectorized"), **changes)
    try:
        report = run_program(graph, cluster, config, y0=y0)
        return "recovered", report, ""
    except ResilienceError as exc:
        return "diagnosed", None, str(exc)
    except RankFailedError as exc:
        if exc.failures and all(
            isinstance(e, ResilienceError) for e in exc.failures.values()
        ):
            return "diagnosed", None, str(exc)
        return "crashed", None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 — the oracle's whole job
        return "crashed", None, f"{type(exc).__name__}: {exc}"


def _check_desync(report: "ProgramReport", label: str, out: list[str]) -> None:
    for counter in LEDGER:  # only a collective counter can raise
        try:
            getattr(report, counter)
        except (LoadBalanceError, ResilienceError) as exc:
            out.append(f"no-desync[{label}]: {counter} desynchronized: {exc}")


def run_scenario(
    scenario: Scenario,
    *,
    invariants: Sequence[str] = INVARIANTS,
) -> OracleReport:
    """Execute *scenario* under the selected invariants.

    The scenario runs once as configured (vectorized backend); every
    selected :data:`LATTICE` row that applies re-runs it with that axis
    moved, and ``reference-match`` additionally runs the quiet baseline.
    """
    checked = check_invariant_names(invariants)
    outcome, primary, diagnosis = _attempt(scenario)
    violations: list[str] = []

    if "recoverable" in checked:
        if outcome == "crashed":
            violations.append(f"recoverable: {diagnosis}")
        if scenario.expect == "recovered" and outcome == "diagnosed":
            violations.append(
                f"recoverable: scenario expects a recovery but the run "
                f"was diagnosed unrecoverable: {diagnosis}"
            )
        if scenario.expect == "diagnosed" and outcome == "recovered":
            violations.append(
                "recoverable: scenario expects a diagnosed "
                "ResilienceError but the run completed"
            )
    if "no-desync" in checked and primary is not None:
        _check_desync(primary, "vectorized", violations)

    for axis in LATTICE:
        if axis.invariant not in checked or not axis.applies(scenario):
            continue
        moved = ", ".join(f"{k}={v!r}" for k, v in axis.changes.items())
        v_outcome, variant, v_msg = _attempt(scenario, **axis.changes)
        if v_outcome == "crashed":
            violations.append(
                f"{axis.invariant}: the {moved} run crashed: {v_msg}"
            )
        elif axis.virtual and v_outcome != outcome:
            violations.append(
                f"{axis.invariant}: the {moved} run was {v_outcome}, "
                f"the run it varies was {outcome}"
            )
        if variant is None:
            continue
        if "no-desync" in checked:
            _check_desync(variant, moved, violations)
        if primary is not None:
            violations.extend(
                f"{axis.invariant}: with {moved}, {difference}"
                for difference in primary.differences(
                    variant, virtual=axis.virtual
                )
            )

    if "reference-match" in checked and primary is not None:
        base_outcome, base_report, base_msg = _attempt(scenario.baseline())
        if base_report is None:
            violations.append(
                f"reference-match: the quiet baseline itself failed "
                f"({base_outcome}): {base_msg}"
            )
        elif not np.array_equal(primary.values, base_report.values):
            delta = float(
                np.max(np.abs(primary.values - base_report.values))
            )
            violations.append(
                f"reference-match: final values differ from the "
                f"no-failure baseline (max |delta| = {delta:.3e}) — "
                f"recovery or redistribution corrupted data"
            )

    return OracleReport(
        scenario=scenario,
        outcome=outcome,
        checked=checked,
        violations=violations,
        diagnosis=diagnosis,
        makespan=primary.makespan if primary is not None else None,
        num_rollbacks=_rollbacks(primary),
    )


def _rollbacks(report: "ProgramReport | None") -> int | None:
    try:
        return report.num_rollbacks if report is not None else None
    except ResilienceError:  # desynchronized: no-desync reports it
        return None
