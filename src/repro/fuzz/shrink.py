"""Greedy scenario shrinking: a failing scenario, minus everything
incidental.

Classic delta-debugging structure specialized to :class:`Scenario`: a
fixed menu of *reductions* (drop a membership event, drop a competing
load, halve the graph, halve the iteration count, drop the last
workstation, simplify the checkpoint policy), applied greedily to a
fixpoint — a reduction is kept only when the reduced scenario still
violates the same invariant selection.  Every candidate is rebuilt
through the ordinary :class:`Scenario` constructor, so a reduction that
would produce an invalid scenario (e.g. dropping the join that a later
leave depends on) is discarded rather than chased.

The result's :meth:`~repro.fuzz.scenario.Scenario.reproducer_command` is
the deliverable: the smallest runnable command line that still shows the
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.fuzz.oracle import INVARIANTS, OracleReport, run_scenario
from repro.fuzz.scenario import Scenario

__all__ = ["ShrinkResult", "shrink_scenario"]


@dataclass
class ShrinkResult:
    """The minimal failing scenario and how we got there."""

    scenario: Scenario
    report: OracleReport
    attempts: int  # oracle runs spent (including rejected candidates)
    reductions: int  # candidates that were kept

    @property
    def command(self) -> str:
        return self.scenario.reproducer_command()


def _membership_reductions(scenario: Scenario) -> Iterator[Scenario]:
    trace = scenario.membership_trace()
    if trace is None:
        return
    # Drop one event at a time (later events first: tail events are the
    # likeliest to be incidental to a failure seeded earlier).
    for i in reversed(range(len(trace.events))):
        events = trace.events[:i] + trace.events[i + 1 :]
        try:
            reduced = type(trace)(
                trace.world_size,
                events,
                initially_inactive=sorted(trace.initially_inactive),
            )
        except ValueError:
            continue
        yield replace(
            scenario, membership=reduced.format() or None
        )
    # Drop unused standby ranks wholesale.
    if trace.initially_inactive and not trace.events:
        yield replace(scenario, membership=None)


def _candidates(scenario: Scenario) -> Iterator[Scenario]:
    yield from _membership_reductions(scenario)
    for i in reversed(range(len(scenario.loads))):
        yield replace(
            scenario,
            loads=scenario.loads[:i] + scenario.loads[i + 1 :],
        )
    if scenario.speeds is not None:
        yield replace(scenario, speeds=None)
    if scenario.vertices > 64:
        yield replace(
            scenario, vertices=max(64, (scenario.vertices // 2 + 7) // 8 * 8)
        )
    if scenario.iterations > 2:
        yield replace(scenario, iterations=scenario.iterations // 2)
    static = replace(scenario, load_balance="off")
    if static != scenario:
        yield static
    if scenario.checkpoint is not None and scenario.membership_trace() is not None:
        trace = scenario.membership_trace()
        if trace is not None and not trace.has_failures:
            yield replace(scenario, checkpoint=None)
    # Drop the highest workstation when nothing references it.
    p = scenario.workstations
    if p > 2:
        trace = scenario.membership_trace()
        touches_last = any(
            ev.rank == p - 1 or ev.replacement == p - 1
            for ev in (trace.events if trace is not None else ())
        ) or (trace is not None and (p - 1) in trace.initially_inactive)
        if not touches_last and all(ls.rank != p - 1 for ls in scenario.loads):
            yield replace(
                scenario,
                workstations=p - 1,
                speeds=(
                    scenario.speeds[: p - 1]
                    if scenario.speeds is not None
                    else None
                ),
            )


def shrink_scenario(
    scenario: Scenario,
    *,
    invariants: Sequence[str] = INVARIANTS,
    max_attempts: int = 200,
) -> ShrinkResult:
    """Reduce *scenario* while it keeps violating *invariants*.

    Raises :class:`~repro.errors.ConfigurationError` when the input
    scenario does not fail at all — there is nothing to shrink, and
    silently returning it unchanged would look like a reproducer.
    """
    if max_attempts < 1:
        raise ConfigurationError(
            f"max_attempts must be >= 1, got {max_attempts}"
        )
    report = run_scenario(scenario, invariants=invariants)
    attempts = 1
    if report.ok:
        raise ConfigurationError(
            "the scenario passes every selected invariant; nothing to "
            "shrink (run `repro fuzz run` first to find a failing one)"
        )
    reductions = 0
    current, current_report = scenario, report
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            try:
                candidate = Scenario.from_dict(candidate.to_dict())
            except ReproError:
                continue  # reduction produced an invalid scenario
            cand_report = run_scenario(candidate, invariants=invariants)
            attempts += 1
            if not cand_report.ok:
                current, current_report = candidate, cand_report
                reductions += 1
                progress = True
                break  # restart the menu from the smaller scenario
    return ShrinkResult(
        scenario=current,
        report=current_report,
        attempts=attempts,
        reductions=reductions,
    )
