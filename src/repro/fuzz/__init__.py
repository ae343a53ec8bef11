"""Seeded adversarial scenario fuzzing (churn × load × failure).

The runtime's standing contracts are each pinned by hand-written tests.
This package turns them into an *oracle* of six named invariants —
``reference-match`` (recovery reproduces the no-failure values bit for
bit), ``no-desync`` (collective counters never desynchronize),
``recoverable`` (an unrecoverable world dies with a diagnosed
:class:`ResilienceError` rather than a crash), and one differential per
neutral axis: ``obs-neutral``, ``inspector-differential``,
``world-differential`` — and drives randomly
composed scenarios at it:

* :mod:`~repro.fuzz.scenario` — the deterministic generator: a seed maps
  to a :class:`Scenario` (graph size, cluster shape, membership churn,
  competing-load steps, checkpoint policy, replication factor) that can
  be serialized to JSON, rebuilt into a runnable
  :class:`~repro.runtime.ProgramConfig`, and replayed exactly;
* :mod:`~repro.fuzz.oracle` — :func:`run_scenario` executes a scenario
  under every selected invariant and classifies the outcome
  (``recovered`` / ``diagnosed`` / ``crashed``);
* :mod:`~repro.fuzz.shrink` — :func:`shrink_scenario` greedily reduces a
  failing scenario (fewer events, fewer loads, smaller graph, fewer
  iterations, fewer machines) while it keeps failing, and prints the
  minimal reproducer as a runnable command line.

Everything is seeded through :mod:`repro.utils.rng`: the same
``--seed``/``--budget`` pair regenerates the identical scenario sequence
on any machine, which is what lets CI replay a corpus and a developer
replay CI.
"""

from repro.fuzz.oracle import (
    INVARIANTS,
    LATTICE,
    Axis,
    OracleReport,
    check_invariant_names,
    run_scenario,
)
from repro.fuzz.scenario import (
    LoadSpec,
    Scenario,
    generate_scenario,
    generate_scenarios,
)
from repro.fuzz.shrink import ShrinkResult, shrink_scenario

__all__ = [
    "Axis",
    "INVARIANTS",
    "LATTICE",
    "LoadSpec",
    "OracleReport",
    "Scenario",
    "ShrinkResult",
    "check_invariant_names",
    "generate_scenario",
    "generate_scenarios",
    "run_scenario",
    "shrink_scenario",
]
