"""Golden-artifact regression tests (ISSUE 2 satellite).

Re-derives the *structural* outputs of a small ``repro bench run`` — ghost
counts, send volumes, message counts, remap decisions — and compares them
against the committed fixture ``tests/golden/schedule_semantics.json``, so
schedule semantics cannot silently drift under refactors.  Timings are
deliberately excluded: only facts that are bit-deterministic are pinned.

If a semantics change is *intentional*, regenerate the fixture with
``PYTHONPATH=src python tools/make_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "schedule_semantics.json"
GOLDEN_TRACE = Path(__file__).parent / "golden" / "chrome_trace.json"
TOOLS = Path(__file__).parent.parent / "tools"


@pytest.fixture(scope="module")
def current():
    sys.path.insert(0, str(TOOLS))
    try:
        from make_golden import build_golden
    finally:
        sys.path.remove(str(TOOLS))
    return build_golden()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_scale_epoch_structural_facts_match(current, golden):
    got = current["scale_epoch_structural"]
    want = golden["scale_epoch_structural"]
    assert [run["params"] for run in got] == [run["params"] for run in want]
    for g, w in zip(got, want):
        assert g["structural"] == w["structural"], g["params"]


def test_remap_decisions_match(current, golden):
    assert current["remap_decisions"] == golden["remap_decisions"]


def test_transfer_plan_matches(current, golden):
    """The packed-exchange plan for the paper's Fig. 5 remap is pinned:
    slab boundaries, per-peer message count, and packed wire sizes."""
    assert current["transfer_plan"] == golden["transfer_plan"]


def test_elastic_transfer_plan_matches(current, golden):
    """The elastic drain plan — repartitioning the SUN4 pool onto a
    shrunk active set, the departing rank's block draining out — is
    pinned the same way (ISSUE 4 satellite)."""
    assert current["elastic_transfer_plan"] == golden["elastic_transfer_plan"]
    # Sanity: the departed rank (ws 1) sends everything and receives
    # nothing in the pinned plan.
    transfers = golden["elastic_transfer_plan"]["transfers"]
    assert any(src == 1 for src, _, _, _ in transfers)
    assert all(dest != 1 for _, dest, _, _ in transfers)


def test_elastic_run_decisions_match(current, golden):
    """End-to-end elastic run (join priced and declined + departure
    drained): remap count, event count, and the final interval sizes are
    pinned."""
    assert current["elastic_run"] == golden["elastic_run"]
    assert golden["elastic_run"]["membership_events"] == 2
    assert golden["elastic_run"]["final_sizes"][0] == 0


def test_resilience_run_decisions_match(current, golden):
    """End-to-end failure recovery (unannounced fail + rollback to the
    interval:4 epoch): checkpoint/rollback counts and the surviving
    interval sizes are pinned (ISSUE 5)."""
    assert current["resilience_run"] == golden["resilience_run"]
    assert golden["resilience_run"]["num_rollbacks"] == 1
    # The dead rank (ws 1) ends with nothing.
    assert golden["resilience_run"]["final_sizes"][1] == 0


def test_chrome_trace_fixture_matches():
    """The exported Chrome trace of a small traced run is pinned byte for
    byte (virtual timebase, host wall clocks stripped): span nesting,
    per-rank ``seq`` order, and every virtual timestamp are schedule
    semantics too (ISSUE 10)."""
    sys.path.insert(0, str(TOOLS))
    try:
        from make_golden import build_golden_trace
    finally:
        sys.path.remove(str(TOOLS))
    got = build_golden_trace()
    want = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
    assert got["metadata"] == want["metadata"]
    assert got["traceEvents"] == want["traceEvents"]
    # The fixture is a valid repro export: it round-trips through the
    # loader (what `repro trace summary` consumes).
    from repro.obs import load_chrome_trace

    log = load_chrome_trace(str(GOLDEN_TRACE))
    kinds = {e.kind for e in log if e.span_id >= 0}
    assert {"program", "epoch", "inspector", "executor", "checkpoint"} <= kinds


def test_artifact_schema_still_validates():
    """The bench artifact produced by the scale family passes the normative
    schema check (schema-versioned results are a public contract)."""
    from repro.experiments.artifacts import validate_artifact
    from repro.experiments.runner import run_experiment

    artifact, _ = run_experiment(
        "scale-epoch",
        quick=True,
        overrides={"tier": "10k"},
        results_dir=None,
    )
    validate_artifact(artifact)
    assert artifact["experiment"] == "scale-epoch"
    assert all(run["wall_s"] >= 0 for run in artifact["runs"])
