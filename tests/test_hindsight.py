"""``tools/hindsight.py --max-regret``: the bound on the profitability
rule's regret, checked on synthetic rows (no configuration is run)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parent.parent / "tools"


@pytest.fixture(scope="module")
def hindsight():
    sys.path.insert(0, str(TOOLS))
    try:
        import hindsight
    finally:
        sys.path.remove(str(TOOLS))
    return hindsight


def _row(regret):
    return {
        "checks": 2, "rule": (1, 0), "rule_makespan": 1.0 + regret,
        "rank": 1, "schedules": 4, "best": (0, 0), "best_makespan": 1.0,
        "never_makespan": 1.0, "regret": regret,
    }


def test_names_every_row_above_the_bound(hindsight):
    rows = [
        ("a", _row(0.0)),
        ("b", _row(0.05)),  # at the bound: not above it
        ("c", _row(0.052)),
        ("d", None),  # no check, no regret
        ("e", _row(0.173)),
    ]
    over = hindsight.above_bound(rows, 5.0)
    assert [label for label, _ in over] == ["c", "e"]
    assert [round(pct, 1) for _, pct in over] == [5.2, 17.3]
    assert hindsight.above_bound(rows, 20.0) == []


def test_main_exits_1_and_names_the_cells(hindsight, monkeypatch, capsys):
    regrets = {"onset": 0.173, "ramp": 0.0}
    monkeypatch.setattr(
        hindsight, "experiment_points",
        lambda name, quick, overrides: [(s, s) for s in regrets],
    )
    monkeypatch.setattr(hindsight, "hindsight", lambda fn: _row(regrets[fn]))
    assert hindsight.main(["scale-adaptive", "--quick", "--max-regret", "5"]) == 1
    err = capsys.readouterr().err
    assert "scale-adaptive: onset (17.3 %)" in err
    assert "ramp" not in err
    assert hindsight.main(["scale-adaptive", "--quick", "--max-regret", "20"]) == 0
    assert hindsight.main(["scale-adaptive", "--quick"]) == 0
