"""Fig. 8's loop is written once: ``_rank_body`` in ``runtime/program.py``.

Every program that iterates the kernel — the adaptive application,
``scale-real``'s probe — runs it through ``run_program``.  The walk reads
``src/repro`` with ``ast`` and finds each ``.sweep(...)`` call inside a
``for`` or ``while`` loop of its own function; only the functions named
here may hold one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (file under ``src/repro``, function) -> why a sweep in a loop is there.
ALLOWED = {
    ("runtime/program.py", "_rank_body"): "the one rank loop",
    ("experiments/catalog/scale.py", "scale_huge_measurements"):
        "scale-huge's plan-equality check: a full and a patched plan sweep "
        "the same values once, and must agree",
}


def _sweeps_in_loops(source: str) -> list[tuple[str | None, int]]:
    """(function, line) of each ``.sweep(...)`` call inside a loop."""
    found = []

    def visit(node, function, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, False)
                continue
            if in_loop and isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "sweep":
                found.append((function, child.lineno))
            visit(child, function,
                  in_loop or isinstance(child, (ast.For, ast.While)))

    visit(ast.parse(source), None, False)
    return found


def test_only_the_rank_loop_sweeps_in_a_loop():
    offenders = [
        f"{path.relative_to(SRC)}:{line} ({function})"
        for path in sorted(SRC.rglob("*.py"))
        for function, line in _sweeps_in_loops(path.read_text())
        if (path.relative_to(SRC).as_posix(), function) not in ALLOWED
    ]
    assert offenders == [], (
        "a sweep inside a loop outside run_program's rank body: run the "
        "program through run_program (with phases) instead"
    )


def test_every_allowance_still_sweeps_in_a_loop():
    for (name, function), why in ALLOWED.items():
        assert why
        assert function in {
            f for f, _ in _sweeps_in_loops((SRC / name).read_text())
        }, f"{name}:{function} no longer sweeps in a loop: drop it"


def test_the_walk_sees_loops_of_closures_only_in_their_own_body():
    source = (
        "def run(plan):\n"
        "    def rank_main(ctx):\n"
        "        for _ in range(3):\n"
        "            plan.sweep(1, 2)\n"
        "    while True:\n"
        "        def once():\n"
        "            return plan.sweep(1, 2)\n"
        "        plan.sweep(1, 2)\n"
    )
    assert _sweeps_in_loops(source) == [("rank_main", 4), ("run", 8)]
