"""The CI workflow files load strictly and call only CLI flags that exist
(the same check CI's docs job runs)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

pytest.importorskip("yaml")

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_ci  # noqa: E402

BROKEN = """\
jobs:
  perf:
    steps:
      - name: first
        run: echo first
        run: echo second
"""


EMBEDDED = """\
jobs:
  perf:
    steps:
      - name: fine
        run: python -c "print('one line')" && python tool.py <input.txt
      - name: heredoc
        run: |
          PYTHONPATH=src python -m repro bench run scale-epoch --quick
          python - <<'EOF'
          assert True
          EOF
      - name: multi-line -c
        run: |
          python3 -c "
          import json
          "
"""


STALE_CLI = """\
jobs:
  smoke:
    steps:
      - name: fine
        run: PYTHONPATH=src python -m repro run --vertices 500 --verify && echo ok
      - name: deleted flag, on a continuation line
        run: |
          PYTHONPATH=src python -m repro bench run table4 --quick \\
            --switched-network --results-dir out
      - name: unknown subcommand
        run: python -m repro smooth --iterations 3  # comment
"""


def test_repo_workflows_have_no_duplicate_keys():
    assert check_ci.workflow_files(REPO_ROOT)
    assert check_ci.check_repo(REPO_ROOT) == []
    assert check_ci.main([str(REPO_ROOT)]) == 0


def test_checker_catches_step_with_two_run_keys(tmp_path):
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(BROKEN, encoding="utf-8")
    assert check_ci.check_repo(tmp_path) == [
        ".github/workflows/ci.yml:6: duplicate key 'run'"
    ]
    assert check_ci.main([str(tmp_path)]) == 1


def test_checker_catches_programs_embedded_in_run_blocks(tmp_path):
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(EMBEDDED, encoding="utf-8")
    problems = check_ci.check_repo(tmp_path)
    assert [p.split(": ")[0] for p in problems] == [
        ".github/workflows/ci.yml:7",
        ".github/workflows/ci.yml:13",
    ]
    assert all("embeds a Python program" in p for p in problems)
    assert check_ci.main([str(tmp_path)]) == 1


def test_checker_fails_when_there_is_nothing_to_check(tmp_path):
    assert check_ci.main([str(tmp_path)]) == 1


def test_checker_catches_repro_commands_the_cli_rejects(tmp_path):
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(STALE_CLI, encoding="utf-8")
    problems = check_ci.check_repo(tmp_path)
    assert [p.split(": ")[0] for p in problems] == [
        ".github/workflows/ci.yml:8",
        ".github/workflows/ci.yml:11",
    ]
    assert "unrecognized arguments: --switched-network" in problems[0]
    assert "invalid choice: 'smooth'" in problems[1]
    assert check_ci.main([str(tmp_path)]) == 1


BENCH_RUNS = """\
jobs:
  harness:
    steps:
      - name: fine
        run: python -m repro bench run 'table4*' --quick --set p=3
      - name: no such experiment
        run: python -m repro bench run table9 --quick
      - name: not an axis
        run: |
          python -m repro bench run table4 --quick \\
            --set bogus=1
"""


@pytest.mark.parametrize("line, problem", [
    (7, "bench run table9: unknown experiment 'table9'"),
    (10, "bench run table4: unknown parameter(s) for experiment 'table4': bogus"),
], ids=["unregistered-experiment", "unknown-axis"])
def test_checker_catches_bench_runs_the_harness_rejects(tmp_path, line, problem):
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(BENCH_RUNS, encoding="utf-8")
    problems = check_ci.check_repo(tmp_path)
    assert len(problems) == 2
    assert any(
        p.startswith(f".github/workflows/ci.yml:{line}: {problem}")
        for p in problems
    ), problems


class TestReproCommands:
    """How a ``run:`` script is cut into ``repro`` argument lists."""

    def test_continuations_join_and_keep_the_first_line(self):
        script = "echo start\npython -m repro run \\\n  --vertices 9 \\\n  --verify\n"
        assert check_ci.repro_commands(10, script) == [
            (11, ["run", "--vertices", "9", "--verify"])
        ]

    def test_shell_operators_end_the_argument_list(self):
        script = "python -m repro info --json | head && echo done"
        assert check_ci.repro_commands(1, script) == [(1, ["info", "--json"])]

    def test_comments_are_dropped(self):
        script = "python3 -m repro bench list  # show the catalog"
        assert check_ci.repro_commands(4, script) == [(4, ["bench", "list"])]

    def test_other_programs_are_ignored(self):
        script = "python -m pytest -q\npython tools/check_links.py\nrepro run"
        assert check_ci.repro_commands(1, script) == []

    def test_one_entry_per_command(self):
        script = "python -m repro info\npython3.11 -m repro run --verify"
        assert [line for line, _ in check_ci.repro_commands(3, script)] == [3, 4]


class TestCliError:
    def test_accepted_command(self):
        assert check_ci.cli_error(["run", "--vertices", "500"]) is None

    def test_help_is_not_an_error(self):
        assert check_ci.cli_error(["run", "--help"]) is None

    def test_unknown_flag(self):
        error = check_ci.cli_error(["run", "--no-such-flag"])
        assert "unrecognized arguments: --no-such-flag" in error

    def test_bad_flag_value(self):
        error = check_ci.cli_error(["run", "--vertices", "many"])
        assert "invalid int value" in error
