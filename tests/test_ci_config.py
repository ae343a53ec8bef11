"""The CI workflow files load strictly (the same check CI's docs job runs)."""

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
