#!/usr/bin/env python
"""Check that every GitHub workflow file loads with no duplicate keys.

YAML loaders keep the last of two equal keys in one mapping and say
nothing, so a step that loses its ``- name:`` line merges into the step
above it and one of the two ``run:`` scripts silently never runs.  This
loads every ``.github/workflows/*.yml`` / ``*.yaml`` with a loader that
raises on a repeated key instead, and reports ``file:line`` of each.

Needs PyYAML, which the library itself does not (CI's docs job installs
it; the tier-1 test skips without it).  Exit status: 0 if every workflow
loads cleanly, 1 otherwise (problems listed on stderr).  Used by the docs
job in CI and by tests/test_ci_config.py.
"""

from __future__ import annotations

import sys
from pathlib import Path

import yaml


class StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def workflow_files(root: Path) -> list[Path]:
    workflows = root / ".github" / "workflows"
    return sorted([*workflows.glob("*.yml"), *workflows.glob("*.yaml")])


def check_file(path: Path, root: Path) -> list[str]:
    """Return one ``file:line: problem`` string per load failure."""
    try:
        with path.open(encoding="utf-8") as handle:
            yaml.load(handle, Loader=StrictLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark is not None else 0
        return [f"{path.relative_to(root)}:{line}: {exc.problem}"]
    return []


def check_repo(root: Path) -> list[str]:
    problems: list[str] = []
    for path in workflow_files(root):
        problems.extend(check_file(path, root))
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    files = workflow_files(root)
    if not files:
        print(f"no workflow files under {root / '.github' / 'workflows'}",
              file=sys.stderr)
        return 1
    problems = check_repo(root)
    if problems:
        print(f"{len(problems)} workflow problem(s):", file=sys.stderr)
        for item in problems:
            print(f"  {item}", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} workflow file(s) load with no duplicate keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
