#!/usr/bin/env python
"""Check every GitHub workflow file: no duplicate keys, no embedded programs.

YAML loaders keep the last of two equal keys in one mapping and say
nothing, so a step that loses its ``- name:`` line merges into the step
above it and one of the two ``run:`` scripts silently never runs.  This
loads every ``.github/workflows/*.yml`` / ``*.yaml`` with a loader that
raises on a repeated key instead, and reports ``file:line`` of each.

It also reports every ``run:`` block that embeds a Python program
(``python - <<EOF``, a ``python -c`` spanning lines): a contract nobody
lints, tier-1 never runs and nobody can run offline.  It belongs in the
repository (an ``expect``, a test, a tool) and the workflow calls it.

Needs PyYAML, which the library itself does not (CI's docs job installs
it; the tier-1 test skips without it).  Exit status: 0 if every workflow
loads cleanly, 1 otherwise (problems listed on stderr).  Used by the docs
job in CI and by tests/test_ci_config.py.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import yaml

#: A here-document on an interpreter's command line, or a ``-c`` argument
#: whose opening quote is not closed on its own line.
EMBEDDED_PROGRAM = re.compile(
    r"""\bpython[\d.]*\b[^\n]*(?:<<|\s-c\s+(["'])(?:(?!\1).)*\n)"""
)


class StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping and
    notes the line of every ``run:`` key whose script embeds a program."""

    def __init__(self, stream):
        super().__init__(stream)
        self.embedded: list[int] = []

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, value_node in node.value:
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
            if (
                key == "run"
                and isinstance(value_node, yaml.ScalarNode)
                and EMBEDDED_PROGRAM.search(value_node.value)
            ):
                self.embedded.append(key_node.start_mark.line + 1)
        return super().construct_mapping(node, deep=deep)


def workflow_files(root: Path) -> list[Path]:
    workflows = root / ".github" / "workflows"
    return sorted([*workflows.glob("*.yml"), *workflows.glob("*.yaml")])


def check_file(path: Path, root: Path) -> list[str]:
    """Return one ``file:line: problem`` string per finding."""
    name = path.relative_to(root)
    loader = StrictLoader(path.read_text(encoding="utf-8"))
    try:
        loader.get_single_data()
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        line = mark.line + 1 if mark is not None else 0
        return [f"{name}:{line}: {exc.problem}"]
    finally:
        loader.dispose()
    return [
        f"{name}:{line}: run block embeds a Python program; move it into "
        f"the repository (an expect, a test, a tool) and call that"
        for line in loader.embedded
    ]


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
    print(f"ok: {len(files)} workflow file(s): no duplicate keys, "
          f"no embedded programs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
