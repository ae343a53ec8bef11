#!/usr/bin/env python
"""Check every GitHub workflow file: no duplicate keys, no embedded programs,
no ``repro`` command the CLI would reject.

YAML loaders keep the last of two equal keys in one mapping and say
nothing, so a step that loses its ``- name:`` line merges into the step
above it and one of the two ``run:`` scripts silently never runs.  This
loads every ``.github/workflows/*.yml`` / ``*.yaml`` with a loader that
raises on a repeated key instead, and reports ``file:line`` of each.

It also reports every ``run:`` block that embeds a Python program
(``python - <<EOF``, a ``python -c`` spanning lines): a contract nobody
lints, tier-1 never runs and nobody can run offline.  It belongs in the
repository (an ``expect``, a test, a tool) and the workflow calls it.

Every ``python -m repro …`` command in a ``run:`` block (backslash
continuations joined) is parsed with ``repro.cli.build_parser()`` — never
executed — and an unknown subcommand or flag is reported at the
``file:line`` the command starts on, so deleting a CLI flag cannot leave
CI calling it.  A ``bench run NAME`` must also name a registered
experiment (or a glob matching one), and each ``--set KEY=VALUE`` must fit
an axis of every experiment it matches (``registry.names`` and
``runner.validate_overrides``, again without running anything).

Needs PyYAML, which the library itself does not (CI's docs job installs
it; the tier-1 test skips without it), and numpy, which ``repro.cli``
imports.  Exit status: 0 if every workflow loads cleanly, 1 otherwise
(problems listed on stderr).  Used by the docs job in CI and by
tests/test_ci_config.py.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import yaml

#: A here-document on an interpreter's command line, or a ``-c`` argument
#: whose opening quote is not closed on its own line.
EMBEDDED_PROGRAM = re.compile(
    r"""\bpython[\d.]*\b[^\n]*(?:<<|\s-c\s+(["'])(?:(?!\1).)*\n)"""
)

#: The interpreter invoking the ``repro`` CLI; its arguments follow.
REPRO_COMMAND = re.compile(r"\bpython[\d.]*\s+-m\s+repro\b(.*)")

#: Shell tokens that end one command's argument list.
SHELL_OPERATORS = {"&&", "||", "|", ";", "&", ">", ">>", "<", "2>", "2>&1"}


class StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping and
    notes the line of every ``run:`` key whose script embeds a program."""

    def __init__(self, stream):
        super().__init__(stream)
        self.embedded: list[int] = []
        self.scripts: list[tuple[int, str]] = []

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, value_node in node.value:
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
            if key == "run" and isinstance(value_node, yaml.ScalarNode):
                if EMBEDDED_PROGRAM.search(value_node.value):
                    self.embedded.append(key_node.start_mark.line + 1)
                # A block scalar's text starts on the line after "|".
                first = value_node.start_mark.line + 1
                if value_node.style in ("|", ">"):
                    first += 1
                self.scripts.append((first, value_node.value))
        return super().construct_mapping(node, deep=deep)


def workflow_files(root: Path) -> list[Path]:
    workflows = root / ".github" / "workflows"
    return sorted([*workflows.glob("*.yml"), *workflows.glob("*.yaml")])


def repro_commands(first_line: int, script: str) -> list[tuple[int, list[str]]]:
    """(line, argv after ``-m repro``) of every CLI call in a ``run:`` script."""
    commands = []
    lines = script.split("\n")
    i = 0
    while i < len(lines):
        start, text = first_line + i, lines[i]
        while text.endswith("\\") and i + 1 < len(lines):
            i += 1
            text = text[:-1] + " " + lines[i]
        i += 1
        match = REPRO_COMMAND.search(text)
        if match is None:
            continue
        argv = []
        for token in shlex.split(match.group(1), comments=True):
            if token in SHELL_OPERATORS:
                break
            argv.append(token)
        commands.append((start, argv))
    return commands


def cli_error(argv: list[str]) -> str | None:
    """argparse's complaint about *argv*, or None if the CLI accepts it."""
    from repro.cli import build_parser

    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return stderr.getvalue().strip().splitlines()[-1]
    return None


def bench_error(argv: list[str]) -> str | None:
    """Why ``repro bench run`` would refuse the experiment or overrides
    in *argv* (which the CLI parses), or None."""
    from repro.cli import _bench_targets, build_parser
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    if args.command != "bench" or args.bench_command != "run":
        return None
    try:
        _bench_targets(args)
    except ReproError as exc:
        return f"bench run {args.name}: {exc}"
    return None


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
    problems = [
        f"{name}:{line}: run block embeds a Python program; move it into "
        f"the repository (an expect, a test, a tool) and call that"
        for line in loader.embedded
    ]
    for first, script in loader.scripts:
        for line, argv in repro_commands(first, script):
            error = cli_error(argv) or bench_error(argv)
            if error is not None:
                problems.append(f"{name}:{line}: {error}")
    return problems


def check_repo(root: Path) -> list[str]:
    problems: list[str] = []
    for path in workflow_files(root):
        problems.extend(check_file(path, root))
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
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
          f"no embedded programs, every repro command parses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
