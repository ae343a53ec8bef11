#!/usr/bin/env python
"""Check that intra-repo markdown links resolve.

Scans every ``*.md`` file in the repository (skipping build/VCS
directories), extracts inline links ``[text](target)``, and verifies that
relative targets point at files or directories that exist.  External
schemes (http/https/mailto) and pure in-page anchors (``#...``) are
skipped; a fragment on a relative link is stripped before checking.

Exit status: 0 if all links resolve, 1 otherwise (broken links listed on
stderr).  Used by the docs job in CI and by tests/test_docs_links.py.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Directories never scanned (and never valid link targets from our docs).
SKIP_DIRS = {".git", ".hypothesis", ".pytest_cache", "__pycache__",
             "node_modules", ".venv", "venv"}

#: ``[text](target)`` inline links; images share the syntax via ``![``.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Schemes that point outside the repository.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def iter_markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check_file(path: Path, root: Path) -> list[str]:
    """Return 'file:target' strings for every broken relative link."""
    broken = []
    text = path.read_text(encoding="utf-8")
    # Drop fenced code blocks: shell snippets legitimately contain
    # parenthesized text that is not a link.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            broken.append(f"{path.relative_to(root)}: {target} (escapes repo)")
            continue
        if not resolved.exists():
            broken.append(f"{path.relative_to(root)}: {target}")
    return broken


def check_repo(root: Path) -> list[str]:
    broken: list[str] = []
    for path in iter_markdown_files(root):
        broken.extend(check_file(path, root))
    return broken


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    broken = check_repo(root)
    if broken:
        print(f"{len(broken)} broken markdown link(s):", file=sys.stderr)
        for item in broken:
            print(f"  {item}", file=sys.stderr)
        return 1
    count = sum(1 for _ in iter_markdown_files(root))
    print(f"ok: all intra-repo links resolve across {count} markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
