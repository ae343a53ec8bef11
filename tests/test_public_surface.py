"""The library exports what has a caller.

**Names.**  Every module-level public name defined in ``src/repro`` must be
referenced from ``src/``, ``bench/`` or ``tools/``.  The examples are
clients of the library, as the tests are: a capability only they or the
tests call is deleted; a reference implementation the tests compare
against lives in ``tests/oracles_*.py``.  The walk reads the
source with ``ast`` and imports nothing.  A reference is a ``Name`` or
``Attribute`` load outside the name's own definition.  ``__all__`` strings,
re-exports and import aliases are not loads, so an unused import cannot keep
a dead name alive.  Matching is by bare name, so a name is kept alive by any
same-named attribute anywhere: the check can miss a dead name.  A name
reached only through a string (``getattr``, a registry key) needs an
allow-list entry.

**Members.**  Every public method and property defined in a class body
under ``src/repro`` must be loaded as an attribute in ``src/``,
``bench/`` or ``tools/``, outside its own definition (a
recursive call does not count).  The same rules hold: ``ast`` only,
matching by bare name, dunders and ``_private`` names exempt.  A bare name
load does not count — a method is reached through an attribute — but any
same-named attribute does, on any object: ``f.close()`` keeps every
``close`` method alive, so the check can miss a dead member too.

**Flags.**  Every long option of ``repro.cli.build_parser()`` must appear
outside ``cli.py`` and ``tests/``: in the README, the docs, CI, the examples,
the tools or the library's own messages.

**Re-exports.**  Every ``__all__`` entry of every module resolves.

The allow-lists can only shrink: an entry whose name gains a caller, or no
longer exists, fails the test until it is removed.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: Where a call keeps a public name or member alive (see the module doc).
CALLER_DIRS = ("src", "bench", "tools")

#: Public names allowed to have only test callers, each with its reason
#: (none are).
ALLOWED_NAMES: dict[str, str] = {}

#: Public class members allowed to have only test callers, each with its
#: reason (none are).
ALLOWED_MEMBERS: dict[str, str] = {}

#: CLI flags allowed to appear nowhere but cli.py and tests/.
ALLOWED_FLAGS: dict[str, str] = {}

#: Where a flag counts as documented or used.
FLAG_DOCS = ("README.md", "docs", ".github", "examples", "bench", "tools", "src")


def _top_level_names(tree: ast.Module):
    """(name, node) for every module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _members(tree: ast.Module):
    """(name, node) for every method and property of every class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, node


def _definitions(walk) -> dict[str, list[str]]:
    """Public name -> ``path:line`` of each definition *walk* yields."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for name, node in walk(ast.parse(path.read_text())):
            if not name.startswith("_"):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(name, []).append(where)
    return found


def _loads(path: Path, *, members: bool = False) -> set[str]:
    """Names loaded in *path*, minus loads inside that name's own definition.

    With *members*, a definition is a class member and only attribute
    loads count."""
    tree = ast.parse(path.read_text())
    own: dict[str, list[tuple[int, int]]] = {}
    for name, node in (_members if members else _top_level_names)(tree):
        own.setdefault(name, []).append((node.lineno, node.end_lineno))
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif (not members and isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)):
            name = node.id
        else:
            continue
        if not any(lo <= node.lineno <= hi for lo, hi in own.get(name, ())):
            loaded.add(name)
    return loaded


def _census(members: bool) -> tuple[dict[str, list[str]], set[str]]:
    referenced: set[str] = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            referenced |= _loads(path, members=members)
    return _definitions(_members if members else _top_level_names), referenced


@pytest.fixture(scope="module")
def census() -> tuple[dict[str, list[str]], set[str]]:
    return _census(members=False)


@pytest.fixture(scope="module")
def member_census() -> tuple[dict[str, list[str]], set[str]]:
    return _census(members=True)


def _orphans(census, allowed: dict[str, str]) -> list[str]:
    defined, referenced = census
    return sorted(
        f"{where}: {name}"
        for name, places in defined.items()
        if name not in referenced and name not in allowed
        for where in places
    )


def _stale_allowances(census, allowed: dict[str, str]) -> list[str]:
    """Why each allow-list entry must go (or say why it stays)."""
    defined, referenced = census
    stale = []
    for name, reason in allowed.items():
        if not reason.strip():
            stale.append(f"{name}: give the reason it stays")
        elif name not in defined:
            stale.append(f"{name} is gone: drop it from the allow-list")
        elif name in referenced:
            stale.append(f"{name} has a caller now: drop it from the allow-list")
    return stale


def test_every_public_name_has_a_caller_outside_tests(census):
    orphans = _orphans(census, ALLOWED_NAMES)
    assert not orphans, (
        "public names with no caller outside tests/ (delete them, or move a "
        "test oracle to tests/oracles_*.py):\n" + "\n".join(orphans)
    )


def test_name_allow_list_only_shrinks(census):
    assert len(ALLOWED_NAMES) <= 0
    stale = _stale_allowances(census, ALLOWED_NAMES)
    assert not stale, "\n".join(stale)


def test_every_public_member_has_a_caller_outside_tests(member_census):
    orphans = _orphans(member_census, ALLOWED_MEMBERS)
    assert not orphans, (
        "public methods and properties with no attribute load outside "
        "tests/ (delete them, or move a test oracle to "
        "tests/oracles_*.py):\n" + "\n".join(orphans)
    )


def test_member_allow_list_only_shrinks(member_census):
    assert len(ALLOWED_MEMBERS) <= 0
    stale = _stale_allowances(member_census, ALLOWED_MEMBERS)
    assert not stale, "\n".join(stale)


def _long_flags(parser: argparse.ArgumentParser, command: str = "repro"):
    """(flag, command) for every ``--option`` of *parser* and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _long_flags(child, f"{command} {name}")
        else:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    yield option, command


def _flag_corpus() -> str:
    texts = []
    for entry in FLAG_DOCS:
        path = ROOT / entry
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file() and file.suffix in (".md", ".py", ".yml", ".yaml") \
                    and file != SRC / "cli.py":
                texts.append(file.read_text(encoding="utf-8"))
    return "\n".join(texts)


def test_every_cli_flag_is_used_outside_cli_and_tests():
    corpus = _flag_corpus()
    flags = set(_long_flags(build_parser()))
    unused = sorted(
        f"{command} {flag}"
        for flag, command in flags
        if flag not in ALLOWED_FLAGS
        and not re.search(re.escape(flag) + r"(?![\w-])", corpus)
    )
    assert not unused, (
        "CLI flags documented nowhere (give each a README/docs line, or "
        "delete its argparse entry):\n" + "\n".join(unused)
    )
    names = {flag for flag, _ in flags}
    for flag, reason in ALLOWED_FLAGS.items():
        assert reason.strip(), f"{flag}: give the reason it stays"
        assert flag in names, f"{flag} is gone: drop it from ALLOWED_FLAGS"
        assert not re.search(re.escape(flag) + r"(?![\w-])", corpus), (
            f"{flag} is documented now: drop it from ALLOWED_FLAGS"
        )


def test_every_all_entry_resolves():
    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # runs the CLI on import
    ]
    stale = [
        f"{name}.{entry}"
        for name in modules
        for entry in getattr(importlib.import_module(name), "__all__", ())
        if not hasattr(importlib.import_module(name), entry)
    ]
    assert not stale, f"__all__ entries naming no attribute: {stale}"


# -- the walk's own rules, on synthetic sources ------------------------------


def _loads_of(tmp_path, source: str, *, members: bool = False) -> set[str]:
    path = tmp_path / "mod.py"
    path.write_text(source)
    return _loads(path, members=members)


def test_a_call_and_an_attribute_are_references(tmp_path):
    loads = _loads_of(tmp_path, "import m\nm.helper()\nvalue = other(1)\n")
    assert {"helper", "other"} <= loads


def test_a_load_inside_its_own_definition_is_not_a_reference(tmp_path):
    source = "def walk(n):\n    return walk(n - 1) if n else 0\n"
    assert "walk" not in _loads_of(tmp_path, source)
    assert "walk" in _loads_of(tmp_path, source + "walk(3)\n")


def test_all_strings_and_import_aliases_are_not_references(tmp_path):
    source = (
        "from repro.graph import helper as alias\n"
        "import repro.dead\n"
        "__all__ = ['helper', 'dead']\n"
    )
    loads = _loads_of(tmp_path, source)
    assert not {"helper", "alias", "dead"} & loads


def test_stores_are_not_references(tmp_path):
    loads = _loads_of(tmp_path, "obj.field = 1\nname = 2\n")
    assert not {"field", "name"} & loads


def test_a_property_read_is_a_member_reference(tmp_path):
    source = (
        "class C:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "print(C().size)\n"
    )
    assert "size" in _loads_of(tmp_path, source, members=True)


def test_a_recursive_call_is_not_a_member_reference(tmp_path):
    source = (
        "class C:\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else 0\n"
    )
    assert "walk" not in _loads_of(tmp_path, source, members=True)
    assert "walk" in _loads_of(tmp_path, source + "C().walk(3)\n", members=True)


def test_any_same_named_attribute_keeps_a_member_alive(tmp_path):
    """The documented miss: matching is by bare name, not by class."""
    source = (
        "class C:\n"
        "    def close(self):\n"
        "        pass\n"
        "import socket\n"
        "socket.socket().close()\n"
    )
    assert "close" in _loads_of(tmp_path, source, members=True)


def test_a_bare_name_is_not_a_member_reference(tmp_path):
    source = (
        "class C:\n"
        "    def prefix(self):\n"
        "        pass\n"
        "prefix = 'p'\n"
        "print(prefix)\n"
    )
    assert "prefix" not in _loads_of(tmp_path, source, members=True)
    assert "prefix" in _loads_of(tmp_path, source)


def test_an_allowance_that_gains_a_caller_fails():
    defined = {"helper": ["src/repro/mod.py:3"]}
    allowed = {"helper": "only the tests call it"}
    assert _stale_allowances((defined, set()), allowed) == []
    assert _stale_allowances((defined, {"helper"}), allowed) == [
        "helper has a caller now: drop it from the allow-list"
    ]


def test_an_allowance_for_a_deleted_member_fails():
    allowed = {"helper": "only the tests call it"}
    assert _stale_allowances(({}, set()), allowed) == [
        "helper is gone: drop it from the allow-list"
    ]


def test_an_allowance_without_a_reason_fails():
    defined = {"helper": ["src/repro/mod.py:3"]}
    assert _stale_allowances((defined, set()), {"helper": " "}) == [
        "helper: give the reason it stays"
    ]


def test_members_cover_methods_and_properties_of_every_class():
    tree = ast.parse(
        "class A:\n"
        "    x = 1\n"
        "    def f(self): pass\n"
        "    @property\n"
        "    def p(self): return 1\n"
        "    async def g(self): pass\n"
        "    class B:\n"
        "        def h(self): pass\n"
        "def outer():\n"
        "    class D:\n"
        "        def k(self): pass\n"
    )
    assert sorted(name for name, _ in _members(tree)) == ["f", "g", "h", "k", "p"]


def test_top_level_names_cover_defs_classes_and_assignments():
    tree = ast.parse(
        "def f(): pass\n"
        "async def g(): pass\n"
        "class C: pass\n"
        "X = 1\n"
        "Y: int = 2\n"
        "a, b = 3, 4\n"
        "if True:\n    Z = 5\n"
    )
    assert [name for name, _ in _top_level_names(tree)] == ["f", "g", "C", "X", "Y"]


def test_long_flags_walk_every_subcommand():
    parser = argparse.ArgumentParser(prog="p")
    parser.add_argument("--top")
    sub = parser.add_subparsers()
    child = sub.add_parser("go")
    child.add_argument("-q", "--quick", action="store_true")
    grandchild = child.add_subparsers().add_parser("deep")
    grandchild.add_argument("--depth")
    assert sorted(_long_flags(parser)) == [
        ("--depth", "repro go deep"),
        ("--quick", "repro go"),
        ("--top", "repro"),
    ]
