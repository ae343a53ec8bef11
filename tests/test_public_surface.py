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

**Options.**  Every option of the library must be passed by some call in
``src/``, ``bench/`` or ``tools/``.  An option is a parameter with a
default of a public function or method (``__init__`` counts for its
class), or a field with a default of a public dataclass (a ``ClassVar`` or
an ``init=False`` field is not one).  A call passes an option when it names
the callable (bare or as an attribute) and binds the option by keyword or
by position.  A bare name names what its file imports or defines under it
(following re-exports), when the walk can tell; ``cls(...)`` names the enclosing class and its subclasses,
``super().__init__(...)`` names the bases, a subclass without its own
constructor reaches its base's, and ``replace(obj, field=...)`` names every
dataclass with that field (``replace(self, ...)`` only the enclosing class).
A ``**`` splat of a dict literal binds its keys; so does a splat of a call
of a local function, or of a parameter whose every caller hands in a lambda
or a local function, that returns one.  Any other ``*`` or ``**`` splat
binds every option.
What a call binds does not count when it is a literal equal to the
option's default, or when it forwards a parameter of the enclosing
function that no call passes in turn (the same rules, followed through
private helpers too).  Calls inside the callable's own body do not count.
A module-level function loaded as a value (``fn=run_scenario``) or handed
to a decorator has callers the walk cannot see: all its options count as
passed.  An attribute call binds a module-level function only when its
receiver names an imported module (``import M [as m]``, or ``from P import
m`` of a module in ``src/repro``), so ``ctx.gather(...)`` sets no option of
a module's ``gather``; any other receiver binds methods and constructors,
matched by bare name as for members, so the check can miss an option
nobody sets.  An option set only through a method handed on as a value
needs an allow-list entry.  With one value in use an option is a
constant.

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
import dataclasses
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


# -- options ------------------------------------------------------------------

#: Options allowed to have no caller outside tests, keyed by
#: ``(qualname, option)``, each with its reason: an input from outside the
#: program, a hook a test substitutes, or the ROADMAP item that removes it.
_COST_FOLD = "ROADMAP items 3 and 7: folded into one CostModel once bench/ thaws"
_BENCH_ROOT = (
    "ROADMAP item 3: bench/tracing.py passes root=0 to RankContext.gather, "
    "which forwards it; rank 0 once bench/ thaws"
)
ALLOWED_OPTIONS: dict[tuple[str, str], str] = {
    ("main", "argv"): "test hook: tests run the CLI without a process",
    ("Tracer", "wall_fn"): "test hook: tests substitute a fake wall clock",
    ("adaptive_cluster", "ethernet"):
        "ROADMAP item 1: the default cluster becomes a function of the program",
    ("random_geometric_graph", "dim"):
        "ROADMAP item 7: the one 3-D generator Sec. 3.1 needs; a 3-D "
        "experiment calls it, or it goes",
    ("RankContext.gather", "root"): _BENCH_ROOT,
    ("gather", "root"): _BENCH_ROOT,
    ("ProgramConfig", "kernel_cost"): _COST_FOLD,
    ("ProgramConfig", "inspector_cost"): _COST_FOLD,
    ("ProgramConfig", "executor_cost"): _COST_FOLD,
    ("KernelCostModel", "sec_per_reference"): _COST_FOLD,
    ("KernelCostModel", "sec_per_vertex"): _COST_FOLD,
    ("InspectorCostModel", "sec_per_ref"): _COST_FOLD,
    ("InspectorCostModel", "sec_per_sort_op"): _COST_FOLD,
    ("InspectorCostModel", "sec_per_linear_op"): _COST_FOLD,
    ("InspectorCostModel", "sec_per_translate"): _COST_FOLD,
    ("InspectorCostModel", "sec_per_message_setup"): _COST_FOLD,
    ("ExecutorCostModel", "sec_per_pack"): _COST_FOLD,
    ("ExecutorCostModel", "sec_per_unpack"): _COST_FOLD,
    ("PointToPointNetwork", "latency"): _COST_FOLD,
    ("PointToPointNetwork", "bandwidth"): _COST_FOLD,
    ("PointToPointNetwork", "per_message_overhead"): _COST_FOLD,
}

#: The most entries ALLOWED_OPTIONS may hold: its size now.  Lower it with
#: each entry that goes.
MAX_ALLOWED_OPTIONS = 21

#: What :func:`_literal` returns for an expression that is not one.
_NOT_LITERAL = object()


def _literal(node: ast.expr | None):
    if node is None:
        return _NOT_LITERAL
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return _NOT_LITERAL


def _callee_name(node: ast.expr) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _decorators(node) -> set[str]:
    return {
        _callee_name(dec.func if isinstance(dec, ast.Call) else dec)
        for dec in node.decorator_list
    }


@dataclasses.dataclass(eq=False)
class _Callable:
    """One callable in ``src/repro``, public or private, as calls see it."""

    qualname: str
    public: bool
    where: str
    #: ``(path, first line, last line)`` of the body whose own calls do
    #: not count; ``None`` for a dataclass's generated constructor.
    body: tuple[Path, int, int] | None
    #: Parameters a positional argument binds, in order.
    positional: list[str]
    #: Every parameter, by the name a keyword binds.
    params: set[str]
    #: Option name -> (owner qualname, default expression, ``path:line``).
    options: dict[str, tuple[str, ast.expr, str]]
    #: The name of the ``**`` parameter, if any.
    kwarg: str | None = None
    #: Whether it is a module-level function, and whether a decorator
    #: (other than ``staticmethod`` or ``classmethod``) receives it.
    function: bool = False
    decorated: bool = False


def _where(path: Path, line: int) -> str:
    shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
    return f"{shown}:{line}"


def _function(qualname, public, path, fn, *, bound, function=False) -> _Callable:
    args = fn.args
    ordered = args.posonlyargs + args.args
    if bound:
        ordered = ordered[1:]
    named = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(named[len(named) - len(args.defaults):], args.defaults))
    defaults.update(
        (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
    )
    where = _where(path, fn.lineno)
    return _Callable(
        qualname,
        public,
        where,
        (path, fn.lineno, fn.end_lineno),
        [a.arg for a in ordered],
        {a.arg for a in ordered + args.kwonlyargs},
        {name: (qualname, d, where) for name, d in defaults.items()},
        args.kwarg.arg if args.kwarg else None,
        function=function,
        decorated=bool(_decorators(fn) - {"staticmethod", "classmethod"}),
    )


def _fields(cls: ast.ClassDef, path: Path):
    """(name, default or None, kw_only, ``path:line``) per init field."""
    kw_only = any(
        isinstance(dec, ast.Call) and any(
            k.arg == "kw_only" and _literal(k.value) is True
            for k in dec.keywords
        )
        for dec in cls.decorator_list
    )
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)) \
                or "ClassVar" in ast.unparse(node.annotation):
            continue
        default, field_kw_only = node.value, kw_only
        if isinstance(default, ast.Call) and _callee_name(default.func) == "field":
            given = {k.arg: k.value for k in default.keywords}
            if _literal(given.get("init")) is False:
                continue
            field_kw_only = _literal(given.get("kw_only", ast.Constant(kw_only)))
            default = given.get("default", given.get("default_factory"))
        yield (node.target.id, default, field_kw_only,
               _where(path, node.lineno))


class _Surface:
    """Every callable of the *sources* (``src/repro``), public or private,
    under each name a call can use."""

    def __init__(self, sources) -> None:
        self.classes: dict[str, tuple[ast.ClassDef, Path]] = {}
        #: module -> its ``from M import name`` map (see :func:`_imports`).
        self.imports: dict[str, dict[str, tuple[str, str]]] = {}
        functions = []
        for path in sources:
            tree = ast.parse(path.read_text())
            self.imports[_module(path)] = _imports(tree, path)
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = (node, path)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append((node, path))
        self.by_name: dict[str, list[_Callable]] = {}
        #: ``(path, line)`` of each def -> its callable (enclosing bodies).
        self.by_def: dict[tuple[Path, int], _Callable] = {}
        for fn, path in functions:
            self._add(fn.name, path, fn, _function(
                fn.name, not fn.name.startswith("_"), path, fn,
                bound=False, function=True,
            ))
        for name, (cls, path) in self.classes.items():
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or {"property", "setter"} & _decorators(fn):
                    continue
                if fn.name == "__init__":
                    key, qualname = name, name
                elif fn.name.startswith("__"):
                    continue
                else:
                    key, qualname = fn.name, f"{name}.{fn.name}"
                self._add(key, path, fn, _function(
                    qualname,
                    not (name.startswith("_") or fn.name.startswith("_")
                         and fn.name != "__init__"),
                    path, fn, bound="staticmethod" not in _decorators(fn),
                ))
        for name in self.classes:
            if name not in self.by_name:  # constructor from a base
                if (ctor := self._constructor(name)) is not None:
                    self.by_name[name] = [ctor]
        #: ``(module, name)`` -> the function or constructor a module
        #: defines under that name: what a bare name imported from it calls.
        self.defined: dict[tuple[str, str], list[_Callable]] = {}
        for fn, path in functions:
            self.defined[(_module(path), fn.name)] = [
                self.by_def[(path, fn.lineno)]
            ]
        for name, (_, path) in self.classes.items():
            self.defined[(_module(path), name)] = [
                c for c in self.by_name.get(name, ()) if c.qualname == name
            ]

    def _add(self, key, path, fn, callable_: _Callable) -> None:
        self.by_name.setdefault(key, []).append(callable_)
        self.by_def[(path, fn.lineno)] = callable_

    def lookup(self, module: str, name: str) -> list[_Callable]:
        """What *name* imported from *module* calls, following
        re-exports; empty when the walk cannot tell."""
        seen = set()
        while (module, name) not in self.defined and (module, name) not in seen:
            seen.add((module, name))
            if (source := self.imports.get(module, {}).get(name)) is None:
                return []
            module, name = source
        return self.defined.get((module, name), [])

    def bases(self, name: str) -> list[str]:
        cls, _ = self.classes[name]
        return [b for b in map(_callee_name, cls.bases) if b in self.classes]

    def subclasses(self, name: str) -> set[str]:
        found = {name}
        for other in self.classes:
            if set(self.bases(other)) & found:
                found |= self.subclasses(other)
        return found

    def _constructor(self, name: str) -> _Callable | None:
        """The generated or inherited constructor of class *name*."""
        cls, path = self.classes[name]
        if "dataclass" in _decorators(cls):
            fields = self._dataclass_fields(name)
            return _Callable(
                name,
                not name.startswith("_"),
                _where(path, cls.lineno),
                None,
                [f for f, (_, _, kw_only, _) in fields.items() if not kw_only],
                set(fields),
                {f: (owner, d, where)
                 for f, (owner, d, _, where) in fields.items() if d},
            )
        for base in self.bases(name):
            for ctor in self.by_name.get(base, ()):
                if ctor.qualname == base:
                    return ctor
            if (inherited := self._constructor(base)) is not None:
                return inherited
        return None

    def _dataclass_fields(self, name: str) -> dict:
        fields = {}
        for base in reversed(self.bases(name)):
            if "dataclass" in _decorators(self.classes[base][0]):
                fields.update(self._dataclass_fields(base))
        cls, path = self.classes[name]
        for field, default, kw_only, where in _fields(cls, path):
            fields[field] = (name, default, kw_only, where)
        return fields

    def dataclass_constructors(self, field: str) -> list[_Callable]:
        return [
            c for name in self.classes
            if "dataclass" in _decorators(self.classes[name][0])
            for c in self.by_name.get(name, ())
            if c.qualname == name and field in c.params
        ]


@dataclasses.dataclass(eq=False)
class _Call:
    node: ast.Call
    path: Path
    #: The indexed callable whose body holds the call, if any.
    within: _Callable | None
    targets: list[_Callable]
    #: The module, then each function or lambda around the call, outermost
    #: first: where a name the call uses is defined.
    scopes: tuple[ast.AST, ...] = ()
    #: ``replace(obj, ...)``: only the keywords bind fields.
    keywords_only: bool = False


def _module(path: Path) -> str:
    """The dotted module name of *path* (below its ``src`` directory)."""
    parts = path.with_suffix("").parts
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        parts = parts[-1:]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.Module, path: Path) -> dict[str, tuple[str, str]]:
    """Local name -> ``(module, name)`` of every ``from M import name``
    in *tree*, at any depth."""
    package = _module(path).split(".")
    if path.stem != "__init__":
        package = package[:-1]
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                found[alias.asname or alias.name] = (module, alias.name)
    return found


def _module_names(tree: ast.Module, path: Path, known) -> dict[str, str]:
    """Local name -> module, for each name *tree* binds to a module:
    ``import M`` / ``import M as m``, and ``from P import m`` when
    ``P.m`` is one of the *known* modules."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found[alias.asname or alias.name] = alias.name
                if alias.asname is None:  # ``import a.b`` binds ``a``
                    root = alias.name.split(".")[0]
                    found.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            for local, (module, name) in _imports(
                ast.Module([node], []), path
            ).items():
                if f"{module}.{name}" in known:
                    found[local] = f"{module}.{name}"
    return found


def _calls(surface: _Surface, paths) -> tuple[list[_Call], set[str]]:
    """Every call that names a callable of *surface*, and the names loaded
    as values (``fn=run_scenario``): a function that escapes so may be
    called with any option."""
    calls, loads = [], set()

    def visit(node, path, cls, within, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name if cls is None else cls, within,
                      scopes)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, cls, surface.by_def.get((path, child.lineno)),
                      scopes + (child,))
                continue
            if isinstance(child, ast.Call):
                calls.extend(
                    _resolve(surface, child, path, cls, within, scopes,
                             imports, modules)
                )
            elif isinstance(child, (ast.Name, ast.Attribute)) \
                    and isinstance(child.ctx, ast.Load) \
                    and not (isinstance(node, ast.Call) and child is node.func):
                loads.add(_callee_name(child))
            visit(child, path, cls, within,
                  scopes + (child,) if isinstance(child, ast.Lambda) else scopes)

    for path in paths:
        module = ast.parse(path.read_text())
        imports = _imports(module, path)
        modules = _module_names(module, path, surface.imports)
        visit(module, path, None, None, (module,))
    return calls, loads


def _resolve(surface, node, path, cls, within, scopes, imports, modules):
    func = node.func
    name = _callee_name(func)
    if name == "replace" and node.args:
        # ``replace(self, ...)`` names the enclosing class (or a subclass);
        # any other object, every dataclass with the field.
        own = None
        if cls in surface.classes and _callee_name(node.args[0]) == "self":
            own = surface.subclasses(cls)
        for kw in node.keywords:
            if kw.arg is not None:
                for target in surface.dataclass_constructors(kw.arg):
                    if own is None or target.qualname in own:
                        yield _Call(
                            node, path, within, [target], scopes,
                            keywords_only=True,
                        )
        return
    names = {name}
    if cls in surface.classes:
        if name == "cls" and isinstance(func, ast.Name) or (
            isinstance(func, ast.Call) and _callee_name(func.func) == "type"
        ):
            names = surface.subclasses(cls)
        elif name == "__init__" and isinstance(func.value, ast.Call) \
                and _callee_name(func.value.func) == "super":
            names = set(surface.bases(cls))
    targets = [t for n in names for t in surface.by_name.get(n, ())]
    if isinstance(func, ast.Name) and name != "cls":
        # A bare name calls what its file imports or defines under it,
        # when the walk can tell; else anything of that name.
        source = imports.get(name, (_module(path), name))
        targets = surface.lookup(*source) or targets
    elif isinstance(func, ast.Attribute):
        # Only a module's attribute is a module-level function: any other
        # receiver calls a method or a constructor.
        module = modules.get(ast.unparse(func.value))
        if module is None:
            targets = [t for t in targets if not t.function]
        else:
            targets = surface.lookup(module, name) or targets
    if targets:
        yield _Call(node, path, within, targets, scopes)


def _bindings(call: _Call, target: _Callable, splat=lambda value: None) -> dict:
    """Option name (or ``("**", key)``) -> ``(kind, expression)`` bound.

    *splat* maps the value of a ``**`` argument to the ``{key: value}``
    it passes, or to ``None`` when the walk cannot tell: such a splat
    binds every option.
    """
    bound = {}
    node = call.node
    splats = []
    if not call.keywords_only:
        for param, arg in zip(target.positional, node.args):
            if isinstance(arg, ast.Starred):
                break
            bound[param] = ("arg", arg)
        splats = [("*", a.value) for a in node.args if isinstance(a, ast.Starred)]
    for kw in node.keywords:
        if kw.arg is None:
            if call.keywords_only:
                continue
            if (items := splat(kw.value)) is None:
                splats.append(("**", kw.value))
            for key, value in (items or {}).items():
                if key in target.params:
                    bound[key] = ("key", value)
                elif target.kwarg:
                    bound[("**", key)] = ("key", value)
        elif kw.arg in target.params:
            bound[kw.arg] = ("arg", kw.value)
        elif target.kwarg:
            bound[("**", kw.arg)] = ("arg", kw.value)
    if splats:
        for param in target.params - set(bound):
            bound[param] = splats[0]
    return bound


class _OptionCensus:
    """Which options of ``src/repro`` some call outside tests passes."""

    def __init__(self, sources, callers) -> None:
        self.surface = _Surface(sources)
        self.calls: dict[int, list[_Call]] = {}
        calls, loads = _calls(self.surface, callers)
        #: Module-level functions loaded as values or handed to a
        #: decorator: their callers are unknown, so every option of theirs
        #: counts as passed.
        self.escaped = {
            id(c) for name, targets in self.surface.by_name.items()
            for c in targets
            if c.function and (name in loads or c.decorated)
        }
        for call in calls:
            for target in call.targets:
                self.calls.setdefault(id(target), []).append(call)
        self._passing: set = set()
        self._active: set = set()

    def options(self) -> dict[tuple[str, str], str]:
        """(qualname, option) -> ``path:line`` of each public option."""
        found = {}
        for targets in self.surface.by_name.values():
            for target in targets:
                for option, (owner, _, where) in target.options.items():
                    if target.public and not owner.split(".")[0].startswith("_"):
                        found[(owner, option)] = where
        return found

    def passed(self) -> set[tuple[str, str]]:
        passed = set()
        for targets in self.surface.by_name.values():
            for target in targets:
                for option, (owner, default, _) in target.options.items():
                    if self._passes(target, option, _literal(default)):
                        passed.add((owner, option))
        return passed

    def _passes(self, target: _Callable, option, default) -> bool:
        key = (id(target), option, repr(default))
        if key in self._passing or id(target) in self.escaped:
            return True
        if key in self._active:  # a cycle of forwards passes nothing
            return False
        self._active.add(key)
        try:
            passes = any(
                self._real(call, option, bound, default)
                for call in self.calls.get(id(target), ())
                if not _inside(call, target.body)
                and (bound := _bindings(
                    call, target, lambda value: self._splat(call, value)
                ).get(option))
            )
        finally:
            self._active.discard(key)
        if passes:
            self._passing.add(key)
        return passes

    def _real(self, call: _Call, option, bound, default) -> bool:
        kind, value = bound
        within = call.within
        if isinstance(value, ast.Name) and within is not None:
            if kind == "**" and value.id == within.kwarg:
                name = option[1] if isinstance(option, tuple) else option
                return self._passes(within, ("**", name), default)
            if kind == "arg" and value.id in within.params:
                return self._passes(within, value.id, default)
        if kind not in ("arg", "key"):
            return True
        literal = _literal(value)
        return literal is _NOT_LITERAL or not (
            type(literal) is type(default) and literal == default
        )

    def _splat(self, call: _Call, value) -> dict[str, ast.expr] | None:
        """What ``**value`` passes in *call*: a dict literal's items, or
        those a local function, or a callback parameter's lambdas and local
        functions, return; ``None`` when the walk cannot see them."""
        if (items := _dict_items(value)) is not None:
            return items
        if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
            return None
        name = value.func.id
        if (local := _local_def(call.scopes, name)) is not None:
            return _returned_items(local)
        within, scope = call.within, call.scopes[-1]
        if within is None or name not in within.params \
                or within.body[1:] != (scope.lineno, scope.end_lineno):
            return None
        items = {}
        for outer in self.calls.get(id(within), ()):
            if _inside(outer, within.body):
                continue
            kind, given = _bindings(outer, within).get(name, (None, None))
            if kind != "arg":
                return None
            if isinstance(given, ast.Name):
                given = _local_def(outer.scopes, given.id)
            if given is None or (got := _returned_items(given)) is None:
                return None
            items.update(got)
        return items


def _dict_items(node) -> dict[str, ast.expr] | None:
    """``{key: value}`` of a ``dict(k=v)`` or ``{"k": v}`` literal whose
    keys are all named; ``None`` for any other expression."""
    if isinstance(node, ast.Dict) and all(
        isinstance(k, ast.Constant) and isinstance(k.value, str)
        for k in node.keys
    ):
        return {k.value: v for k, v in zip(node.keys, node.values)}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "dict" and not node.args \
            and all(kw.arg for kw in node.keywords):
        return {kw.arg: kw.value for kw in node.keywords}
    return None


def _local_def(scopes, name: str):
    """The ``def name`` a call in *scopes* sees (the innermost statement
    of that name in a scope's body), or ``None``, also when a parameter
    of an inner scope shadows it."""
    for scope in reversed(scopes):
        if not isinstance(scope, ast.Lambda):
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return node
        if not isinstance(scope, ast.Module) and name in {
            a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)
        }:
            return None
    return None


def _returned_items(fn) -> dict[str, ast.expr] | None:
    """The items every return of *fn* (a lambda or a ``def``) passes
    when its value is splatted, if each returns a dict literal."""
    if isinstance(fn, ast.Lambda):
        return _dict_items(fn.body)
    if not isinstance(fn, ast.FunctionDef):
        return None
    returns = [
        node.value for node in _own_nodes(fn) if isinstance(node, ast.Return)
    ]
    items = {}
    for value in returns or [None]:
        if (got := _dict_items(value)) is None:
            return None
        items.update(got)
    return items


def _own_nodes(fn):
    """The nodes of *fn*'s body outside its nested functions."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda, ast.ClassDef))
        )


def _inside(call: _Call, body) -> bool:
    return body is not None and call.path == body[0] \
        and body[1] <= call.node.lineno <= body[2]


def _option_census() -> tuple[dict[tuple[str, str], list[str]], set[tuple[str, str]]]:
    """(option -> ``[path:line]``, options some call passes), in the
    shape :func:`_orphans` and :func:`_stale_allowances` read."""
    callers = [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    census = _OptionCensus(sorted(SRC.rglob("*.py")), callers)
    return (
        {option: [where] for option, where in census.options().items()},
        census.passed(),
    )


@pytest.fixture(scope="module")
def option_census():
    return _option_census()


def test_every_option_is_passed_outside_tests(option_census):
    unset = _orphans(option_census, ALLOWED_OPTIONS)
    assert not unset, (
        "options no call in src/, bench/ or tools/ sets (make each a "
        "constant at its default, or delete it with the code only its "
        "other values reach):\n" + "\n".join(unset)
    )


def test_option_allow_list_only_shrinks(option_census):
    assert len(ALLOWED_OPTIONS) <= MAX_ALLOWED_OPTIONS
    stale = _stale_allowances(option_census, ALLOWED_OPTIONS)
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


# -- the option census's own rules, on synthetic sources --------------------


def _unset(tmp_path, library: str, callers: str) -> set[tuple[str, str]]:
    """Options of *library* that no call in *library* or *callers* sets."""
    lib, caller = tmp_path / "lib.py", tmp_path / "caller.py"
    lib.write_text(library)
    caller.write_text(callers)
    census = _OptionCensus([lib], [lib, caller])
    return set(census.options()) - census.passed()


FUNCTION = "def f(a, b=1, *, c=2):\n    return a\n"


def test_an_option_is_passed_by_keyword_or_position(tmp_path):
    assert _unset(tmp_path, FUNCTION, "f(0, 5)\n") == {("f", "c")}
    assert _unset(tmp_path, FUNCTION, "import lib\nlib.f(0, c=3)\n") == {
        ("f", "b"),
    }


def test_an_attribute_call_binds_a_function_only_through_its_module(
    tmp_path,
):
    # ``ctx.gather(...)`` calls a method, not a module-level ``gather``.
    assert _unset(tmp_path, FUNCTION, "obj.f(0, c=3)\n") == {
        ("f", "b"), ("f", "c"),
    }
    assert _unset(tmp_path, FUNCTION, "import lib as m\nm.f(0, 5, c=3)\n") \
        == set()


def test_a_literal_equal_to_the_default_does_not_pass(tmp_path):
    assert _unset(tmp_path, FUNCTION, "f(0, b=1, c=2)\n") == {
        ("f", "b"), ("f", "c"),
    }
    assert _unset(tmp_path, FUNCTION, "f(0, b=1.5, c=x)\n") == set()


def test_a_splat_passes_every_option(tmp_path):
    assert _unset(tmp_path, FUNCTION, "f(0, **options)\n") == set()
    assert _unset(tmp_path, FUNCTION, "f(*args)\n") == set()
    assert _unset(tmp_path, FUNCTION, "f(0, **make())\n") == set()


def test_a_splat_of_a_dict_literal_passes_its_keys(tmp_path):
    assert _unset(tmp_path, FUNCTION, "f(0, **dict(c=3))\n") == {("f", "b")}
    assert _unset(tmp_path, FUNCTION, "f(0, **{'b': 5})\n") == {("f", "c")}
    # A key equal to the default passes nothing, as a keyword would not.
    assert _unset(tmp_path, FUNCTION, "f(0, **dict(b=2, c=2))\n") == {
        ("f", "c"),
    }


def test_a_splat_of_a_returned_dict_passes_its_keys(tmp_path):
    local = (
        "def run():\n"
        "    def extras():\n"
        "        return dict(c=3)\n"
        "    return f(0, **extras())\n"
    )
    assert _unset(tmp_path, FUNCTION, local) == {("f", "b")}
    # A callback parameter (which shadows a function of its name): what
    # each caller hands in returns.
    library = FUNCTION + (
        "def extras(n):\n    return dict(b=n)\n"
        "def _run(extras):\n    return f(0, **extras(1))\n"
    )
    callers = (
        "_run(lambda n: dict(c=n))\n"
        "def g():\n"
        "    def extras(n):\n"
        "        if n:\n"
        "            return dict(c=n)\n"
        "        return {'c': 0}\n"
        "    return _run(extras)\n"
    )
    assert _unset(tmp_path, library, callers) == {("f", "b")}
    # One caller the walk cannot see through: every option counts.
    assert _unset(tmp_path, library, callers + "_run(table.get)\n") == set()


def test_a_bare_name_calls_what_its_file_imports(tmp_path):
    # Two modules define f; a positional argument for one would bind the
    # other's option if calls matched by name alone.
    a, b, pkg, caller = (tmp_path / f"{m}.py" for m in ("a", "b", "pkg", "caller"))
    a.write_text("def f(x, y, *, c=2):\n    return x\n")
    b.write_text("def f(x, b=1):\n    return x\n")
    pkg.write_text("from .a import f\n")
    caller.write_text("from a import f\nf(0, y)\n")
    census = _OptionCensus([a, b, pkg], [a, b, pkg, caller])
    assert set(census.options()) - census.passed() == {("f", "b"), ("f", "c")}
    # Through a re-export, and through the file's own definition.
    caller.write_text("from pkg import f\nf(0, y, c=3)\n")
    b.write_text("def f(x, b=1):\n    return x\nf(0)\n")
    census = _OptionCensus([a, b, pkg], [a, b, pkg, caller])
    assert set(census.options()) - census.passed() == {("f", "b")}


def test_a_forward_passes_what_its_callers_pass(tmp_path):
    library = FUNCTION + "def g(x, *, c=2):\n    return f(x, 1, c=c)\n"
    assert _unset(tmp_path, library, "g(0)\n") == {
        ("f", "b"), ("f", "c"), ("g", "c"),
    }
    assert _unset(tmp_path, library, "g(0, c=3)\n") == {("f", "b")}


def test_a_call_in_the_own_body_does_not_pass(tmp_path):
    library = "def walk(n, *, depth=0):\n    return walk(n - 1, depth=depth + 1)\n"
    assert _unset(tmp_path, library, "walk(3)\n") == {("walk", "depth")}


def test_a_function_loaded_as_a_value_has_unknown_callers(tmp_path):
    assert _unset(tmp_path, FUNCTION, "REGISTRY = {'f': f}\n") == set()


DATACLASS = (
    "from dataclasses import dataclass, field\n"
    "from typing import ClassVar\n"
    "@dataclass\n"
    "class C:\n"
    "    a: int\n"
    "    w: float = 1.0\n"
    "    label: ClassVar[str] = 'c'\n"
    "    count: int = field(default=0, init=False)\n"
    "    @classmethod\n"
    "    def make(cls, v):\n"
    "        return cls(0, w=v)\n"
)


def test_dataclass_options_exclude_class_vars_and_state(tmp_path):
    assert _unset(tmp_path, DATACLASS, "C(0)\n") == {("C", "w")}


def test_cls_in_a_classmethod_and_replace_pass(tmp_path):
    library = DATACLASS.replace("cls(0, w=v)", "cls(0)")
    assert _unset(tmp_path, library, "C.make(2.0)\n") == {("C", "w")}
    assert _unset(tmp_path, DATACLASS, "C.make(2.0)\n") == set()
    assert _unset(tmp_path, library, "replace(c, w=2.0)\n") == set()


def test_a_subclass_call_reaches_the_inherited_constructor(tmp_path):
    library = (
        "class B:\n"
        "    def __init__(self, *, x=1):\n"
        "        self.x = x\n"
        "class S(B):\n"
        "    pass\n"
        "class E(B):\n"
        "    def __init__(self, **link):\n"
        "        super().__init__(**link)\n"
    )
    assert _unset(tmp_path, library, "S()\nE()\n") == {("B", "x")}
    assert _unset(tmp_path, library, "S(x=2)\n") == set()
    assert _unset(tmp_path, library, "E(x=2)\n") == set()
    assert _unset(tmp_path, library, "E(x=1)\n") == {("B", "x")}


def test_an_option_allowance_that_gains_a_caller_fails():
    defined = {("f", "b"): ["src/repro/mod.py:3"]}
    allowed = {("f", "b"): "test hook"}
    assert _stale_allowances((defined, set()), allowed) == []
    assert _stale_allowances((defined, {("f", "b")}), allowed) == [
        "('f', 'b') has a caller now: drop it from the allow-list"
    ]


def test_replace_of_self_names_only_the_enclosing_class(tmp_path):
    other = (
        "@dataclass\n"
        "class D:\n"
        "    w: float = 1.0\n"
        "    def moved(self):\n"
        "        return replace(self, w=2.0)\n"
    )
    assert _unset(tmp_path, DATACLASS + other, "C(0)\nD()\n") == {("C", "w")}
    assert _unset(tmp_path, DATACLASS + other, "replace(c, w=3.0)\n") == set()
