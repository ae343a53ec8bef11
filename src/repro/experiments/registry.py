"""The experiment registry: one flat namespace of registered experiments.

Experiments self-register at import time (the decorator form in the
:mod:`repro.experiments.catalog` family modules); :func:`discover` imports
them so callers — the CLI, tests, sweep drivers — see the full set without
knowing which module defines what.
"""

from __future__ import annotations

import importlib
from typing import Callable

from repro.errors import ReproError
from repro.experiments.spec import Experiment, MetricsFn

__all__ = ["register", "experiment", "get", "names", "all_experiments", "discover"]

_REGISTRY: dict[str, Experiment] = {}

#: Modules imported by :func:`discover`.
CATALOG_MODULES = [
    "repro.experiments.catalog.paper",
    "repro.experiments.catalog.ablations",
    "repro.experiments.catalog.extensions",
    "repro.experiments.catalog.scale",
    "repro.experiments.sweep",
]


def register(exp: Experiment) -> Experiment:
    """Add *exp* to the registry; re-registering the same name must be idempotent."""
    existing = _REGISTRY.get(exp.name)
    if existing is not None and existing is not exp:
        raise ReproError(f"experiment {exp.name!r} is already registered")
    _REGISTRY[exp.name] = exp
    return exp


def experiment(name: str, **fields) -> Callable[[MetricsFn], MetricsFn]:
    """Decorator form: register the decorated metrics function as *name*.

    *fields* are :class:`Experiment`'s remaining fields.
    """

    def deco(fn: MetricsFn) -> MetricsFn:
        register(Experiment(name=name, fn=fn, **fields))
        return fn

    return deco


def discover() -> None:
    """Import every catalog module so its experiments register themselves."""
    for mod in CATALOG_MODULES:
        importlib.import_module(mod)


def get(name: str) -> Experiment:
    """Look up one experiment by name (after discovery)."""
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ReproError(
            f"unknown experiment {name!r}; registered: {known}"
        ) from None


def names() -> list[str]:
    """Sorted names of every registered experiment."""
    discover()
    return sorted(_REGISTRY)


def all_experiments() -> list[Experiment]:
    """Every registered experiment, sorted by name."""
    discover()
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]
