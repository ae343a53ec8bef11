"""Runtime backend selection: ``reference`` loops vs ``vectorized`` numpy.

The paper's runtime was written in per-element C loops; this reproduction
keeps a faithful scalar transcription of those hot paths (the ``reference``
backend, in :mod:`repro.runtime.reference`) next to bulk-numpy rewrites
(the ``vectorized`` backend) of the same operations:

* translation-table lookup / dereference,
* inspector schedule construction (sort1/sort2/no-dedup/simple grouping),
* executor gather/scatter buffer pack/unpack,
* redistribution slab pack/unpack and vertex-identity runs
  (:func:`repro.runtime.adaptive.redistribute_fields`).

Both backends produce **bit-identical** translation tables, schedules, and
gather/scatter results, and charge identical *virtual* time — they differ
only in host wall time (the ``scale-*`` benchmark family records the gap).
The differential suite in ``tests/test_backend_equivalence.py`` locks the
equivalence in.

Selection, in decreasing precedence:

1. an explicit ``backend=`` argument on the public entry points
   (:func:`repro.runtime.inspector.run_inspector`,
   :func:`repro.runtime.executor.gather` / ``scatter``, the distributed
   translation table's lookups, :class:`repro.runtime.program.ProgramConfig`);
2. the process-wide default set via :func:`set_backend` /
   :func:`use_backend`;
3. the ``REPRO_BACKEND`` environment variable, read once at import;
4. the built-in default, ``vectorized``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "set_backend",
    "resolve_backend",
    "use_backend",
]

#: The recognized backend names.
BACKENDS = ("reference", "vectorized")

#: Used when neither an argument, :func:`set_backend`, nor ``REPRO_BACKEND``
#: says otherwise.
DEFAULT_BACKEND = "vectorized"


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; pick from {BACKENDS}"
        )
    return name


_current: str = _validate(
    os.environ.get("REPRO_BACKEND", "").strip() or DEFAULT_BACKEND
)


def set_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one."""
    global _current
    previous = _current
    _current = _validate(name)
    return previous


def resolve_backend(backend: str | None) -> str:
    """Turn an optional per-call override into a concrete backend name."""
    if backend is None:
        return _current
    return _validate(backend)


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch the process-wide default backend.

    ``with use_backend("reference"): ...`` — used by the differential tests
    to run whole programs under either backend.
    """
    previous = set_backend(name)
    try:
        yield _current
    finally:
        set_backend(previous)
