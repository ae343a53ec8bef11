"""One seeded Fig. 8 program as plain, JSON-serializable data.

A fuzz :class:`~repro.fuzz.Scenario` and a service
:class:`~repro.serve.JobSpec` both describe a run of the paper's kernel
on a seeded :func:`~repro.graph.paper_mesh`: the mesh size and seed, the
iteration count, the schedule strategy and the load-balance style.
:class:`ProgramSpec` declares those fields once, with their checks, the
builders of the runnable pieces, and the schema-versioned loading from
JSON; each subclass adds its own fields and its own ``to_dict``.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.adaptive import STRATEGY_NAMES
from repro.runtime.inspector import STRATEGIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.runtime.program import ProgramConfig

__all__ = ["ProgramSpec", "require_int"]


def require_int(value: Any, what: str) -> int:
    """*value* as an ``int``; a ``bool``, ``float``, string or anything
    else that is not an integer is a :class:`ConfigurationError` naming
    *what*."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, kw_only=True)
class ProgramSpec:
    """The fields, checks and builders a scenario and a job share."""

    #: Smallest mesh the subclass accepts.
    MIN_VERTICES: ClassVar[int]
    #: What messages call the JSON object ("scenario", "job spec").
    KIND: ClassVar[str]
    #: The ``schema_version`` the subclass reads and writes.
    SCHEMA_VERSION: ClassVar[int]

    vertices: int
    iterations: int
    seed: int
    strategy: str = "sort2"
    load_balance: str = "centralized"
    check_interval: int = 4

    def __post_init__(self) -> None:
        self._require_ints("vertices", "iterations", "seed", "check_interval")
        label = self.label
        if self.vertices < self.MIN_VERTICES:
            raise ConfigurationError(
                f"{label} needs >= {self.MIN_VERTICES} vertices for a "
                f"meaningful mesh, got {self.vertices}"
            )
        if self.iterations < 1:
            raise ConfigurationError(
                f"{label} needs >= 1 iteration, got {self.iterations}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"{label}: seed must be >= 0, got {self.seed}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"{label}: unknown schedule strategy {self.strategy!r}; "
                f"known: {', '.join(STRATEGIES)}"
            )
        if self.load_balance not in STRATEGY_NAMES:
            raise ConfigurationError(
                f"{label}: unknown load-balance style {self.load_balance!r}; "
                f"known: {', '.join(STRATEGY_NAMES)}"
            )
        if self.check_interval < 1:
            raise ConfigurationError(
                f"{label}: check_interval must be >= 1, got "
                f"{self.check_interval}"
            )

    def _require_ints(self, *names: str) -> None:
        """Each named field must be an integer; it is stored as an ``int``."""
        for name in names:
            value = require_int(getattr(self, name), f"{self.label}: {name}")
            object.__setattr__(self, name, value)

    def _require_strs(self, *names: str, optional: bool = False) -> None:
        """Each named field must be a string (or ``None`` if *optional*)."""
        for name in names:
            value = getattr(self, name)
            if not (isinstance(value, str) or (optional and value is None)):
                raise ConfigurationError(
                    f"{self.label}: {name} must be a string"
                    f"{' or null' if optional else ''}, got {value!r}"
                )

    @property
    def label(self) -> str:
        """How an error message names this instance."""
        return self.KIND

    # ------------------------------------------------------------------ #
    # building the runnable pieces
    # ------------------------------------------------------------------ #

    def build_graph(self) -> "CSRGraph":
        from repro.graph import paper_mesh

        return paper_mesh(self.vertices, seed=self.seed)

    def build_y0(self, graph: "CSRGraph") -> np.ndarray:
        return np.random.default_rng(self.seed).uniform(
            0, 100, graph.num_vertices
        )

    def build_config(self, **fields: Any) -> "ProgramConfig":
        """The program's config; *fields* adds ``ProgramConfig`` fields."""
        from repro.runtime import ProgramConfig, resolve_load_balance

        return ProgramConfig(
            iterations=self.iterations,
            strategy=self.strategy,
            # The paper's adaptive setup: decompose as if equal, let
            # Phase D react to the measured capability ratios.
            initial_capabilities="equal",
            load_balance=resolve_load_balance(
                self.load_balance, check_interval=self.check_interval
            ),
            **fields,
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a {cls.KIND} must be a JSON object, got "
                f"{type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("schema_version", cls.SCHEMA_VERSION)
        if version != cls.SCHEMA_VERSION:
            raise ConfigurationError(
                f"{cls.KIND} schema_version {version} is not supported "
                f"(this build reads version {cls.SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"{cls.KIND} has unknown field(s) {sorted(unknown)}; known "
                f"fields: {sorted(known | {'schema_version'})}"
            )
        try:
            return cls(**cls._fields_from_json(data))
        except TypeError as exc:
            raise ConfigurationError(f"malformed {cls.KIND}: {exc}") from None

    @classmethod
    def _fields_from_json(cls, data: dict[str, Any]) -> dict[str, Any]:
        """The constructor's keywords for *data*'s known fields."""
        return data

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{cls.KIND} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)
