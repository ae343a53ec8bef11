"""Experiment specifications: name, paper anchor, parameter grid, seed policy.

An :class:`Experiment` is the declarative half of the harness: *what* to run
(a metrics function), over *which* parameter grid, anchored to *which* table
or figure of the paper.  The imperative half — timing, RSS capture, artifact
writing — lives in :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ReproError

__all__ = [
    "Experiment",
    "ExpectFn",
    "MetricsFn",
    "expand_grid",
    "config_seed",
    "group_runs",
    "below",
    "agree_across",
    "config_label",
]

#: A metrics function receives one fully-resolved parameter configuration and
#: a deterministic seed, and returns a flat mapping of metric name -> number.
MetricsFn = Callable[..., Mapping[str, float]]

#: An expectation receives the finished run records (``params``, ``seed``,
#: ``wall_s``, ``max_rss_kb``, ``metrics`` each) and yields one message per
#: violated shape claim — nothing when the paper's shape holds.  It must
#: compare only the configurations it is given: ``--quick`` and ``--set``
#: runs hand it a subset of the grid.
ExpectFn = Callable[[Sequence[Mapping[str, Any]]], Iterable[str]]


def config_seed(base_seed: int, params: Mapping[str, Any]) -> int:
    """The harness seed policy: a deterministic per-configuration seed.

    The seed is ``base_seed`` plus a stable hash of the configuration's
    *content* (its sorted parameter items), so the same parameters always
    get the same seed — regardless of grid position, ``--quick``, or
    ``--set`` overrides.  That keeps reruns bit-identical and makes runs of
    the same configuration comparable across artifacts, while distinct
    configurations essentially never share a generator stream.
    """
    canon = json.dumps(
        {k: params[k] for k in sorted(params)}, sort_keys=True, default=str
    )
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return int(base_seed) + int.from_bytes(digest[:4], "big")


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Expand a parameter grid into the full list of configurations.

    ``{"p": (1, 2), "lb": (True, False)}`` yields four dicts, in
    deterministic (insertion-then-cartesian) order.  Scalar values are not
    allowed — wrap single values in a 1-tuple so the grid shape is explicit.
    """
    keys = list(grid)
    for k in keys:
        v = grid[k]
        if isinstance(v, (str, bytes)) or not isinstance(v, Sequence):
            raise ReproError(
                f"grid axis {k!r} must be a sequence of values, got {v!r}"
            )
        if len(v) == 0:
            raise ReproError(f"grid axis {k!r} is empty")
    return [dict(zip(keys, combo)) for combo in product(*(grid[k] for k in keys))]


def group_runs(
    runs: Sequence[Mapping[str, Any]], *axes: str, field: str = "metrics"
) -> list[tuple[dict[str, Any], dict[Any, Any]]]:
    """Split run records into the families an expectation compares within.

    Runs that agree on every parameter except *axes* form one group,
    returned as ``(shared, by_axis)``: the parameters they share, and a
    mapping from each run's value on *axes* (a tuple when there are
    several) to its *field*: its metrics, or its ``passes``.  A partner
    that was not run is simply absent.
    """
    groups: dict[str, tuple[dict, dict]] = {}
    for run in runs:
        params = run["params"]
        shared = {k: v for k, v in params.items() if k not in axes}
        key = params[axes[0]] if len(axes) == 1 else tuple(params[a] for a in axes)
        _, by_axis = groups.setdefault(repr(sorted(shared.items())), (shared, {}))
        by_axis[key] = run[field]
    return list(groups.values())


def below(what: str, a: float, b: float, factor: float = 1.0) -> Iterator[str]:
    """The shape claim ``a < factor * b``: yields one message if it fails."""
    if not a < factor * b:
        yield f"{what}: {a:.4g} is not below {factor:g} x {b:.4g}"


def config_label(params: Mapping[str, Any]) -> str:
    """``k=v, ...`` — how a violation message names a configuration."""
    return ", ".join(f"{k}={v}" for k, v in params.items())


def agree_across(
    runs: Sequence[Mapping[str, Any]], axis: str, ignore: Sequence[str] = ()
) -> Iterator[str]:
    """The differential claim: runs that differ only in *axis* agree, bit
    for bit, on every metric not in *ignore* (the host-timed ones).

    Yields one message per disagreement, naming the configuration, the
    metric and both values.  A partner that was not run is not compared.
    """
    for shared, by in group_runs(runs, axis):
        (first, expected), *others = by.items()
        for value, metrics in others:
            for name in sorted((expected.keys() | metrics.keys()) - set(ignore)):
                a, b = expected.get(name), metrics.get(name)
                if a != b:
                    yield (
                        f"{name} differs across {axis} at "
                        f"{config_label(shared)}: "
                        f"{a!r} ({axis}={first}) vs {b!r} ({axis}={value})"
                    )


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a paper-anchored, grid-parameterized run.

    ``fn(params, seed=...)`` must return a flat ``{metric: number}`` mapping
    for one configuration; the runner handles timing, memory, and artifacts,
    then hands every run record to ``expect`` (if any) to check the shape
    the paper claims.
    """

    name: str
    title: str
    paper_anchor: str  # e.g. "Table 4" or "Sec. 3.1"
    fn: MetricsFn
    grid: Mapping[str, Sequence[Any]]
    #: Reduced grid used by ``--quick`` / smoke tests.  Defaults to ``grid``.
    quick_grid: Mapping[str, Sequence[Any]] | None = None
    seed: int = 1995
    #: Metric names where larger is better (everything else: lower is better).
    higher_is_better: tuple[str, ...] = ()
    expect: ExpectFn | None = None
    #: Passes over the grid, configuration after configuration; each run
    #: records every metric's best value over its passes and, when there
    #: is more than one, each pass's metrics in order under ``passes``.
    #: For host-timed metrics: host speed drifts over seconds, and pass k
    #: of every configuration runs within the same few milliseconds, so an
    #: ``expect`` that pairs configurations pass by pass sees one drift.
    passes: int = 1

    def __post_init__(self) -> None:
        # Names are slugs: alphanumerics plus "_" and "-" (experiment
        # families use a hyphenated prefix, e.g. "scale-epoch").
        if not self.name or not self.name.replace("_", "").replace("-", "").isalnum():
            raise ReproError(f"invalid experiment name {self.name!r}")
        if self.passes < 1:
            raise ReproError(f"passes must be at least 1, got {self.passes}")
        expand_grid(self.grid)  # validate axes early
        if self.quick_grid is not None:
            expand_grid(self.quick_grid)

    def configs(self, *, quick: bool = False) -> list[dict[str, Any]]:
        """The expanded configuration list (quick grid if requested)."""
        grid = self.quick_grid if (quick and self.quick_grid is not None) else self.grid
        return expand_grid(grid)

    def num_configs(self, *, quick: bool = False) -> int:
        return len(self.configs(quick=quick))
