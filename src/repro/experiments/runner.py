"""The experiment runner: grid expansion, timing, RSS capture, artifacts.

For each configuration in an experiment's grid the runner derives the
deterministic per-configuration seed (:func:`~repro.experiments.spec.config_seed`),
calls the experiment's metrics function (once per pass, configuration after
configuration; see ``Experiment.passes``), and records wall time plus the
process's peak RSS.  After the grid, the experiment's ``expect`` (if any)
checks the run records against the shape the paper claims; what it reports
is stored as the artifact's ``violations``.  The finished artifact (schema
``repro.experiments.run``/v1) is written to ``<results_dir>/<name>.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ReproError
from repro.experiments import artifacts, registry
from repro.experiments.spec import Experiment, config_seed

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "max_rss_kb",
    "run_experiment",
    "validate_overrides",
]

#: Artifacts land here unless the caller (CLI ``--results-dir``) overrides it.
DEFAULT_RESULTS_DIR = Path("results")


def max_rss_kb() -> float:
    """Peak resident-set size of this process in KiB (0.0 if unavailable).

    Uses :mod:`resource`, which is POSIX-only; on other platforms the metric
    degrades to 0 rather than failing the run.  Note ru_maxrss is a high-water
    mark, so per-run deltas understate runs that fit inside an earlier peak.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return usage / 1024.0
    return float(usage)


def _check_metrics(name: str, params: Mapping[str, Any], metrics: Any) -> dict:
    if not isinstance(metrics, Mapping) or not metrics:
        raise ReproError(
            f"experiment {name!r} returned {metrics!r} for {dict(params)}; "
            "metrics functions must return a non-empty mapping"
        )
    out: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReproError(
                f"experiment {name!r} metric {key!r} is {value!r}; "
                "metrics must be plain numbers"
            )
        out[str(key)] = float(value)
    return out


def validate_overrides(
    exp: Experiment | str,
    overrides: Mapping[str, Any],
    *,
    quick: bool = False,
) -> None:
    """Reject override keys that are not axes of the selected grid, and
    values of a type the axis never takes.

    Only grid axes may be overridden: a stray key would be recorded in
    the artifact (and perturb the seed) without the experiment ever
    reading it, making the artifact lie about what ran.  A value replaces
    one configuration's value, so it must be of a type the axis holds:
    ``p=[99]`` is a list, not a count, and would fail only inside the
    experiment, after the run began.  The CLI calls
    this for every glob match *before* running anything, so one bad key
    cannot kill a multi-experiment run mid-loop; :func:`run_experiment`
    applies the same rule for direct callers.
    """
    if isinstance(exp, str):
        exp = registry.get(exp)
    configs = exp.configs(quick=quick)
    axes = set(configs[0])
    unknown = sorted(set(overrides) - axes)
    if unknown:
        raise ReproError(
            f"unknown parameter(s) for experiment {exp.name!r}: "
            f"{', '.join(unknown)}; grid axes: {', '.join(sorted(axes))}"
        )
    for key, value in overrides.items():
        kinds = {type(cfg[key]) for cfg in configs}
        if type(value) not in kinds:
            names = " or ".join(sorted(k.__name__ for k in kinds))
            raise ReproError(
                f"parameter {key!r} of experiment {exp.name!r} takes "
                f"{names} values, got {value!r}"
            )


def run_experiment(
    exp: Experiment | str,
    *,
    quick: bool = False,
    overrides: Mapping[str, Any] | None = None,
    results_dir: str | Path | None = DEFAULT_RESULTS_DIR,
) -> tuple[dict[str, Any], Path | None]:
    """Run every configuration of *exp* and return ``(artifact, path)``.

    ``quick=True`` selects the experiment's reduced grid (smoke scale).
    *overrides* force parameter values onto every configuration (the CLI's
    ``--set key=value``); axes whose value is overridden collapse, so the
    expanded grid is deduplicated.  ``results_dir=None`` skips writing.
    """
    if isinstance(exp, str):
        exp = registry.get(exp)
    configs = exp.configs(quick=quick)
    if overrides:
        validate_overrides(exp, overrides, quick=quick)
        merged: list[dict[str, Any]] = []
        for cfg in configs:
            cfg = {**cfg, **overrides}
            if cfg not in merged:
                merged.append(cfg)
        configs = merged
    runs: list[dict[str, Any]] = [
        {"params": dict(params), "seed": config_seed(exp.seed, params), "wall_s": 0.0}
        for params in configs
    ]
    for _ in range(exp.passes):
        for run in runs:
            t0 = time.perf_counter()
            metrics = exp.fn(run["params"], seed=run["seed"])
            run["wall_s"] += time.perf_counter() - t0
            run["max_rss_kb"] = max_rss_kb()
            metrics = _check_metrics(exp.name, run["params"], metrics)
            if exp.passes > 1:
                run.setdefault("passes", []).append(metrics)
            if "metrics" in run:
                metrics = {
                    key: (max if key in exp.higher_is_better else min)(
                        run["metrics"][key], value
                    )
                    for key, value in metrics.items()
                }
            run["metrics"] = metrics
    artifact = artifacts.new_artifact(
        experiment=exp.name,
        title=exp.title,
        paper_anchor=exp.paper_anchor,
        runs=runs,
        quick=quick,
        base_seed=exp.seed,
        higher_is_better=exp.higher_is_better,
        violations=list(exp.expect(runs)) if exp.expect is not None else None,
    )
    path: Path | None = None
    if results_dir is not None:
        # Quick artifacts get their own file so a smoke run never clobbers
        # a full-grid baseline sitting at results/<name>.json.
        stem = f"{exp.name}-quick" if quick else exp.name
        path = artifacts.save_artifact(artifact, Path(results_dir) / f"{stem}.json")
    return artifact, path
