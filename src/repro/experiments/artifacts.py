"""Schema-versioned JSON artifacts for experiment runs.

Every harness invocation writes ``results/<name>.json`` in the shape below
(documented in docs/benchmarks.md).  Artifacts are plain dicts so they stay
trivially JSON-round-trippable; :func:`validate_artifact` is the single
source of truth for the schema, used both when writing and by tests.

Schema (``repro.experiments.run`` version 1)::

    {
      "schema": "repro.experiments.run",
      "schema_version": 1,
      "experiment": "<name>",
      "title": "...",
      "paper_anchor": "Table 4",
      "quick": false,
      "base_seed": 1995,
      "higher_is_better": ["efficiency"],
      "host": {"platform": "...", "python": "..."},
      "runs": [
        {"params": {...}, "seed": 1995, "wall_s": 0.12,
         "max_rss_kb": 81234, "metrics": {"makespan": 1.9}}
      ],
      "violations": []
    }

``violations`` is optional: present when the experiment declares an
expectation, one message per shape claim the runs violated.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "new_artifact",
    "validate_artifact",
    "save_artifact",
    "load_artifact",
]

SCHEMA = "repro.experiments.run"
SCHEMA_VERSION = 1


def host_info() -> dict[str, str]:
    """The host fields recorded in every artifact (informational only)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def new_artifact(
    *,
    experiment: str,
    title: str,
    paper_anchor: str,
    runs: Sequence[Mapping[str, Any]],
    quick: bool,
    base_seed: int,
    higher_is_better: Sequence[str] = (),
    violations: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Assemble (and validate) one artifact dict from finished run records."""
    artifact = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "title": title,
        "paper_anchor": paper_anchor,
        "quick": bool(quick),
        "base_seed": int(base_seed),
        "higher_is_better": list(higher_is_better),
        "host": host_info(),
        "runs": [dict(r) for r in runs],
    }
    if violations is not None:
        artifact["violations"] = list(violations)
    errors = validate_artifact(artifact)
    if errors:
        raise ReproError(f"internal error: invalid artifact: {errors}")
    return artifact


def validate_artifact(obj: Any) -> list[str]:
    """Check *obj* against the artifact schema; return a list of problems.

    An empty list means the artifact is valid.  Unknown extra keys are
    tolerated (forward compatibility); missing/ill-typed required keys are
    reported with their JSON path.
    """
    errors: list[str] = []
    if not isinstance(obj, dict):
        return [f"artifact must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version: expected {SCHEMA_VERSION}, "
            f"got {obj.get('schema_version')!r}"
        )
    for key, typ in (
        ("experiment", str),
        ("title", str),
        ("paper_anchor", str),
        ("quick", bool),
        ("base_seed", int),
        ("higher_is_better", list),
        ("host", dict),
        ("runs", list),
    ):
        if not isinstance(obj.get(key), typ):
            errors.append(f"{key}: expected {typ.__name__}, got {obj.get(key)!r}")
    violations = obj.get("violations", [])
    if not isinstance(violations, list) or not all(
        isinstance(v, str) for v in violations
    ):
        errors.append(f"violations: expected a list of strings, got {violations!r}")
    for i, run in enumerate(obj.get("runs") or []):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            errors.append(f"{where}: expected an object")
            continue
        if not isinstance(run.get("params"), dict):
            errors.append(f"{where}.params: expected an object")
        if not isinstance(run.get("seed"), int):
            errors.append(f"{where}.seed: expected an int")
        for key in ("wall_s", "max_rss_kb"):
            if not isinstance(run.get(key), (int, float)) or isinstance(
                run.get(key), bool
            ):
                errors.append(f"{where}.{key}: expected a number")
        metrics = run.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            errors.append(f"{where}.metrics: expected a non-empty object")
            continue
        for name, value in metrics.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}.metrics[{name!r}]: expected a number")
    return errors


def save_artifact(artifact: Mapping[str, Any], path: str | Path) -> Path:
    """Write *artifact* as pretty JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return path


def load_artifact(path: str | Path) -> dict[str, Any]:
    """Read and validate one artifact; raise :class:`ReproError` if invalid."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read artifact {path}: {exc}") from exc
    errors = validate_artifact(obj)
    if errors:
        detail = "; ".join(errors[:5])
        raise ReproError(f"invalid artifact {path}: {detail}")
    return obj
