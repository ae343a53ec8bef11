"""Artifact comparison: diff two runs and emit a markdown regression report.

This is the harness's feedback loop: run a benchmark before and after a
change, then ``repro bench report old.json new.json`` renders per-metric
deltas and flags regressions.  Direction matters — most metrics (times,
cuts, costs) are lower-is-better, but an artifact's ``higher_is_better``
list inverts specific metrics (e.g. Table 4's efficiency).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.artifacts import load_artifact

__all__ = ["MetricDelta", "Comparison", "compare_artifacts", "compare_files"]

#: Relative change below which a delta counts as noise rather than a signal.
DEFAULT_THRESHOLD = 0.05


def _params_key(params: Mapping[str, Any]) -> str:
    """Canonical identity of one configuration (order-insensitive)."""
    return json.dumps(params, sort_keys=True, default=str)


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one configuration, old vs new."""

    params: dict[str, Any]
    metric: str
    old: float
    new: float
    #: Signed relative change, positive = metric value increased.
    rel_change: float
    #: "regression", "improvement", or "ok" (within threshold).
    status: str

    @property
    def params_label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.params.items()) or "-"


@dataclass
class Comparison:
    """Outcome of comparing two artifacts."""

    old_label: str
    new_label: str
    experiment: str
    threshold: float
    deltas: list[MetricDelta] = field(default_factory=list, init=False)
    #: Configurations present in only one artifact (params-key strings).
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def num_regressions(self) -> int:
        return len(self.regressions)

    def to_markdown(self) -> str:
        """Render the full comparison as a markdown report."""
        lines = [
            f"# Benchmark comparison: `{self.experiment}`",
            "",
            f"- old: `{self.old_label}`",
            f"- new: `{self.new_label}`",
            f"- threshold: ±{self.threshold:.0%} relative change",
            f"- **{self.num_regressions} regression(s)**, "
            f"{len(self.improvements)} improvement(s), "
            f"{len(self.deltas)} metric comparison(s)",
            "",
            "| configuration | metric | old | new | change | status |",
            "|---|---|---:|---:|---:|---|",
        ]
        order = {"regression": 0, "improvement": 1, "ok": 2}
        for d in sorted(
            self.deltas, key=lambda d: (order[d.status], -abs(d.rel_change))
        ):
            flag = {"regression": "**regression**", "improvement": "improvement",
                    "ok": "ok"}[d.status]
            change = (
                f"{d.rel_change:+.1%}" if math.isfinite(d.rel_change) else "n/a"
            )
            lines.append(
                f"| {d.params_label} | {d.metric} | {d.old:.6g} | {d.new:.6g} "
                f"| {change} | {flag} |"
            )
        for label, missing in (("old", self.only_new), ("new", self.only_old)):
            if missing:
                lines.append("")
                lines.append(
                    f"Configurations missing from the {label} artifact: "
                    + "; ".join(f"`{m}`" for m in missing)
                )
        lines.append("")
        return "\n".join(lines)


def _classify(old: float, new: float, *, higher_better: bool, threshold: float):
    """(rel_change, status) for one metric pair."""
    if old == new:
        return 0.0, "ok"
    if old == 0:
        rel = math.inf if new > 0 else -math.inf
    else:
        rel = (new - old) / abs(old)
    worsened = (rel > 0) != higher_better
    if abs(rel) <= threshold:
        return rel, "ok"
    return rel, ("regression" if worsened else "improvement")


def compare_artifacts(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    old_label: str = "old",
    new_label: str = "new",
) -> Comparison:
    """Compare two artifacts run-by-run (matched on parameters).

    The artifacts need not come from the same experiment (the report labels
    whatever it was given), but only configurations whose parameters match
    exactly are compared.
    """
    higher = set(old.get("higher_is_better", [])) | set(
        new.get("higher_is_better", [])
    )
    old_runs = {_params_key(r["params"]): r for r in old["runs"]}
    new_runs = {_params_key(r["params"]): r for r in new["runs"]}
    experiment = old.get("experiment", "?")
    if new.get("experiment") != experiment:
        experiment = f"{experiment} vs {new.get('experiment', '?')}"
    comparison = Comparison(
        old_label=old_label,
        new_label=new_label,
        experiment=experiment,
        threshold=threshold,
        only_old=sorted(set(old_runs) - set(new_runs)),
        only_new=sorted(set(new_runs) - set(old_runs)),
    )
    for key in old_runs.keys() & new_runs.keys():
        o, n = old_runs[key], new_runs[key]
        for metric in sorted(set(o["metrics"]) & set(n["metrics"])):
            rel, status = _classify(
                float(o["metrics"][metric]),
                float(n["metrics"][metric]),
                higher_better=metric in higher,
                threshold=threshold,
            )
            comparison.deltas.append(
                MetricDelta(
                    params=dict(o["params"]),
                    metric=metric,
                    old=float(o["metrics"][metric]),
                    new=float(n["metrics"][metric]),
                    rel_change=rel,
                    status=status,
                )
            )
    comparison.deltas.sort(key=lambda d: (_params_key(d.params), d.metric))
    return comparison


def compare_files(
    old_path: str | Path,
    new_path: str | Path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Load two artifact files and compare them."""
    return compare_artifacts(
        load_artifact(old_path),
        load_artifact(new_path),
        threshold=threshold,
        old_label=str(old_path),
        new_label=str(new_path),
    )
