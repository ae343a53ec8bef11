"""Unified experiment harness: registry-driven, artifact-producing benchmarks.

This package turns the paper's evaluation into a reproducible surface
(see docs/benchmarks.md):

* :mod:`repro.experiments.spec` — the :class:`Experiment` declaration:
  name, paper anchor, parameter grid, seed policy, and the optional
  ``expect`` that checks the paper's shape on the finished runs;
* :mod:`repro.experiments.registry` — the flat experiment namespace with
  import-time self-registration and :func:`discover`;
* :mod:`repro.experiments.runner` — grid execution with wall-time and
  peak-RSS capture, writing schema-versioned ``results/<name>.json``;
* :mod:`repro.experiments.artifacts` — the artifact schema
  (``repro.experiments.run``/v1), validation, load/save;
* :mod:`repro.experiments.sweep` — the scenario sweeps (cluster size ×
  load trace × ordering × graph family), registered as ``sweep_small`` /
  ``sweep_full``;
* :mod:`repro.experiments.report` — artifact diffing and the markdown
  regression report;
* :mod:`repro.experiments.catalog` — the registered experiments, one
  module per family: the paper's tables and figures, ablations, the
  footnoted extensions, and the scale tier.

CLI entry points: ``repro bench list | run | report``.
"""

from repro.experiments.artifacts import (
    SCHEMA,
    SCHEMA_VERSION,
    load_artifact,
    save_artifact,
    validate_artifact,
)
from repro.experiments.registry import all_experiments, discover, get, names, register
from repro.experiments.report import Comparison, compare_artifacts, compare_files
from repro.experiments.runner import DEFAULT_RESULTS_DIR, run_experiment
from repro.experiments.spec import Experiment, config_seed, expand_grid
from repro.experiments.sweep import SCENARIO_GRIDS

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "SCENARIO_GRIDS",
    "DEFAULT_RESULTS_DIR",
    "Comparison",
    "Experiment",
    "all_experiments",
    "compare_artifacts",
    "compare_files",
    "config_seed",
    "discover",
    "expand_grid",
    "get",
    "load_artifact",
    "names",
    "register",
    "run_experiment",
    "save_artifact",
    "validate_artifact",
]
