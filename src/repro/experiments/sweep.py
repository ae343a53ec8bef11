"""Scenario-sweep engine: cluster size × load trace × ordering × graph family.

One command (``repro bench run sweep_small``) exercises the full cross
product of environments the paper's Secs. 1 and 4 describe — dedicated,
nonuniform, and adaptive resources — over several graph families and 1-D
orderings, producing a single schema-versioned artifact with per-scenario
makespan/efficiency/LB metrics.  Each named grid is an ordinary registered
experiment (``sweep_small``, ``sweep_full``): it appears in ``repro bench
list``, runs through ``repro bench run`` and compares through ``repro
bench report``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ReproError
from repro.experiments.registry import register
from repro.experiments.spec import Experiment

__all__ = ["SCENARIO_GRIDS", "run_scenario"]

#: Named scenario grids.  "small" is the smoke scale (seconds); "full"
#: exercises every dimension and is meant for dedicated runs.
SCENARIO_GRIDS: dict[str, dict[str, tuple]] = {
    "small": {
        "cluster": (2, 4),
        "load": ("none", "constant"),
        "ordering": ("rcb", "random"),
        "graph": ("paper", "grid"),
        "n_vertices": (600,),
        "iterations": (8,),
    },
    "full": {
        "cluster": (2, 3, 4, 5),
        "load": ("none", "constant", "ramp", "walk"),
        "ordering": ("rcb", "hilbert", "random"),
        "graph": ("paper", "grid", "perturbed"),
        "n_vertices": (4000,),
        "iterations": (40,),
    },
}


def _make_graph(family: str, n_vertices: int, seed: int):
    from repro.graph.generators import grid_graph, paper_mesh, perturbed_grid_mesh

    if family == "paper":
        return paper_mesh(n_vertices, seed=seed)
    side = max(2, int(round(n_vertices ** 0.5)))
    if family == "grid":
        return grid_graph(side, side)
    if family == "perturbed":
        return perturbed_grid_mesh(side, side, seed=seed).graph
    raise ReproError(f"unknown graph family {family!r}")


def _make_cluster(load: str, p: int, seed: int):
    from repro.net.cluster import adaptive_cluster, sun4_cluster
    from repro.net.loadmodel import RampLoad, RandomWalkLoad

    if load == "none":
        return sun4_cluster(p)
    if load == "constant":
        return adaptive_cluster(p, competing_load=2.0)
    if load == "ramp":
        # Competing work climbs from 0 to 2 processes over the first virtual
        # second on workstation 0 (the transition Sec. 1 calls "adaptive").
        return sun4_cluster(p).with_load(0, RampLoad(0.0, 1.0, 0.0, 2.0))
    if load == "walk":
        return sun4_cluster(p).with_load(
            0, RandomWalkLoad(horizon=30.0, dt=0.05, seed=seed)
        )
    raise ReproError(f"unknown load trace {load!r}")


def run_scenario(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    """Run one sweep scenario; metrics cover time, efficiency, and LB activity."""
    from repro.experiments.catalog import ordering_by_name
    from repro.runtime.adaptive import LoadBalanceConfig
    from repro.runtime.efficiency import cluster_efficiency
    from repro.runtime.program import ProgramConfig, run_program

    p = int(params["cluster"])
    graph = _make_graph(str(params["graph"]), int(params["n_vertices"]), seed)
    cluster = _make_cluster(str(params["load"]), p, seed)
    adaptive = params["load"] != "none"
    iterations = int(params["iterations"])
    config = ProgramConfig(
        iterations=iterations,
        ordering=ordering_by_name(str(params["ordering"]), seed),
        initial_capabilities="equal" if adaptive else "speeds",
        load_balance=(
            LoadBalanceConfig(check_interval=max(2, iterations // 4))
            if adaptive
            else None
        ),
    )
    y0 = np.random.default_rng(seed).uniform(0.0, 100.0, graph.num_vertices)
    report = run_program(graph, cluster, config, y0=y0)
    virtual = report.virtual_metrics()
    reported = ("makespan", "num_remaps", "remap_time", "lb_check_time")
    return {
        **{name: virtual[name] for name in reported},
        "efficiency": cluster_efficiency(
            cluster, report.makespan, report.total_work_seconds
        ),
    }


for _grid, _axes in SCENARIO_GRIDS.items():
    register(
        Experiment(
            name=f"sweep_{_grid}",
            title=f"Scenario sweep ({_grid} grid)",
            paper_anchor="Secs. 1, 4",
            fn=run_scenario,
            grid=_axes,
            seed=2026,
            higher_is_better=("efficiency",),
        )
    )
