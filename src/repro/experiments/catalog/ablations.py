"""Ablations around the paper's design choices (Secs. 3.1, 3.5)."""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ReproError
from repro.experiments.registry import experiment
from repro.experiments.catalog.paper import adaptive_run
from repro.experiments.catalog.workloads import mesh_workload

__all__ = ["ORDERING_NAMES", "ordering_by_name"]

# --------------------------------------------------------------------------
# Ablation — choice of one-dimensional locality transformation

ORDERING_NAMES = ("rcb", "inertial", "spectral", "hilbert", "morton", "random")


def ordering_by_name(name: str, seed: int = 0):
    """Instantiate one of Sec. 3.1's ordering heuristics by short name."""
    from repro.partition.inertial import InertialOrdering
    from repro.partition.ordering import IdentityOrdering, RandomOrdering
    from repro.partition.rcb import RCBOrdering
    from repro.partition.sfc import HilbertOrdering, MortonOrdering
    from repro.partition.spectral import SpectralOrdering

    factories = {
        "rcb": RCBOrdering,
        "inertial": InertialOrdering,
        "spectral": lambda: SpectralOrdering(leaf_size=128),
        "hilbert": HilbertOrdering,
        "morton": MortonOrdering,
        "identity": IdentityOrdering,
        "random": lambda: RandomOrdering(seed=seed),
    }
    try:
        return factories[name]()
    except KeyError:
        known = ", ".join(sorted(factories))
        raise ReproError(f"unknown ordering {name!r}; known: {known}") from None


@experiment(
    "ablation_orderings",
    title="Ablation: 1-D locality transformations",
    paper_anchor="Sec. 3.1",
    grid={
        "ordering": ORDERING_NAMES,
        "n_vertices": (6_000,),
        "iterations": (10,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "ordering": ("rcb", "random"),
        "n_vertices": (800,),
        "iterations": (5,),
        "workload_seed": (1995,),
    },
    description="Cut quality of each ordering and its end-to-end makespan.",
)
def _exp_ablation_orderings(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.graph.metrics import cut_curve, mean_edge_span
    from repro.net.cluster import sun4_cluster
    from repro.runtime.program import ProgramConfig, run_program

    graph, y0 = mesh_workload(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    method = ordering_by_name(str(params["ordering"]), seed)
    perm = method(graph)

    # Hand the already-computed permutation to run_program so expensive
    # orderings (spectral, inertial) are not recomputed inside the run.
    class _Precomputed:
        name = method.name

        def __call__(self, g):
            return perm

    report = run_program(
        graph,
        sun4_cluster(4),
        ProgramConfig(
            iterations=int(params["iterations"]), ordering=_Precomputed()
        ),
        y0=y0,
    )
    return {
        "mean_span": mean_edge_span(graph, perm),
        "cut16": float(cut_curve(graph, perm, (16,))[16]),
        "makespan": report.makespan,
    }


# --------------------------------------------------------------------------
# Ablation — load-balance check frequency (interval 0 = no load balancing)


@experiment(
    "ablation_check_frequency",
    title="Ablation: load-balance check frequency",
    paper_anchor="Sec. 3.5",
    grid={
        "interval": (0, 5, 10, 20, 40),
        "n_vertices": (6_000,),
        "iterations": (60,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "interval": (0, 5),
        "n_vertices": (800,),
        "iterations": (20,),
        "workload_seed": (1995,),
    },
    description="Sweeps the check interval the paper fixes at 10.",
)
def _exp_ablation_check_frequency(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    interval = int(params["interval"])
    graph, y0 = mesh_workload(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    report = adaptive_run(
        graph,
        y0,
        int(params["iterations"]),
        4,
        lb=interval > 0,
        check_interval=interval if interval > 0 else 10,
    )
    stats = report.rank_stats[0]
    return {
        "makespan": report.makespan,
        "num_checks": float(stats.num_checks),
        "num_remaps": float(stats.num_remaps),
        "check_time": report.lb_check_time,
        "remap_time": report.remap_time,
    }
