"""Ablations around the paper's design choices (Secs. 2, 3.1, 3.4-3.6)."""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.errors import ReproError
from repro.experiments.catalog.paper import adaptive_run
from repro.experiments.catalog.workloads import mesh_workload, rcb_ordered_mesh
from repro.experiments.registry import experiment
from repro.experiments.spec import below, group_runs

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


def _expect_ablation_orderings(runs):
    # Every real heuristic beats random on both cut metrics, and the cut
    # quality propagates to end-to-end time.
    margins = {"mean_span": 1 / 3, "cut16": 0.5, "makespan": 1.0}
    for _, by in group_runs(runs, "ordering"):
        if "random" not in by:
            continue
        for name in sorted(by.keys() - {"random"}):
            for metric, factor in margins.items():
                yield from below(
                    f"{name} vs random {metric}",
                    by[name][metric], by["random"][metric], factor,
                )


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
    expect=_expect_ablation_orderings,
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


def _expect_ablation_check_frequency(runs):
    for _, by in group_runs(runs, "interval"):
        time = {interval: m["makespan"] for interval, m in by.items()}
        for k, m in by.items():
            if k == 0:
                continue
            if 0 in by and m["num_remaps"] >= 1:
                yield from below(f"time at interval {k} vs no LB", time[k], time[0])
            yield from below(
                f"check cost vs run time at interval {k}", m["check_time"], time[k], 0.1
            )
        if {5, 40} <= time.keys():  # early detection is no worse than very late
            yield from below("time at interval 5 vs 40", time[5], time[40], 1.05)


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
    expect=_expect_ablation_check_frequency,
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
    return {
        "makespan": report.makespan,
        "num_checks": float(report.num_checks),
        "num_remaps": float(report.num_remaps),
        "check_time": report.lb_check_time,
        "remap_time": report.remap_time,
    }


# --------------------------------------------------------------------------
# Ablation — duplicate-access removal (Sec. 2's first listed optimization):
# the deduplicated schedule (sort2) against one that ships a copy per
# *reference*.  A mesh boundary vertex is referenced by several of the
# neighbor rank's vertices, so dedup cuts gather volume by that multiplicity.


def _expect_ablation_dedup(runs):
    # Volume falls by the mean boundary multiplicity (> 1.15 on this sparse
    # mesh), and shipping more data is never faster.
    margins = {"ghost_total": 1 / 1.15, "gather_seconds": 1 / 0.99}
    for _, by in group_runs(runs, "p", "dedup"):
        for p in sorted({p for p, _ in by}):
            if {(p, True), (p, False)} <= by.keys():
                for metric, factor in margins.items():
                    yield from below(
                        f"deduplicated vs naive {metric} at p={p}",
                        by[p, True][metric], by[p, False][metric], factor,
                    )


@experiment(
    "ablation_dedup",
    title="Ablation: duplicate-access removal in the gather schedule",
    paper_anchor="Sec. 2",
    grid={
        "p": (2, 3, 5),
        "dedup": (True, False),
        "n_vertices": (6_000,),
        "gathers": (10,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "p": (2, 3),
        "dedup": (True, False),
        "n_vertices": (800,),
        "gathers": (3,),
        "workload_seed": (1995,),
    },
    expect=_expect_ablation_dedup,
)
def _exp_ablation_dedup(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    from repro.net.cluster import sun4_cluster
    from repro.net.spmd import run_spmd
    from repro.partition.intervals import partition_list
    from repro.runtime.executor import gather
    from repro.runtime.schedule_builders import (
        build_schedule_no_dedup,
        build_schedule_sort2,
    )

    graph = rcb_ordered_mesh(int(params["n_vertices"]), int(params["workload_seed"]))
    cluster = sun4_cluster(int(params["p"]))
    part = partition_list(graph.num_vertices, cluster.speeds)
    builder = build_schedule_sort2 if params["dedup"] else build_schedule_no_dedup
    gathers = int(params["gathers"])

    def fn(ctx):
        sched = builder(graph, part, ctx.rank)
        lo, hi = part.interval(ctx.rank)
        local = np.zeros(hi - lo)
        t0 = ctx.clock
        for _ in range(gathers):
            gather(ctx, sched, local)
            ctx.barrier()
        return (ctx.clock - t0) / gathers, sched.ghost_size

    values = run_spmd(cluster, fn).values
    return {
        "gather_seconds": max(t for t, _ in values),
        "ghost_total": float(sum(g for _, g in values)),
    }


# --------------------------------------------------------------------------
# Ablation — MCR greedy versus the exhaustive-optimal arrangement.  The
# paper claims the greedy "produces good suboptimal results" (Sec. 3.4)
# without numbers; this quantifies the gap where brute force is feasible.


def _expect_ablation_mcr_optimality(runs):
    for run in runs:
        p, m = run["params"]["p"], run["metrics"]
        mean, worst = m["mean_overlap_ratio"], m["worst_overlap_ratio"]
        if not mean > 0.9:
            yield f"greedy keeps {mean:.3f} of the optimal overlap on average at p={p}"
        if not worst > 0.6:
            yield f"greedy's worst trial keeps {worst:.3f} of the optimum at p={p}"
        if not m["exact_optima"] >= run["params"]["trials"] // 4:
            yield f"greedy is optimal in only {m['exact_optima']:.0f} trials at p={p}"


@experiment(
    "ablation_mcr_optimality",
    title="Ablation: MCR greedy vs the brute-force optimal arrangement",
    paper_anchor="Sec. 3.4",
    grid={"p": (3, 4, 5, 6, 7), "elements": (2_000,), "trials": (20,)},
    quick_grid={"p": (3, 4, 5), "elements": (2_000,), "trials": (8,)},
    higher_is_better=("mean_overlap_ratio", "worst_overlap_ratio", "exact_optima"),
    expect=_expect_ablation_mcr_optimality,
)
def _exp_ablation_mcr_optimality(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.apps.workloads import random_capabilities
    from repro.partition.arrangement import (
        RedistributionCostModel,
        brute_force_arrangement,
        minimize_cost_redistribution,
        overlap_elements,
        redistribution_gain,
    )
    from repro.partition.intervals import partition_list

    p, n = int(params["p"]), int(params["elements"])
    rng = np.random.default_rng(seed)
    cost_model = RedistributionCostModel(message_weight=2.0)
    ident = np.arange(p)
    ratios, exact = [], 0
    for _ in range(int(params["trials"])):
        old_caps = random_capabilities(p, rng)
        new_caps = random_capabilities(p, rng)
        old = partition_list(n, old_caps)
        greedy = partition_list(
            n,
            new_caps,
            minimize_cost_redistribution(
                ident, old_caps, new_caps, n, cost_model=cost_model
            ),
        )
        best_arr, best_gain = brute_force_arrangement(
            ident, old_caps, new_caps, n, cost_model=cost_model
        )
        best = partition_list(n, new_caps, best_arr)
        ratios.append(
            overlap_elements(old, greedy) / max(overlap_elements(old, best), 1)
        )
        exact += redistribution_gain(old, greedy, cost_model) >= best_gain - 1e-9
    return {
        "mean_overlap_ratio": float(np.mean(ratios)),
        "worst_overlap_ratio": float(np.min(ratios)),
        "exact_optima": float(exact),
    }


# --------------------------------------------------------------------------
# Ablation — hardware multicast (Sec. 3.6): broadcasts on a multicast-capable
# shared Ethernet versus a unicast-only point-to-point network with the same
# latency and bandwidth.


def _expect_ablation_multicast(runs):
    for _, by in group_runs(runs, "p", "multicast"):
        t = {key: m["bcast_seconds"] for key, m in by.items()}
        both = sorted(p for p, mc in t if mc and (p, False) in t)
        for p in both:
            yield from below(
                f"multicast vs unicast broadcast at p={p}", t[p, True], t[p, False]
            )
        if len(both) > 1:  # sequential unicasts are O(p)
            lo, hi = both[0], both[-1]
            yield from below(
                f"multicast speedup at p={lo} vs p={hi}",
                t[lo, False] / t[lo, True], t[hi, False] / t[hi, True],
            )


@experiment(
    "ablation_multicast",
    title="Ablation: broadcast via hardware multicast vs sequential unicasts",
    paper_anchor="Sec. 3.6",
    grid={
        "p": (4, 8, 16),
        "multicast": (True, False),
        "payload_bytes": (8_192,),
        "broadcasts": (10,),
    },
    quick_grid={
        "p": (4, 8),
        "multicast": (True, False),
        "payload_bytes": (8_192,),
        "broadcasts": (3,),
    },
    expect=_expect_ablation_multicast,
)
def _exp_ablation_multicast(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.net.cluster import uniform_cluster
    from repro.net.network import PointToPointNetwork, SharedEthernet
    from repro.net.spmd import run_spmd

    cluster = uniform_cluster(
        int(params["p"]),
        network_factory=SharedEthernet if params["multicast"] else PointToPointNetwork,
    )
    payload = np.zeros(int(params["payload_bytes"]) // 8)
    broadcasts = int(params["broadcasts"])

    def fn(ctx):
        for _ in range(broadcasts):
            ctx.bcast(payload if ctx.rank == 0 else None)
            ctx.barrier()

    return {"bcast_seconds": run_spmd(cluster, fn).makespan}
