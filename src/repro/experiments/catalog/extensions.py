"""Extensions the paper names in footnotes and future work (Secs. 1, 3.5).

Each measures one direction the paper points at without evaluating:
adaptive *applications* (footnote 1), prediction from several past phases
(footnote 2), distributed load balancing (Sec. 3.5) and the HPF regular
distributions it positions itself against (Sec. 1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Mapping

import numpy as np

from repro.experiments.catalog.workloads import mesh_workload
from repro.experiments.registry import experiment
from repro.experiments.spec import below, group_runs

# --------------------------------------------------------------------------
# Adaptive applications (footnote 1): a refinement hotspot sweeps the mesh,
# shifting computational weight every ``adapt_interval`` iterations.  Keeping
# the initial partition versus weighted repartitioning at every adaptation
# (redistribute + inspector rebuild).


def _expect_ext_adaptive_application(runs):
    for shared, by in group_runs(runs, "cluster", "repartition"):
        adaptations = shared["iterations"] // shared["adapt_interval"] - 1
        for cluster in sorted({c for c, _ in by}):
            static, adaptive = by.get((cluster, False)), by.get((cluster, True))
            if adaptive is None:
                continue
            if adaptive["num_repartitions"] != adaptations:
                yield (
                    f"{adaptive['num_repartitions']:.0f} repartitions on {cluster}, "
                    f"expected one per adaptation ({adaptations})"
                )
            yield from below(
                f"repartition cost vs run time on {cluster}",
                adaptive["repartition_time"], adaptive["makespan"], 0.35,
            )
            if static is not None:
                yield from below(
                    f"time with vs without repartitioning on {cluster}",
                    adaptive["makespan"], static["makespan"],
                )


@experiment(
    "ext_adaptive_application",
    title="Extension: adaptive application (moving refinement hotspot)",
    paper_anchor="Sec. 1 (footnote 1)",
    grid={
        "cluster": ("uniform", "sun4"),
        "repartition": (False, True),
        "n_vertices": (6_000,),
        "iterations": (60,),
        "adapt_interval": (10,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "cluster": ("uniform", "sun4"),
        "repartition": (False, True),
        "n_vertices": (800,),
        "iterations": (20,),
        "adapt_interval": (5,),
        "workload_seed": (1995,),
    },
    expect=_expect_ext_adaptive_application,
)
def _exp_ext_adaptive_application(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.apps.adaptive_refinement import (
        MovingHotspot,
        run_adaptive_application,
    )
    from repro.net.cluster import sun4_cluster, uniform_cluster
    from repro.runtime.program import ProgramConfig

    graph, y0 = mesh_workload(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    iterations, interval = int(params["iterations"]), int(params["adapt_interval"])
    cluster = {"uniform": uniform_cluster, "sun4": sun4_cluster}[
        str(params["cluster"])
    ](4)
    report = run_adaptive_application(
        graph,
        cluster,
        ProgramConfig(iterations=iterations),
        adapt_interval=interval,
        hotspot=MovingHotspot(
            graph,
            amplitude=14.0,
            radius_fraction=0.12,
            n_phases=iterations // interval,
        ),
        repartition=bool(params["repartition"]),
        y0=y0,
    )
    return {
        "makespan": report.makespan,
        "num_repartitions": float(report.num_remaps),
        "repartition_time": report.remap_time,
    }


# --------------------------------------------------------------------------
# Centralized vs distributed load balancing (Sec. 3.5 future work): the
# per-check cost of both protocols as the cluster grows, on a
# multicast-capable Ethernet and on a unicast-only network.  Distributed has
# no controller serialization and O(p) multicasts, but falls back to O(p^2)
# unicasts without multicast.


def _expect_ext_distributed_lb(runs):
    for _, by in group_runs(runs, "p", "style", "multicast"):
        cost = {key: m["check_seconds"] for key, m in by.items()}
        for p in sorted({p for p, _, _ in cost}):
            if {(p, "centralized", True), (p, "distributed", True)} <= cost.keys():
                yield from below(
                    f"distributed vs centralized check with multicast at p={p}",
                    cost[p, "distributed", True], cost[p, "centralized", True], 2.0,
                )
        growth = {
            style: cost[16, style, False] / cost[4, style, False]
            for style in ("centralized", "distributed")
            if {(4, style, False), (16, style, False)} <= cost.keys()
        }
        if len(growth) == 2:  # O(p^2) unicasts without multicast
            yield from below(
                "centralized vs distributed check growth p=4 -> 16 without multicast",
                growth["centralized"], growth["distributed"],
            )


@experiment(
    "ext_distributed_lb",
    title="Extension: load-balance check cost, centralized vs distributed",
    paper_anchor="Sec. 3.5 (future work)",
    grid={
        "p": (4, 8, 16),
        "style": ("centralized", "distributed"),
        "multicast": (True, False),
        "checks": (5,),
    },
    quick_grid={
        "p": (4, 8),
        "style": ("centralized", "distributed"),
        "multicast": (True, False),
        "checks": (2,),
    },
    expect=_expect_ext_distributed_lb,
)
def _exp_ext_distributed_lb(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.net.cluster import uniform_cluster
    from repro.net.network import PointToPointNetwork, SharedEthernet
    from repro.net.spmd import run_spmd
    from repro.partition.intervals import partition_list
    from repro.runtime.adaptive import check

    p, checks = int(params["p"]), int(params["checks"])
    cluster = uniform_cluster(
        p,
        network_factory=SharedEthernet if params["multicast"] else PointToPointNetwork,
    )
    part = partition_list(50_000, np.ones(p))
    style = str(params["style"])
    times = 1e-4 * (1.0 + 0.01 * np.arange(p))  # nearly balanced: no remap

    def fn(ctx):
        for _ in range(checks):
            t = times[ctx.rank]
            check(ctx, style, part, (t, np.inf, t), 100)
            ctx.barrier()

    return {"check_seconds": run_spmd(cluster, fn).makespan / checks}


# --------------------------------------------------------------------------
# HPF regular redistribution vs interval remaps (Sec. 1): on the same
# simulated Ethernet, redistributing between HPF layouts (BLOCK <-> CYCLIC(b))
# versus remapping between two capability-proportional interval partitions
# with and without MCR.  Interval remaps move only boundary slabs; BLOCK ->
# CYCLIC moves nearly everything with O(p^2) messages.

_HPF_P = 4
_HPF_OLD_CAPS = (0.25, 0.25, 0.25, 0.25)
_HPF_NEW_CAPS = (0.10, 0.30, 0.35, 0.25)


def _expect_ext_hpf_redistribution(runs):
    for shared, by in group_runs(runs, "redistribution"):
        hpf, mcr, plain = (
            by.get(k) for k in ("block->cyclic", "interval-mcr", "interval")
        )
        if hpf:
            yield from below(
                "70% of the array vs elements BLOCK -> CYCLIC moves",
                0.7 * shared["n"], hpf["moved_elements"],
            )
        if hpf and mcr:
            yield from below(
                "interval remap vs BLOCK -> CYCLIC time",
                mcr["makespan"], hpf["makespan"],
            )
        if mcr and plain:
            yield from below(
                "interval remap time with vs without MCR",
                mcr["makespan"], plain["makespan"], 1.02,
            )


@experiment(
    "ext_hpf_redistribution",
    title="Extension: HPF regular redistribution vs interval remap",
    paper_anchor="Sec. 1",
    grid={
        "redistribution": (
            "block->cyclic",
            "block->cyclic64",
            "cyclic->cyclic64",
            "interval",
            "interval-mcr",
        ),
        "n": (65_536,),
    },
    quick_grid={
        "redistribution": ("block->cyclic", "interval", "interval-mcr"),
        "n": (4_096,),
    },
    expect=_expect_ext_hpf_redistribution,
)
def _exp_ext_hpf_redistribution(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.net.cluster import sun4_cluster
    from repro.net.spmd import run_spmd
    from repro.partition.arrangement import (
        message_count,
        minimize_cost_redistribution,
        overlap_elements,
    )
    from repro.partition.hpf import (
        BlockCyclicDistribution,
        BlockDistribution,
        CyclicDistribution,
        hpf_transfer_summary,
        redistribute_hpf,
    )
    from repro.partition.intervals import partition_list
    from repro.runtime.adaptive import redistribute

    n, p, which = int(params["n"]), _HPF_P, str(params["redistribution"])
    data = np.zeros(n)
    if which.startswith("interval"):
        old = partition_list(n, _HPF_OLD_CAPS)
        arrangement = (
            minimize_cost_redistribution(np.arange(p), _HPF_OLD_CAPS, _HPF_NEW_CAPS, n)
            if which == "interval-mcr"
            else np.arange(p)
        )
        new = partition_list(n, _HPF_NEW_CAPS, arrangement)
        moved, messages = n - overlap_elements(old, new), message_count(old, new)

        def fn(ctx):
            lo, hi = old.interval(ctx.rank)
            redistribute(ctx, old, new, data[lo:hi].copy())
            ctx.barrier()

    else:
        layouts = {
            "block": BlockDistribution(n, p),
            "cyclic": CyclicDistribution(n, p),
            "cyclic64": BlockCyclicDistribution(n, p, 64),
        }
        src, dst = (layouts[name] for name in which.split("->"))
        summary = hpf_transfer_summary(src, dst)
        moved, messages = summary["moved_elements"], summary["messages"]

        def fn(ctx):
            redistribute_hpf(ctx, src, dst, data[src.global_indices(ctx.rank)].copy())
            ctx.barrier()

    return {
        "makespan": run_spmd(sun4_cluster(p), fn).makespan,
        "moved_elements": float(moved),
        "messages": float(messages),
    }


# --------------------------------------------------------------------------
# Capability prediction from several phases (footnote 2): a competing load
# *ramps up* on one machine.  The last-phase rule always lags one check
# behind; a trend predictor sizes the slow machine's block for the load it
# will have.


@lru_cache(maxsize=4)
def _unloaded_makespan(n_vertices: int, workload_seed: int, iterations: int) -> float:
    from repro.net.cluster import sun4_cluster
    from repro.runtime.program import ProgramConfig, run_program

    graph, y0 = mesh_workload(n_vertices, workload_seed)
    return run_program(
        graph, sun4_cluster(4), ProgramConfig(iterations=iterations), y0=y0
    ).makespan


def _expect_ext_prediction(runs):
    for _, by in group_runs(runs, "predictor"):
        time = {name: m["makespan"] for name, m in by.items()}
        for name in ("paper", "trend"):
            if name in time and "off" in time:
                yield from below(
                    f"time with {name} predictor vs no LB", time[name], time["off"]
                )
        if {"trend", "paper"} <= time.keys():
            yield from below(
                "time with trend vs the paper's last-phase rule",
                time["trend"], time["paper"], 1.10,
            )


@experiment(
    "ext_prediction",
    title="Extension: capability predictors under a ramping load",
    paper_anchor="Sec. 3.5 (footnote 2)",
    grid={
        "predictor": ("off", "paper", "trend"),
        # The quick tier runs this grid too: on a smaller mesh a remap costs
        # about what it saves and no predictor separates from "off".
        "n_vertices": (6_000,),
        "iterations": (60,),
        "check_interval": (10,),
        "workload_seed": (1995,),
    },
    expect=_expect_ext_prediction,
)
def _exp_ext_prediction(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    from repro.net.cluster import sun4_cluster
    from repro.net.loadmodel import RampLoad
    from repro.runtime.adaptive import LoadBalanceConfig
    from repro.runtime.program import ProgramConfig, run_program

    n, workload_seed = int(params["n_vertices"]), int(params["workload_seed"])
    iterations, predictor = int(params["iterations"]), str(params["predictor"])
    graph, y0 = mesh_workload(n, workload_seed)
    # Load on workstation 0 ramps from 0 to 3 competing processes over the
    # first 60% of the (no-LB) run, which takes about twice the unloaded one.
    ramp_end = 0.6 * 2.0 * _unloaded_makespan(n, workload_seed, iterations)
    cluster = sun4_cluster(4).with_load(
        0, RampLoad(0.0, ramp_end, 0.0, 3.0, n_steps=24)
    )
    config = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        load_balance=(
            None
            if predictor == "off"
            else LoadBalanceConfig(
                check_interval=int(params["check_interval"]),
                predictor=None if predictor == "paper" else predictor,
            )
        ),
    )
    report = run_program(graph, cluster, config, y0=y0)
    return {"makespan": report.makespan, "num_remaps": float(report.num_remaps)}
