"""The paper's own evidence: Tables 1-5 and Figs. 2 and 5.

Grids follow the paper's sweeps; every experiment also carries a reduced
``quick_grid`` so ``--quick`` smoke runs finish in seconds.  Workload meshes
are keyed by an explicit ``workload_seed`` grid axis (not the per-config
seed) so every configuration of one experiment sees the same mesh.  The
quick grids of Tables 3-5 keep the full 6,000-vertex mesh and cut the
sweep instead: on a smaller mesh Ethernet latency outweighs the compute and
the paper's shapes (time falls with p, balancing pays) do not exist.  Each
``_expect_*`` states the shape the paper reports for its table or figure
over whatever configurations were run.
"""

from __future__ import annotations

import statistics
import time
from functools import lru_cache
from itertools import pairwise
from typing import Any, Mapping

import numpy as np

from repro.experiments.catalog.workloads import mesh_workload, rcb_ordered_mesh
from repro.experiments.registry import experiment
from repro.experiments.spec import below, group_runs

__all__ = [
    "mcr_instance",
    "time_mcr",
    "measure_remap",
    "average_remap_costs",
    "schedule_build_time",
    "static_run",
    "single_machine_times",
    "adaptive_run",
]

# --------------------------------------------------------------------------
# Table 1 — execution time of MinimizeCostRedistribution


def mcr_instance(p: int, seed: int = 0):
    """One random (arrangement, old, new) MCR instance at *p* processors."""
    from repro.apps.workloads import random_capabilities

    rng = np.random.default_rng(seed)
    old = random_capabilities(p, rng)
    new = random_capabilities(p, rng)
    return np.arange(p), old, new


def time_mcr(
    p: int, *, elements: int = 10_000, repeats: int = 3, seed: int = 0
) -> float:
    """Best-of-*repeats* host seconds for one MinimizeCostRedistribution call."""
    from repro.partition.arrangement import minimize_cost_redistribution

    arr, old, new = mcr_instance(p, seed)
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        minimize_cost_redistribution(arr, old, new, elements)
        best = min(best, time.perf_counter() - t0)
    return best


def _expect_table1(runs):
    from repro.runtime.adaptive.strategy import MCR_SECONDS_PER_P3

    for _, by_p in group_runs(runs, "p", field="passes"):
        passes = {p: [m["mcr_seconds"] for m in by_p[p]] for p in sorted(by_p)}
        t = {p: min(seconds) for p, seconds in passes.items()}
        for a, b in pairwise(t):
            # Pass k of p=a and of p=b ran milliseconds apart, so their
            # ratio cancels the host's drift; two bests over all passes,
            # taken at different moments, do not.
            yield from below(
                f"MCR seconds at p={a} / p={b}, median over paired passes",
                statistics.median(x / y for x, y in zip(passes[a], passes[b])),
                1.0,
            )
        yield from below(f"MCR seconds at p={max(t)} vs a remap", t[max(t)], 0.05)
        # Measured beside modelled: the host cost of MCR stays below the
        # virtual seconds the simulator charges for it (Table 1's 2 us p^3).
        for p in t:
            if p >= 15:
                yield from below(
                    f"MCR host seconds at p={p} vs the virtual charge",
                    t[p], MCR_SECONDS_PER_P3 * p**3,
                )


@experiment(
    "table1",
    title="Execution time of MinimizeCostRedistribution",
    paper_anchor="Table 1",
    grid={"p": (3, 5, 10, 15, 20), "elements": (10_000,), "repeats": (3,)},
    quick_grid={"p": (3, 5), "elements": (2_000,), "repeats": (3,)},
    expect=_expect_table1,
    # One pass times p = 3 and p = 5 a few ms apart, and host speed on a
    # shared 2-core container drifts by up to 1.6x over ~0.1-1 s: the
    # quick grid's "p=3 below p=5" flipped in 24 of 1,000 one-pass runs,
    # and more repeats per pass made it worse.  Twenty alternated passes,
    # best against best: 3 of 1,000 under bursty load (two busy-wait
    # processes on 2 vCPUs).  The same passes paired: 0 of 1,000.
    passes=20,
)
def _exp_table1(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    return {
        "mcr_seconds": time_mcr(
            int(params["p"]),
            elements=int(params["elements"]),
            repeats=int(params["repeats"]),
            seed=seed,
        )
    }


# --------------------------------------------------------------------------
# Table 2 — average cost of data remapping, with and without MCR


def measure_remap(n: int, p: int, old_caps, new_caps, arrangement) -> float:
    """Virtual makespan of one redistribution on the SUN4 Ethernet testbed."""
    from repro.net.cluster import sun4_cluster
    from repro.net.spmd import run_spmd
    from repro.partition.intervals import partition_list
    from repro.runtime.adaptive import redistribute

    cluster = sun4_cluster(p)
    old = partition_list(n, old_caps)
    new = partition_list(n, new_caps, arrangement)
    data = np.zeros(n, dtype=np.float64)

    def fn(ctx):
        lo, hi = old.interval(ctx.rank)
        redistribute(ctx, old, new, data[lo:hi])
        ctx.barrier()

    return run_spmd(cluster, fn).makespan


def average_remap_costs(
    n: int, p: int, rng: np.random.Generator, *, samples: int
) -> tuple[float, float]:
    """(with MCR, without MCR) mean remap cost over random capability samples."""
    from repro.apps.workloads import random_capabilities
    from repro.net.cluster import sun4_cluster
    from repro.partition.arrangement import (
        RedistributionCostModel,
        minimize_cost_redistribution,
    )

    net = sun4_cluster(p).make_network()
    cost_model = RedistributionCostModel.from_network(net, 8)
    with_mcr = without = 0.0
    for _ in range(samples):
        old_caps = random_capabilities(p, rng)
        new_caps = random_capabilities(p, rng)
        arr = minimize_cost_redistribution(
            np.arange(p), old_caps, new_caps, n, cost_model=cost_model
        )
        with_mcr += measure_remap(n, p, old_caps, new_caps, arr)
        without += measure_remap(n, p, old_caps, new_caps, np.arange(p))
    return with_mcr / samples, without / samples


def _expect_table2(runs):
    for _, by in group_runs(runs, "n", "p"):
        for (n, p), m in by.items():
            yield from below(
                f"remap with MCR vs identity arrangement at n={n}, p={p}",
                m["remap_mcr"], m["remap_identity"], 1.02,
            )
        sizes = sorted({n for n, _ in by})
        small, big = sizes[0], sizes[-1]
        for p in sorted({p for _, p in by}):
            if small < big and {(small, p), (big, p)} <= by.keys():
                yield from below(
                    f"remap cost at n={small} vs n={big}, p={p}",
                    by[small, p]["remap_mcr"], by[big, p]["remap_mcr"],
                )
        if {(big, 3), (big, 5)} <= by.keys():
            adv3, adv5 = (
                by[big, p]["remap_identity"] - by[big, p]["remap_mcr"] for p in (3, 5)
            )
            if not adv5 >= 0.5 * adv3:
                yield f"MCR's advantage at n={big} shrinks from p=3 to p=5"


@experiment(
    "table2",
    title="Average cost of data remapping (MCR vs identity)",
    paper_anchor="Table 2",
    grid={"n": (512, 2048, 16_384), "p": (3, 4, 5), "samples": (8,)},
    quick_grid={"n": (2048,), "p": (3,), "samples": (2,)},
    expect=_expect_table2,
)
def _exp_table2(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    with_mcr, without = average_remap_costs(
        int(params["n"]), int(params["p"]), rng, samples=int(params["samples"])
    )
    return {"remap_mcr": with_mcr, "remap_identity": without}


# --------------------------------------------------------------------------
# Table 3 — time to build communication schedules, by strategy


def schedule_build_time(graph, p: int, strategy: str) -> float:
    """Max per-rank virtual time to build the schedule on the SUN4 pool."""
    from repro.net.cluster import sun4_cluster
    from repro.net.spmd import run_spmd
    from repro.partition.intervals import partition_list
    from repro.runtime.inspector import run_inspector

    cluster = sun4_cluster(p)
    part = partition_list(graph.num_vertices, cluster.speeds)

    def fn(ctx):
        result = run_inspector(graph, part, ctx.rank, strategy=strategy, ctx=ctx)
        ctx.barrier()
        return result.build_time

    return run_spmd(cluster, fn).makespan


def _expect_table3(runs):
    for _, by in group_runs(runs, "strategy", "p"):
        t = {
            s: {p: m["build_seconds"] for (s_, p), m in sorted(by.items()) if s_ == s}
            for s in ("sort1", "sort2", "simple")
        }
        for s in ("sort1", "sort2"):
            for a, b in pairwise(t[s]):
                yield from below(f"{s} build at p={b} vs p={a}", t[s][b], t[s][a], 1.10)
            if {2, 5} <= t[s].keys():
                yield from below(f"{s} build at p=5 vs p=2", t[s][5], t[s][2], 0.9)
            if 5 in t[s] and 5 in t["simple"]:  # the crossover
                yield from below(
                    f"{s} vs simple build at p=5", t[s][5], t["simple"][5]
                )
        for p in sorted(t["sort1"].keys() & t["sort2"].keys()):
            yield from below(
                f"sort2 vs sort1 build at p={p}", t["sort2"][p], t["sort1"][p] + 1e-9
            )
        simple = t["simple"]
        if {2, 5} <= simple.keys():
            yield from below("simple build at p=2 vs p=5", simple[2], simple[5])


@experiment(
    "table3",
    title="Communication-schedule construction time by strategy",
    paper_anchor="Table 3",
    grid={
        "strategy": ("sort1", "sort2", "simple"),
        "p": (2, 3, 4, 5),
        "n_vertices": (6_000,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "strategy": ("sort1", "sort2", "simple"),
        "p": (2, 3),
        "n_vertices": (6_000,),
        "workload_seed": (1995,),
    },
    expect=_expect_table3,
)
def _exp_table3(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    graph = rcb_ordered_mesh(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    return {
        "build_seconds": schedule_build_time(
            graph, int(params["p"]), str(params["strategy"])
        )
    }


# --------------------------------------------------------------------------
# Table 4 — execution time and efficiency in static environments


def static_run(graph, y0, iterations: int, p: int):
    """One static (dedicated, nonuniform) run on the first *p* workstations."""
    from repro.net.cluster import sun4_cluster
    from repro.runtime.program import ProgramConfig, run_program

    return run_program(
        graph, sun4_cluster(p), ProgramConfig(iterations=iterations), y0=y0
    )


def single_machine_times(graph, y0, iterations: int) -> list[float]:
    """T(p_i): the single-workstation makespans of the five SUN4s, the
    Sec. 4 denominator."""
    from repro.net.cluster import sun4_cluster
    from repro.runtime.program import ProgramConfig, run_program

    pool = sun4_cluster(5)
    return [
        run_program(
            graph, pool.subset([i]), ProgramConfig(iterations=iterations), y0=y0
        ).makespan
        for i in range(5)
    ]


@lru_cache(maxsize=8)
def _cached_singles(
    n_vertices: int, workload_seed: int, iterations: int
) -> tuple[float, ...]:
    """All five T(p_i) for one workload; every p-configuration slices this."""
    graph, y0 = mesh_workload(n_vertices, workload_seed)
    return tuple(single_machine_times(graph, y0, iterations))


def _expect_table4(runs):
    for _, by_p in group_runs(runs, "p"):
        time = {p: by_p[p]["makespan"] for p in sorted(by_p)}
        eff = {p: by_p[p]["efficiency"] for p in time}
        for a, b in pairwise(time):
            yield from below(f"time at p={b} vs p={a}", time[b], time[a])
            yield from below(f"efficiency at p={b} vs p={a}", eff[b], eff[a] + 1e-9)
        if 1 in eff and abs(eff[1] - 1.0) > 1e-6:
            yield f"one workstation has efficiency {eff[1]!r}, not 1"
        # Paper: E(5 ws) = 0.62; ours is ~0.55 at 6,000 vertices and ~0.86
        # at 30,269, where the compute/communication ratio is larger.
        if 5 in eff and not 0.45 <= eff[5] <= 0.90:
            yield f"efficiency at p=5 is {eff[5]:.3f}, outside [0.45, 0.90]"


@experiment(
    "table4",
    title="Execution time and efficiency in static environments",
    paper_anchor="Table 4",
    grid={
        "p": (1, 2, 3, 4, 5),
        "n_vertices": (6_000,),
        "iterations": (60,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "p": (1, 2, 3),
        "n_vertices": (6_000,),
        "iterations": (8,),
        "workload_seed": (1995,),
    },
    higher_is_better=("efficiency",),
    expect=_expect_table4,
)
def _exp_table4(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    from repro.runtime.efficiency import nonuniform_efficiency

    n, iters = int(params["n_vertices"]), int(params["iterations"])
    p = int(params["p"])
    graph, y0 = mesh_workload(n, int(params["workload_seed"]))
    report = static_run(graph, y0, iters, p)
    singles = _cached_singles(n, int(params["workload_seed"]), iters)[:p]
    return {
        "makespan": report.makespan,
        "efficiency": nonuniform_efficiency(report.makespan, list(singles)),
    }


# --------------------------------------------------------------------------
# Table 5 — adaptive environment, with and without load balancing


def adaptive_run(
    graph,
    y0,
    iterations: int,
    p: int,
    *,
    lb: bool,
    check_interval: int = 10,
):
    """One Table-5 run: two competing processes on ws 0, equal initial
    decomposition; ``lb=True`` balances with the paper's centralized
    protocol, ``lb=False`` runs the no-balancing baseline.
    """
    from repro.net.cluster import adaptive_cluster
    from repro.runtime.adaptive import LoadBalanceConfig
    from repro.runtime.program import ProgramConfig, run_program

    cfg = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        load_balance=(
            LoadBalanceConfig(check_interval=check_interval)
            if lb
            else None
        ),
    )
    return run_program(graph, adaptive_cluster(p, competing_load=2.0), cfg, y0=y0)


def _expect_table5(runs):
    for shared, by in group_runs(runs, "p", "lb"):
        for p in sorted({p for p, _ in by if p > 1}):
            lb, off = by.get((p, True)), by.get((p, False))
            if lb is None:
                continue
            if not lb["num_remaps"] >= 1:
                yield f"load balancing never remapped at p={p}"
                continue
            yield from below(
                f"cost of one check vs one remap at p={p}",
                lb["check_time"] / max(lb["num_checks"], 1),
                lb["remap_time"] / lb["num_remaps"],
            )
            if off is not None:
                yield from below(
                    f"time with vs without load balancing at p={p}",
                    lb["makespan"], off["makespan"], 0.85,
                )
                yield from below(
                    f"remap cost vs no-LB iteration time at p={p}",
                    lb["remap_time"], off["makespan"] / shared["iterations"], 20,
                )
        # More workstations still help in the adaptive environment.
        t = {p: m["makespan"] for (p, lb), m in sorted(by.items()) if lb and p <= 3}
        for a, b in pairwise(t):
            yield from below(f"balanced time at p={b} vs p={a}", t[b], t[a])


@experiment(
    "table5",
    title="Adaptive environment with and without load balancing",
    paper_anchor="Table 5",
    grid={
        "p": (1, 2, 3, 4, 5),
        "lb": (True, False),
        "n_vertices": (6_000,),
        "iterations": (60,),
        "check_interval": (10,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "p": (2, 3),
        "lb": (True, False),
        "n_vertices": (6_000,),
        "iterations": (20,),
        "check_interval": (5,),
        "workload_seed": (1995,),
    },
    expect=_expect_table5,
)
def _exp_table5(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    graph, y0 = mesh_workload(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    report = adaptive_run(
        graph,
        y0,
        int(params["iterations"]),
        int(params["p"]),
        lb=bool(params["lb"]),
        check_interval=int(params["check_interval"]),
    )
    return {
        "makespan": report.makespan,
        "remap_time": report.remap_time,
        "check_time": report.lb_check_time,
        "num_remaps": float(report.num_remaps),
        "num_checks": float(report.num_checks),
    }


# --------------------------------------------------------------------------
# Fig. 2 — recursive coordinate bisection maps a graph into 1-D space

_FIG2_PART_COUNTS = (2, 4, 8, 16, 32)


def _expect_fig2(runs):
    for _, by in group_runs(runs, "ordering"):
        if "rcb" not in by:
            continue
        cuts = {k: by["rcb"][f"cut{k}"] for k in _FIG2_PART_COUNTS}
        if sorted(cuts.values()) != list(cuts.values()):
            yield f"RCB's cut curve {cuts} is not monotone in the partition count"
        yield from below("RCB cut at 32 vs 2 parts (sub-linear)", cuts[32], cuts[2], 16)
        if "random" in by:
            rand = by["random"]
            for k, cut in cuts.items():
                yield from below(
                    f"RCB vs random cut at {k} parts", cut, rand[f"cut{k}"], 0.25
                )
            yield from below(
                "RCB vs random mean 1-D edge span",
                by["rcb"]["mean_span"], rand["mean_span"], 0.2,
            )


@experiment(
    "fig2_rcb_locality",
    title="RCB's one-dimensional locality across partition counts",
    paper_anchor="Fig. 2",
    grid={
        "ordering": ("rcb", "identity", "random"),
        "n_vertices": (6_000,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "ordering": ("rcb", "identity", "random"),
        "n_vertices": (800,),
        "workload_seed": (1995,),
    },
    expect=_expect_fig2,
)
def _exp_fig2(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    from repro.experiments.catalog.ablations import ordering_by_name
    from repro.graph.metrics import cut_curve, mean_edge_span

    graph, _ = mesh_workload(
        int(params["n_vertices"]), int(params["workload_seed"])
    )
    perm = ordering_by_name(str(params["ordering"]), seed)(graph)
    curve = cut_curve(graph, perm, _FIG2_PART_COUNTS)
    return {
        "mean_span": mean_edge_span(graph, perm),
        **{f"cut{k}": float(curve[k]) for k in _FIG2_PART_COUNTS},
    }


# --------------------------------------------------------------------------
# Fig. 5 (+ Figs. 6/7) — arrangements change redistribution cost
#
# The paper's exact instance: 100 elements, capabilities adapting from
# _FIG5_OLD to _FIG5_NEW.  The paper reports 29 elements kept / 5 messages
# for the identity arrangement and 65 / 3 for (P0, P3, P1, P2, P4); exact
# Hamilton rounding of the fractional block sizes gives 31 / 6 and 64 / 5.

_FIG5_OLD = (0.27, 0.18, 0.34, 0.07, 0.14)
_FIG5_NEW = (0.10, 0.13, 0.29, 0.24, 0.24)
_FIG5_PAPER = (0, 3, 1, 2, 4)
_FIG5_ELEMENTS = 100


def _expect_fig5(runs):
    ((_, by),) = group_runs(runs, "arrangement")
    kept = {a: (m["overlap"], m["messages"]) for a, m in by.items()}
    for name, exact in (("identity", (31, 6)), ("paper", (64, 5))):
        if name in kept and kept[name] != exact:
            yield f"{name} arrangement keeps/sends {kept[name]}, expected {exact}"
    if "mcr" in by and not by["mcr"]["is_paper_arrangement"]:
        yield "MCR does not recover the paper's arrangement (P0, P3, P1, P2, P4)"
    if "brute-force" in kept and kept["brute-force"][0] != 64:
        yield "the paper's arrangement (64 kept) is not optimal for its own instance"
    if {"paper", "identity"} <= kept.keys():
        if not kept["paper"][0] >= 2 * kept["identity"][0]:
            yield "the good arrangement does not double the elements kept in place"
        if not kept["paper"][1] <= kept["identity"][1]:
            yield "the good arrangement needs more messages than the identity"


@experiment(
    "fig5_arrangement",
    title="Repartitioning arrangements on the paper's 100-element example",
    paper_anchor="Fig. 5",
    grid={"arrangement": ("identity", "paper", "mcr", "brute-force")},
    expect=_expect_fig5,
)
def _exp_fig5(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    from repro.partition.arrangement import (
        brute_force_arrangement,
        message_count,
        minimize_cost_redistribution,
        overlap_elements,
    )
    from repro.partition.intervals import partition_list

    n, ident = _FIG5_ELEMENTS, np.arange(5)
    arrangement = {
        "identity": lambda: ident,
        "paper": lambda: np.array(_FIG5_PAPER),
        "mcr": lambda: minimize_cost_redistribution(ident, _FIG5_OLD, _FIG5_NEW, n),
        "brute-force": lambda: brute_force_arrangement(
            ident, _FIG5_OLD, _FIG5_NEW, n
        )[0],
    }[str(params["arrangement"])]()
    old = partition_list(n, _FIG5_OLD)
    new = partition_list(n, _FIG5_NEW, arrangement)
    return {
        "overlap": float(overlap_elements(old, new)),
        "messages": float(message_count(old, new)),
        "is_paper_arrangement": float(tuple(arrangement.tolist()) == _FIG5_PAPER),
    }
