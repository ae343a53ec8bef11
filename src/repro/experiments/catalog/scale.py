"""The scale tier: host-time and dynamic-environment runs far past the
paper's 30,269-vertex mesh (``repro bench run 'scale-*'``)."""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Mapping

import numpy as np

from repro.experiments.registry import experiment
from repro.experiments.catalog.workloads import huge_workload, scale_workload
from repro.experiments.spec import below, config_label, group_runs

__all__ = [
    "scale_epoch_measurements",
    "scale_huge_measurements",
    "scale_adaptive_measurements",
    "scale_elastic_measurements",
    "scale_resilience_measurements",
    "scale_service_measurements",
]

# --------------------------------------------------------------------------
# Scale tier — host-time benchmarks of the runtime hot paths, far past
# the paper's 30,269-vertex mesh.  Unlike the table experiments, these
# measure *host* wall seconds next to the virtual ones.


def scale_epoch_measurements(
    tier: str,
    family: str,
    p: int,
    epochs: int,
    *,
    workload_seed: int = 1995,
    world: str = "sim",
) -> dict[str, float]:
    """Host-time one inspector build plus *epochs* gather/scatter rounds.

    Returns both timings and structural schedule facts (ghost counts, send
    volume, message counts) — the structural part is deterministic and is
    what the golden-artifact regression test pins.  With ``world="real"``
    the executor rounds run on one OS process per rank instead of
    threads (``--set world=real`` on the CLI).
    """
    from repro.net.cluster import uniform_cluster
    from repro.net.spmd import run_spmd
    from repro.partition.intervals import partition_list
    from repro.runtime.executor import gather, scatter
    from repro.runtime.inspector import run_inspector

    graph, y0 = scale_workload(tier, family, workload_seed)
    n = graph.num_vertices
    part = partition_list(n, np.ones(p))

    t0 = time.perf_counter()
    insp = [
        run_inspector(graph, part, r, strategy="sort2") for r in range(p)
    ]
    inspector_s = time.perf_counter() - t0

    def fn(ctx):
        sched = insp[ctx.rank].schedule
        lo, hi = part.interval(ctx.rank)
        local = y0[lo:hi].copy()
        for _ in range(epochs):
            ghost = gather(ctx, sched, local)
            scatter(ctx, sched, ghost, local)
        return float(local.sum())

    t0 = time.perf_counter()
    run_spmd(uniform_cluster(p), fn, world=world)
    executor_s = time.perf_counter() - t0

    stats = [r.schedule.stats() for r in insp]
    return {
        "inspector_host_s": inspector_s,
        "executor_host_s": executor_s,
        "epoch_host_s": inspector_s + executor_s,
        "n_vertices": float(n),
        "n_edges": float(graph.num_edges),
        "ghost_total": float(sum(s["ghosts"] for s in stats)),
        "send_volume_total": float(sum(s["send_volume"] for s in stats)),
        "send_messages_total": float(sum(s["send_messages"] for s in stats)),
    }


def _expect_scale_epoch(runs):
    # Sec. 3.2 conservation: each ghost slot is filled by exactly one
    # element some peer sends.
    for run in runs:
        sent, ghosts = (
            run["metrics"][k] for k in ("send_volume_total", "ghost_total")
        )
        if sent != ghosts:
            yield (
                f"{sent:.0f} elements sent for {ghosts:.0f} ghost slots at "
                f"{config_label(run['params'])}"
            )


@experiment(
    "scale-epoch",
    title="Scale tier: inspector+executor epoch",
    paper_anchor="ROADMAP (beyond Table 3)",
    grid={
        "tier": ("250k", "500k"),
        "family": ("grid", "geometric"),
        "p": (4,),
        "epochs": (3,),
        "workload_seed": (1995,),
        "world": ("sim",),
    },
    quick_grid={
        "tier": ("100k",),
        "family": ("grid",),
        "p": (4,),
        "epochs": (1,),
        "workload_seed": (1995,),
        "world": ("sim",),
    },
    expect=_expect_scale_epoch,
)
def _exp_scale_epoch(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    return scale_epoch_measurements(
        str(params["tier"]),
        str(params["family"]),
        int(params["p"]),
        int(params["epochs"]),
        workload_seed=int(params["workload_seed"]),
        world=str(params.get("world", "sim")),
    )


#: Mean-degree band of each scale family: a grid is 4 less its boundary,
#: a geometric graph targets ~6.
_DEGREE_BANDS = {"grid": (3.95, 4.0), "geometric": (5.8, 6.3)}


def _expect_scale_generate(runs):
    from repro.graph.generators import SCALE_TIERS

    for run in runs:
        params, metrics = run["params"], run["metrics"]
        where = config_label(params)
        target = SCALE_TIERS[params["tier"]]
        n, degree = metrics["n_vertices"], metrics["mean_degree"]
        lo, hi = _DEGREE_BANDS[params["family"]]
        if abs(n - target) > 0.02 * target:
            yield f"n_vertices {n:.0f} is not within 2% of {target} at {where}"
        if not lo <= degree <= hi:
            yield f"mean_degree {degree:.4g} is outside [{lo}, {hi}] at {where}"


@experiment(
    "scale-generate",
    title="Scale tier: streamed mesh construction throughput",
    paper_anchor="ROADMAP (workload generation)",
    grid={
        "tier": ("100k", "250k", "500k", "1m"),
        "family": ("grid", "geometric"),
        "workload_seed": (1995,),
    },
    quick_grid={
        "tier": ("100k",),
        "family": ("grid", "geometric"),
        "workload_seed": (1995,),
    },
    expect=_expect_scale_generate,
)
def _exp_scale_generate(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    from repro.graph.generators import scale_mesh

    t0 = time.perf_counter()
    graph = scale_mesh(
        str(params["tier"]),
        family=str(params["family"]),
        seed=int(params["workload_seed"]),
    )
    build_s = time.perf_counter() - t0
    n = graph.num_vertices
    return {
        "build_host_s": build_s,
        "n_vertices": float(n),
        "n_edges": float(graph.num_edges),
        "mean_degree": float(graph.indices.size / n) if n else 0.0,
    }


# --------------------------------------------------------------------------
# Scale tier — dynamic-load scenarios through the full adaptive runtime
# (Phase D at the 10k-500k tiers: the environment's capabilities change
# *during* the run and the AdaptiveSession must keep up).


def _scale_run(
    tier: str,
    family: str,
    workload_seed: int,
    p: int,
    iterations: int,
    cluster_factory,
    config_extras,
    keys: tuple[str, ...],
) -> dict[str, float]:
    """One timed ``run_program`` at a scale tier: the body the adaptive,
    elastic and resilience measurements share.

    ``cluster_factory(horizon)`` builds the cluster and
    ``config_extras(cluster, horizon)`` returns the family's
    :class:`ProgramConfig` fields; *horizon* is the expected unloaded
    duration, which the scenario traces scale their breakpoints to so
    load changes, departures and failures always land mid-run.  *keys*
    selects (and orders) the metrics the family reports.
    """
    from repro.runtime.kernels import KernelCostModel
    from repro.runtime.program import ProgramConfig, run_program

    graph, y0 = scale_workload(tier, family, workload_seed)
    n = graph.num_vertices
    work_per_iter = KernelCostModel().sweep_seconds(int(graph.indices.size), n)
    horizon = iterations * work_per_iter / p
    cluster = cluster_factory(horizon)
    config = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        **config_extras(cluster, horizon),
    )
    t0 = time.perf_counter()
    report = run_program(graph, cluster, config, y0=y0)
    run_host_s = time.perf_counter() - t0
    metrics = report.virtual_metrics()
    metrics.update(
        check_time=metrics["lb_check_time"],
        redistribute_host_s=report.redistribute_host_s,
        run_host_s=run_host_s,
        final_active=float((report.partition_final.sizes() > 0).sum()),
        n_vertices=float(n),
    )
    return {k: metrics[k] for k in keys}


def scale_adaptive_measurements(
    tier: str,
    scenario: str,
    style: str,
    p: int,
    iterations: int,
    check_interval: int,
    *,
    workload_seed: int = 1995,
    world: str = "sim",
) -> dict[str, float]:
    """One dynamic-load run at a scale tier, through the adaptive session.

    Virtual metrics (makespan, remap/check cost, remap count) come from
    the sim cost model; the host-time metrics (``redistribute_host_s``,
    ``run_host_s``) time the packed-slab exchange and the whole run.
    *style* ``"off"`` is the same run with no load balancing.
    With ``world="real"`` the whole adaptive session runs on OS
    processes and the makespan is wall seconds; the competing
    load is then only visible to the *decision* layer (the simulated
    traces do not slow the host down), so the interesting real-world
    metrics are the overhead ones.
    """
    from repro.apps.workloads import dynamic_load_cluster
    from repro.runtime.adaptive import resolve_load_balance

    return _scale_run(
        tier, "grid", workload_seed, p, iterations,
        lambda horizon: dynamic_load_cluster(p, scenario, horizon),
        lambda cluster, horizon: dict(
            load_balance=resolve_load_balance(
                style, check_interval=check_interval
            ),
            world=world,
        ),
        ("makespan", "num_remaps", "remap_time", "check_time",
         "redistribute_host_s", "run_host_s", "n_vertices"),
    )


def _expect_scale_adaptive(runs):
    # A load that keeps growing (ramp) is rebalanced.  A load that ends
    # before a remap and the remap back could repay themselves (onset) or
    # moves on first (hotspot) is not chased: the run may not finish more
    # than 5 % later than the same run without LB.
    for run in runs:
        params = run["params"]
        if (
            params["lb"]
            and params["scenario"] == "ramp"
            and not run["metrics"]["num_remaps"] >= 1
        ):
            yield (
                f"the dynamic load was never rebalanced at "
                f"{config_label(params)}"
            )
    for shared, by in group_runs(runs, "lb"):
        if (
            shared["scenario"] in ("onset", "hotspot")
            and True in by
            and False in by
        ):
            yield from below(
                f"makespan with vs without LB ({config_label(shared)})",
                by[True]["makespan"], by[False]["makespan"], 1.05,
            )


@experiment(
    "scale-adaptive",
    title="Scale tier: dynamic-load scenarios under adaptive load balancing",
    paper_anchor="ROADMAP (beyond Table 5)",
    grid={
        "tier": ("10k", "100k", "250k", "500k"),
        "scenario": ("onset", "hotspot", "ramp"),
        "style": ("centralized",),
        "lb": (True, False),
        "p": (4,),
        "iterations": (30,),
        "check_interval": (5,),
        "workload_seed": (1995,),
        "world": ("sim",),
    },
    quick_grid={
        "tier": ("10k",),
        "scenario": ("onset", "hotspot", "ramp"),
        "style": ("centralized", "distributed"),
        "lb": (True, False),
        "p": (4,),
        "iterations": (30,),
        "check_interval": (5,),
        "workload_seed": (1995,),
        "world": ("sim",),
    },
    expect=_expect_scale_adaptive,
)
def _exp_scale_adaptive(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    return scale_adaptive_measurements(
        str(params["tier"]),
        str(params["scenario"]),
        str(params["style"]) if params["lb"] else "off",
        int(params["p"]),
        int(params["iterations"]),
        int(params["check_interval"]),
        workload_seed=int(params["workload_seed"]),
        world=str(params.get("world", "sim")),
    )


# --------------------------------------------------------------------------
# Scale tier — sim-vs-real differential benchmark: the same program runs
# in both execution worlds, giving the first *empirical* check on the
# analytic cost models (estimate_remap_cost / estimate_checkpoint_cost)
# the profitability tests rely on.


def scale_real_measurements(
    tier: str,
    p: int,
    epochs: int,
    replication: int,
    *,
    workload_seed: int = 1995,
) -> dict[str, float]:
    """Run the probe in both worlds and report measured-vs-predicted ratios.

    The probe is one :func:`~repro.runtime.run_program` call: ``epochs``
    iterations on an equal split, one given remap to a capability-skewed
    split halfway, and ``checkpoint="interval:epochs"`` — the bootstrap
    epoch alone.  Its seconds are rank 0's spans: the ``remap`` and
    ``checkpoint`` spans, and the ``epoch`` spans less the remap one of
    them holds, per iteration.  ``predicted_*`` are the sim world's
    virtual spans; ``est_remap_s`` / ``est_checkpoint_s`` are the
    closed-form prices the Phase D profitability tests use (the remap's
    with its schedule rebuild, as ``decide`` prices it).
    ``ratio_*`` is measured wall seconds over the virtual prediction —
    how conservative the simulator's cost model is relative to
    loopback-socket reality on this host.  ``values_match`` asserts the
    differential contract (final values bit-identical across worlds).
    """
    from repro.net.cluster import uniform_cluster
    from repro.obs.summary import summarize
    from repro.partition.intervals import partition_list
    from repro.partition.ordering import IdentityOrdering
    from repro.runtime.adaptive import Phase
    from repro.runtime.adaptive.redistribution import estimate_remap_cost
    from repro.runtime.incremental import RebuildPrice
    from repro.runtime.program import ProgramConfig, run_program
    from repro.runtime.resilience import estimate_checkpoint_cost

    graph, y0 = scale_workload(tier, "grid", workload_seed)
    n = graph.num_vertices
    cluster = uniform_cluster(p)
    part_old = partition_list(n, np.ones(p))
    # Shifts ~1/6 of the elements.
    part_new = partition_list(n, np.linspace(1.0, 2.0, p))
    config = ProgramConfig(
        iterations=epochs,
        ordering=IdentityOrdering(),
        initial_capabilities="equal",
        checkpoint=f"interval:{epochs}:r{replication}",
        trace=True,
        recv_timeout=60.0,
    )

    def probe(world: str) -> tuple[np.ndarray, dict[str, float]]:
        report = run_program(
            graph, cluster, dataclasses.replace(config, world=world), y0,
            [Phase(max(epochs // 2, 1), partition=part_new)],
        )
        spans = summarize(report.trace)
        seconds = {kind: spans.time(0, kind) for kind in ("remap", "checkpoint")}
        seconds["epoch"] = (spans.time(0, "epoch") - seconds["remap"]) / epochs
        return report.values, seconds

    svals, predicted = probe("sim")
    rvals, measured = probe("real")

    network = cluster.make_network()
    # Phase D's price on an unloaded cluster: the transfer plus the
    # slowest rank's rebuild.
    rebuild = RebuildPrice(
        graph, strategy=config.strategy, mode=config.inspector_mode,
        cost_model=config.inspector_cost,
    )
    out = {
        "est_remap_s": estimate_remap_cost(
            network, part_old, part_new, 8, num_fields=1
        ) + float(np.max(rebuild.seconds(part_old, part_new))),
        "est_checkpoint_s": estimate_checkpoint_cost(
            network, part_old, np.ones(p, dtype=bool), 8,
            replication_factor=replication,
        ),
        "values_match": 1.0 if np.array_equal(svals, rvals) else 0.0,
        "n_vertices": float(n),
    }
    for kind in ("epoch", "remap", "checkpoint"):
        out[f"measured_{kind}_s"] = measured[kind]
        out[f"predicted_{kind}_s"] = predicted[kind]
        out[f"ratio_{kind}"] = (
            measured[kind] / predicted[kind] if predicted[kind] > 0 else 0.0
        )
    return out


def _expect_scale_real(runs):
    for run in runs:
        if run["metrics"]["values_match"] != 1.0:
            yield (
                f"final values differ between the sim and real worlds at "
                f"{config_label(run['params'])}"
            )


@experiment(
    "scale-real",
    title="Real processes vs simulator: measured/predicted cost ratios",
    paper_anchor="ROADMAP (real-process world)",
    grid={
        "tier": ("10k", "100k"),
        "p": (4,),
        "epochs": (5,),
        "replication": (1, 2),
        "workload_seed": (1995,),
    },
    quick_grid={
        "tier": ("10k",),
        "p": (4,),
        "epochs": (3,),
        "replication": (1,),
        "workload_seed": (1995,),
    },
    expect=_expect_scale_real,
)
def _exp_scale_real(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    return scale_real_measurements(
        str(params["tier"]),
        int(params["p"]),
        int(params["epochs"]),
        int(params["replication"]),
        workload_seed=int(params["workload_seed"]),
    )


# --------------------------------------------------------------------------
# Scale tier — elastic membership scenarios (machines join and leave the
# pool mid-run; the AdaptiveSession drains departures through the packed
# redistribution and re-runs the profitability test for joiners).


def scale_elastic_measurements(
    tier: str,
    scenario: str,
    lb: bool,
    p: int,
    iterations: int,
    check_interval: int,
    *,
    workload_seed: int = 1995,
) -> dict[str, float]:
    """One elastic-membership run at a scale tier, through the session.

    ``lb=False`` is the static baseline: departures still drain (the data
    has nowhere else to go), but load imbalance is never corrected and
    joins are never adopted.  ``final_active`` counts the ranks actually
    holding data at the end (the surviving set).
    """
    from repro.apps.workloads import elastic_cluster
    from repro.runtime.adaptive import LoadBalanceConfig

    return _scale_run(
        tier, "grid", workload_seed, p, iterations,
        lambda horizon: elastic_cluster(p, scenario, horizon),
        lambda cluster, horizon: dict(
            load_balance=(
                LoadBalanceConfig(check_interval=check_interval)
                if lb
                else None
            ),
        ),
        ("makespan", "num_remaps", "membership_events", "remap_time",
         "check_time", "redistribute_host_s", "run_host_s", "final_active",
         "n_vertices"),
    )


def _expect_scale_elastic(runs):
    # Balancing must pay in every scenario.  Adopting a machine that joins
    # must pay outright.  After a departure both runs drain alike, so the
    # balancing run may be later only by its own periodic checks: every
    # remap it adds is priced before it is done and must repay itself.
    for shared, by in group_runs(runs, "lb"):
        if True in by and False in by:
            on, off = by[True], by[False]
            if shared["scenario"] == "join-midrun":
                what, balancing = "makespan", on["makespan"]
            else:
                what = "makespan less check time"
                balancing = on["makespan"] - on["check_time"]
            yield from below(
                f"{what} with LB vs makespan without ({config_label(shared)})",
                balancing, off["makespan"],
            )


@experiment(
    "scale-elastic",
    title="Scale tier: elastic membership (join/leave/churn) mid-run",
    paper_anchor="ROADMAP (beyond Table 5; Sec. 1 adaptive taxonomy)",
    grid={
        "tier": ("10k", "100k", "250k", "500k"),
        "scenario": ("leave-at-peak", "join-midrun", "churn"),
        "lb": (True, False),
        "p": (4,),
        "iterations": (30,),
        "check_interval": (5,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "tier": ("10k",),
        "scenario": ("leave-at-peak", "join-midrun"),
        "lb": (True, False),
        "p": (4,),
        "iterations": (20,),
        "check_interval": (5,),
        "workload_seed": (1995,),
    },
    expect=_expect_scale_elastic,
)
def _exp_scale_elastic(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    return scale_elastic_measurements(
        str(params["tier"]),
        str(params["scenario"]),
        bool(params["lb"]),
        int(params["p"]),
        int(params["iterations"]),
        int(params["check_interval"]),
        workload_seed=int(params["workload_seed"]),
    )


# --------------------------------------------------------------------------
# Scale tier — unannounced-failure scenarios (a machine dies mid-run with
# its data; the resilience subsystem checkpoints to ring partners and
# rolls the world back on detection).


def scale_resilience_measurements(
    tier: str,
    scenario: str,
    policy: str,
    p: int,
    iterations: int,
    check_interval: int,
    *,
    workload_seed: int = 1995,
    replication: int = 1,
) -> dict[str, float]:
    """One unannounced-failure run at a scale tier, through the session.

    *policy* is the ``--checkpoint`` DSL (``"interval:K"``), or the
    special value ``"cost"``, which instantiates
    :class:`~repro.runtime.resilience.CostModelCheckpoint` with the
    operator's honest failure-rate estimate for the scenario (the
    compute horizon divided by the number of failures in its trace) —
    the arm the checkpoint-interval sweep compares the fixed intervals
    against.  ``lost_time`` is the virtual progress each
    rollback discarded and re-executed, ``checkpoint_time`` the total
    replication overhead — the two sides of the trade the cost model
    navigates.  *replication* is the number of distinct ring successors
    holding each rank's checkpoint epoch (k-successor replication):
    higher k multiplies ``checkpoint_time`` but survives k correlated
    failures per ring neighborhood.
    """
    from repro.apps.workloads import resilient_cluster
    from repro.runtime.adaptive import LoadBalanceConfig
    from repro.runtime.resilience import (
        CostModelCheckpoint,
        resolve_checkpoint_policy,
    )

    def config_extras(cluster, horizon):
        n_failures = sum(
            1 for ev in cluster.membership.events if ev.kind == "fail"
        )
        checkpoint = (
            CostModelCheckpoint(mtbf=horizon / max(n_failures, 1))
            if policy == "cost"
            else resolve_checkpoint_policy(policy)
        )
        return dict(
            load_balance=LoadBalanceConfig(check_interval=check_interval),
            checkpoint=dataclasses.replace(
                checkpoint, replication_factor=int(replication)
            ),
        )

    return _scale_run(
        tier, "grid", workload_seed, p, iterations,
        lambda horizon: resilient_cluster(p, scenario, horizon),
        config_extras,
        ("makespan", "num_checkpoints", "num_rollbacks", "checkpoint_time",
         "rollback_time", "lost_time", "num_remaps", "membership_events",
         "redistribute_host_s", "run_host_s", "final_active", "n_vertices"),
    )


def _expect_scale_resilience(runs):
    for run in runs:
        if not run["metrics"]["num_rollbacks"] >= 1:
            yield f"a failure went unrecovered at {config_label(run['params'])}"
    # k=2 ships each epoch to one more successor than k=1: its checkpoint
    # overhead must strictly dominate at an otherwise equal configuration.
    for shared, by in group_runs(runs, "replication"):
        if 1 in by and 2 in by:
            yield from below(
                f"checkpoint_time at r1 vs r2 ({config_label(shared)})",
                by[1]["checkpoint_time"], by[2]["checkpoint_time"],
            )


@experiment(
    "scale-resilience",
    title="Scale tier: unannounced failures under checkpoint/recovery",
    paper_anchor="ROADMAP (beyond Sec. 1's adaptive taxonomy)",
    grid={
        "tier": ("10k", "100k", "250k", "500k"),
        "scenario": ("fail-at-peak", "repeated-failures"),
        "policy": ("interval:1", "interval:4", "interval:16", "cost"),
        "replication": (1, 2, 3),
        "p": (4,),
        "iterations": (30,),
        "check_interval": (5,),
        "workload_seed": (1995,),
    },
    quick_grid={
        "tier": ("10k",),
        "scenario": ("fail-at-peak", "repeated-failures"),
        "policy": ("interval:4", "cost"),
        "replication": (1, 2),
        "p": (4,),
        "iterations": (20,),
        "check_interval": (5,),
        "workload_seed": (1995,),
    },
    expect=_expect_scale_resilience,
)
def _exp_scale_resilience(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    return scale_resilience_measurements(
        str(params["tier"]),
        str(params["scenario"]),
        str(params["policy"]),
        int(params["p"]),
        int(params["iterations"]),
        int(params["check_interval"]),
        workload_seed=int(params["workload_seed"]),
        replication=int(params["replication"]),
    )


# --------------------------------------------------------------------------
# scale-huge — incremental vs full inspector rebuild at 1M-10M vertices


def _small_boundary_remap(old, p: int, n: int):
    """A remap of the kind phase D actually produces: every internal
    boundary shifts by ~0.5% of a block (alternating direction), owners
    unchanged — the small-diff regime the incremental path targets."""
    from repro.partition.intervals import IntervalPartition

    shift = max(n // (p * 200), 1)
    bounds = old.bounds.copy()
    for b in range(1, p):
        bounds[b] += shift if b % 2 else -shift
    return IntervalPartition(bounds, old.owners), shift


#: Remap events measured per rank: the partition oscillates between the
#: old and new boundaries, so every event is a small-boundary remap and
#: both modes see the identical sequence.  Multiple rounds measure the
#: sustained epoch-to-epoch regime the incremental path targets (one
#: instance patched across a session's successive remaps), not a single
#: cold rebuild.
_HUGE_ROUNDS = 4


def scale_huge_measurements(
    tier: str, p: int, *, workload_seed: int = 1995
) -> dict[str, float]:
    """Incremental-vs-full Phase B across repeated small-boundary remaps.

    Ranks run **sequentially** (not SPMD) so peak memory stays one
    rank's working set above the shared mesh even at 10M x 128.  Each
    rank seeds an :class:`~repro.runtime.incremental.IncrementalInspector`
    on the old partition, then both modes process the same
    ``_HUGE_ROUNDS``-event remap sequence: a from-scratch
    ``run_inspector`` per event versus ``rebuild`` on the one live
    instance.  Every event's structures are checked array-for-array, and
    the first and last events' kernel-sweep values for bit-identity.
    """
    from repro.runtime.incremental import IncrementalInspector
    from repro.runtime.inspector import run_inspector
    from repro.partition.intervals import partition_list

    graph, y0 = huge_workload(tier, workload_seed)
    n = graph.num_vertices
    old = partition_list(n, np.ones(p))
    new, shift = _small_boundary_remap(old, p, n)
    remaps = [new if i % 2 == 0 else old for i in range(_HUGE_ROUNDS)]

    full_s = 0.0
    incremental_s = 0.0
    patched_ranks = 0
    patch_virtual_s = 0.0
    results_match = True
    values_match = True
    ghost_total = 0
    for r in range(p):
        inc = IncrementalInspector(graph, old, r, strategy="sort2")
        fulls = []
        for part in remaps:
            t0 = time.perf_counter()
            fulls.append(run_inspector(graph, part, r, strategy="sort2"))
            full_s += time.perf_counter() - t0
        patched_events = 0
        patches = []
        for part in remaps:
            t0 = time.perf_counter()
            patches.append(inc.rebuild(part))
            incremental_s += time.perf_counter() - t0
            if inc.last_mode == "patched":
                patched_events += 1
                patch_virtual_s += inc.last_patch_cost
        if patched_events == len(remaps):
            patched_ranks += 1
        for i, (part, full, patched) in enumerate(zip(remaps, fulls, patches)):
            if patched != full:
                results_match = False
            if i not in (0, len(remaps) - 1):
                continue
            lo, hi = part.interval(r)
            v_full = full.kernel_plan.sweep(
                y0[lo:hi], y0[full.schedule.ghost_globals]
            )
            v_patch = patched.kernel_plan.sweep(
                y0[lo:hi], y0[patched.schedule.ghost_globals]
            )
            if not np.array_equal(v_full, v_patch):
                values_match = False
        ghost_total += patches[0].schedule.ghost_size
    return {
        "full_rebuild_s": full_s,
        "incremental_s": incremental_s,
        "speedup": full_s / max(incremental_s, 1e-12),
        "results_match": 1.0 if results_match else 0.0,
        "values_match": 1.0 if values_match else 0.0,
        "patched_ranks": float(patched_ranks),
        "patch_virtual_s": patch_virtual_s,
        "rounds": float(_HUGE_ROUNDS),
        "ghost_total": float(ghost_total),
        "boundary_shift": float(shift),
        "n_vertices": float(n),
        "n_edges": float(graph.num_edges),
    }


def _expect_scale_huge(runs):
    for run in runs:
        params, m = run["params"], run["metrics"]
        at = config_label(params)
        if m["results_match"] != 1.0:
            yield f"patched schedules/plans differ from a full rebuild's at {at}"
        if m["values_match"] != 1.0:
            yield f"patched sweep values differ from a full rebuild's at {at}"
        # The small-boundary remap must take the patch path everywhere,
        # and it must actually be faster.
        if m["patched_ranks"] != params["p"]:
            yield f"{m['patched_ranks']:.0f} of {params['p']} ranks patched at {at}"
        if not m["speedup"] > 1.0:
            yield f"incremental speedup {m['speedup']:.3g} is not > 1 at {at}"


@experiment(
    "scale-huge",
    title="Huge tier: incremental vs full inspector rebuild, 1M-10M vertices",
    paper_anchor="ROADMAP (beyond Sec. 3's inspector)",
    grid={
        "tier": ("1m", "4m", "10m"),
        "p": (16, 64, 128),
        "workload_seed": (1995,),
    },
    quick_grid={
        "tier": ("1m",),
        "p": (16,),
        "workload_seed": (1995,),
    },
    higher_is_better=("speedup",),
    expect=_expect_scale_huge,
)
def _exp_scale_huge(params: Mapping[str, Any], *, seed: int) -> dict[str, float]:
    return scale_huge_measurements(
        str(params["tier"]),
        int(params["p"]),
        workload_seed=int(params["workload_seed"]),
    )

# --------------------------------------------------------------------------
# Scale tier — the multi-tenant job service (repro.serve): a stream of
# programs co-scheduled over one shared cluster, each job's compute acting
# as the others' competing load.


def scale_service_measurements(
    jobs: int,
    policy: str,
    shape: str,
    *,
    p: int = 8,
    stream_seed: int = 1995,
    admission_seed: int = 1,
) -> dict[str, float]:
    """One service run: a seeded job stream under one admission policy.

    The ``descending`` stream is the adversarial head-of-line case and
    runs space-shared (``max_tenants=1``): FIFO idles the remainder ranks
    behind each wide head job, which the seeded random permutation fixes.
    The other shapes run time-shared (``max_tenants=2``) so co-tenant
    compute flows through :class:`~repro.net.loadmodel.ServiceLoad` into
    every job's capability ratios.  All metrics but ``run_host_s`` are
    virtual; ``checksum_sum`` aggregates the per-job value checksums,
    which are policy- and placement-invariant (no job lost or
    duplicated).
    """
    from repro.net import uniform_cluster
    from repro.serve import ServiceSession, generate_stream

    queue = generate_stream(shape, jobs, max_ranks=p, seed=stream_seed)
    max_tenants = 1 if shape == "descending" else 2
    session = ServiceSession(
        uniform_cluster(p, name="service-pool"),
        queue,
        policy=policy,
        seed=admission_seed,
        max_tenants=max_tenants,
    )
    t0 = time.perf_counter()
    report = session.run()
    host_s = time.perf_counter() - t0
    out = dict(report.metrics())
    out["max_tenants"] = float(max_tenants)
    out["checksum_sum"] = sum(r.checksum for r in report.records)
    out["run_host_s"] = host_s
    return out


def _expect_scale_service(runs):
    # On the adversarial descending stream the seeded random permutation
    # must beat FIFO's p99 makespan (narrow jobs stop queuing behind the
    # wide head-of-line job).
    for shared, by in group_runs(runs, "policy"):
        if shared["shape"] == "descending" and "random" in by and "fifo" in by:
            yield from below(
                f"p99 makespan, random vs fifo ({config_label(shared)})",
                by["random"]["p99_makespan"], by["fifo"]["p99_makespan"],
            )


@experiment(
    "scale-service",
    title="Scale tier: multi-tenant job service on one shared cluster",
    paper_anchor="Sec. 1, 3.5 (competing jobs as the adaptive environment)",
    grid={
        "jobs": (16, 24),
        "policy": ("fifo", "random", "sjf"),
        "shape": ("descending", "uniform"),
        "p": (8,),
        "stream_seed": (1995,),
        "admission_seed": (1,),
    },
    quick_grid={
        "jobs": (16,),
        "policy": ("fifo", "random", "sjf"),
        "shape": ("descending", "uniform"),
        "p": (8,),
        "stream_seed": (1995,),
        "admission_seed": (1,),
    },
    higher_is_better=("throughput", "jain_fairness"),
    expect=_expect_scale_service,
)
def _exp_scale_service(
    params: Mapping[str, Any], *, seed: int
) -> dict[str, float]:
    return scale_service_measurements(
        int(params["jobs"]),
        str(params["policy"]),
        str(params["shape"]),
        p=int(params["p"]),
        stream_seed=int(params["stream_seed"]),
        admission_seed=int(params["admission_seed"]),
    )
