"""The traced repetition: ``run_program`` re-enacted through public calls.

Outside-in tracing: the program is not edited.  :func:`traced_program`
performs the steps ``run_program`` performs — ``ordering(graph)``,
``graph.permute``, ``partition_list``, ``run_spmd`` — and
:func:`bench_rank_body` mirrors its rank body call for call, each call
into a layer under a span.  Rank spans travel back with the rank's result,
so the same body serves the sim world (threads) and the real world
(processes).  The worker compares the traced outputs with an untraced
``run_program`` of the same inputs and prints the verdict as
``trace_faithful``: if ``run_program`` changes and this mirror does not
follow, that line turns false — the end-to-end metrics never depend on it.

It covers what the four workloads use: no elastic membership, barrier
after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.obs.metrics import merge_snapshots
from repro.partition import RCBOrdering, partition_list
from repro.runtime import AdaptiveSession, ExecutorScratch, gather
from repro.serve import admission_order

from bench.metrics import VIRTUAL, accumulate, program_counts
from bench.spans import SpanRecorder

__all__ = ["TracedRun", "traced_program", "bench_rank_body", "replay_jobs"]


@dataclass
class TracedRun:
    values: np.ndarray
    makespan: float
    metrics: dict[str, Any]
    virtual: dict[str, float]  # VIRTUAL name -> max over ranks


def bench_rank_body(ctx, gperm, y_init, caps, config) -> dict[str, Any]:
    """``repro.runtime.program._rank_body``, every layer call under a span."""
    rec = SpanRecorder(rank=ctx.rank)
    n = gperm.num_vertices
    compute_time = 0.0
    with rec.span("rank"):
        with rec.span("inspector.build"):
            session = AdaptiveSession(
                ctx,
                gperm,
                partition_list(n, caps),
                total_iterations=config.iterations,
                lb=config.load_balance,
                schedule_strategy=config.strategy,
                inspector_cost=config.inspector_cost,
                backend=config.backend,
                checkpoint=config.checkpoint,
                inspector_mode=config.inspector_mode,
            )
        lo, hi = session.interval()
        local = y_init[lo:hi].copy()
        scratch = ExecutorScratch()
        with rec.span("adaptive.rebalance"):  # epoch 0 of the checkpoints
            (local,) = session.bootstrap_resilience((local,))
        it = 0
        while it < config.iterations:
            with rec.span("executor.gather"):
                ghost = gather(
                    ctx, session.schedule, local,
                    cost_model=config.executor_cost,
                    backend=config.backend, scratch=scratch,
                )
            with rec.span("executor.sweep"):
                t0 = ctx.clock
                local = session.kernel_plan.sweep(local, ghost)
                ctx.compute(
                    config.kernel_cost.sweep_seconds(
                        session.kernel_plan.n_references, local.size
                    ),
                    label="kernel",
                )
                compute_time += ctx.clock - t0
            session.record(ctx.clock - t0, int(local.size))
            with rec.span("net.barrier_wait"):
                ctx.barrier()
            with rec.span("adaptive.rebalance"):
                (local,) = session.maybe_rebalance(it, (local,))
            it = session.next_iteration(it)
        with rec.span("program.assemble"):
            lo, hi = session.interval()
            pieces = ctx.gather((lo, local), root=0)
            full = None
            if ctx.rank == 0:
                full = np.empty(n, dtype=np.float64)
                for piece_lo, data in pieces:
                    full[piece_lo : piece_lo + data.size] = data
    stats = session.stats
    return {
        "full": full,
        "virtual": {
            "inspector_time": stats.inspector_time,
            "compute_time": compute_time,
            "lb_check_time": stats.lb_check_time,
            "remap_time": stats.remap_time,
            "checkpoint_time": stats.checkpoint_time,
        },
        "metrics": ctx.metrics.snapshot(),
        "spans": rec.spans,
    }


def traced_program(rec: SpanRecorder, graph, cluster, config, y0) -> TracedRun:
    """``run_program(graph, cluster, config, y0)`` with driver spans."""
    n = graph.num_vertices
    ordering = config.ordering if config.ordering is not None else RCBOrdering()
    with rec.span("partition.order"):
        perm = ordering(graph)
    with rec.span("graph.permute"):
        gperm = graph.permute(perm)
        y_init = np.empty(n, dtype=np.float64)
        y_init[perm] = y0
    caps = (
        np.ones(cluster.size)
        if config.initial_capabilities == "equal"
        else cluster.speeds
    )
    spmd = "procs.launch" if config.world == "real" else "net.spmd_launch"
    with rec.span(spmd) as launch:
        result = run_spmd(
            cluster, bench_rank_body, gperm, y_init, caps, config,
            world=config.world, recv_timeout=config.recv_timeout,
        )
    for value in result.values:
        rec.adopt(value["spans"], launch)
    with rec.span("program.assemble"):
        values = result.values[0]["full"][perm]
        metrics = merge_snapshots([v["metrics"] for v in result.values])
    virtual = {
        name: max(v["virtual"][field] for v in result.values)
        for name, field in VIRTUAL.items()
    }
    return TracedRun(values, result.makespan, metrics, virtual)


@dataclass
class Replay:
    checksums: dict[str, float]
    makespans: dict[str, float]
    counts: dict[str, float]
    virtual: dict[str, float]
    build_s: float = 0.0  # sum of the jobs' graph + y0 builds
    order_s: float = 0.0  # sum of the jobs' orderings
    program_s: float = 0.0  # sum of the jobs' whole traced programs


def replay_jobs(rec: SpanRecorder, queue, policy: dict[str, Any]) -> Replay:
    """Every job of *queue* standalone, in the session's admission order
    (so the service's mesh cache sees the same key sequence), one ``rep``
    per job: the build under ``serve.job_build``, the program under ``op``."""
    replay = Replay({}, {}, {}, {})
    first = len(rec.spans)
    jobs = admission_order(queue.jobs, policy["policy"], seed=policy["seed"])
    for rep, job in enumerate(jobs, start=1):
        rec.rep = rep
        with rec.span("serve.job_build") as build:
            graph = job.build_graph()
            y0 = job.build_y0(graph)
        with rec.span("op") as op:
            run = traced_program(
                rec, graph, uniform_cluster(job.ranks), job.build_config(), y0
            )
        replay.build_s += rec.spans[build].duration
        replay.program_s += rec.spans[op].duration
        replay.checksums[job.job_id] = float(run.values.sum())
        replay.makespans[job.job_id] = run.makespan
        accumulate(replay.counts, program_counts(run.metrics))
        accumulate(replay.virtual, run.virtual)
    rec.rep = 0
    replay.order_s = sum(
        s.duration for s in rec.spans[first:] if s.name == "partition.order"
    )
    return replay
