"""The benchmark's workload and metric names, in the order they are printed.

``BENCHMARK.json`` repeats the names (with each workload's why and each
metric's regression bound); ``bench/test_bench_smoke.py`` keeps the two
in step.
"""

from __future__ import annotations

from typing import Any

WORKLOADS = ("static-rcb", "adaptive-sfc", "serve-stream", "real-2rank")

#: What a user of the system sees; every workload reports all four.
END_TO_END = {
    "run_host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virtual_makespan_s": "s",
}

#: Host seconds per layer (self time of the benchmark's own spans).  The
#: first block adds up: together with ``program.unattributed_s`` it is the
#: traced total.
ADDITIVE_LAYERS = (
    "partition.order_s",
    "graph.permute_s",
    "net.spmd_launch_s",
    "procs.launch_s",
    "inspector.build_s",
    "executor.gather_s",
    "executor.sweep_s",
    "net.barrier_wait_s",
    "adaptive.rebalance_s",
    "program.assemble_s",
    "serve.job_build_s",
    "serve.session_overhead_s",
)
HOST_LAYERS = ADDITIVE_LAYERS + (
    "program.unattributed_s",
    "graph.build_s",
    "serve.job_order_s",
    "serve.job_run_s",
    "baseline.sequential_s",
)
OVERHEADS = ("bench.trace_overhead_frac", "obs.trace_overhead_frac")

#: Exact counts: benchmark name -> counter in the program's registry.
COUNTS = {
    "net.messages_sent": "net.messages_sent",
    "net.bytes_sent": "net.bytes_sent",
    "net.barriers": "net.barriers",
    "executor.gathers": "exec.gathers",
    "executor.ghost_elements": "exec.ghost_elements",
    "inspector.full_builds": "inspector.full_builds",
    "inspector.patch_builds": "inspector.patch_builds",
    "adaptive.lb_checks": "lb.checks",
    "adaptive.remaps": "lb.remaps",
    "resilience.checkpoints": "cp.checkpoints",
    "resilience.checkpoint_bytes": "cp.checkpoint_bytes",
    "serve.jobs_admitted": "serve.jobs_admitted",
}

#: Virtual seconds the simulator charged: name -> RankStats field (the
#: maximum over ranks is reported).
VIRTUAL = {
    "virtual.inspector_s": "inspector_time",
    "virtual.compute_s": "compute_time",
    "virtual.lb_check_s": "lb_check_time",
    "virtual.remap_s": "remap_time",
    "virtual.checkpoint_s": "checkpoint_time",
}

PER_LAYER = {
    **{name: "s" for name in HOST_LAYERS},
    **{name: "ratio" for name in OVERHEADS},
    **{name: "count" for name in COUNTS},
    **{name: "s" for name in VIRTUAL},
}


def program_counts(metrics: dict[str, Any] | None) -> dict[str, float]:
    """The exact counts out of a merged registry snapshot."""
    counters = (metrics or {}).get("counters", {})
    return {name: counters.get(key, 0) for name, key in COUNTS.items()}


def program_virtual(rank_stats: list[Any]) -> dict[str, float]:
    """The virtual seconds out of per-rank stats: maximum over ranks."""
    return {
        name: max(getattr(s, field) for s in rank_stats)
        for name, field in VIRTUAL.items()
    }


def accumulate(total: dict[str, float], part: dict[str, float]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value
