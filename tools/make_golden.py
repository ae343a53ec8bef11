#!/usr/bin/env python
"""Regenerate tests/golden/schedule_semantics.json.

Run from the repo root after an *intentional* schedule-semantics change:

    PYTHONPATH=src python tools/make_golden.py

then review the diff — every changed number is a behavior change that
``tests/test_golden_artifacts.py`` would otherwise flag.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden"

STRUCTURAL = (
    "n_vertices",
    "n_edges",
    "ghost_total",
    "send_volume_total",
    "send_messages_total",
)


def build_golden() -> dict:
    """Compute the pinned facts (shared with the regression test)."""
    import numpy as np

    from repro.experiments.catalog import adaptive_run
    from repro.experiments.catalog.workloads import mesh_workload
    from repro.experiments.runner import run_experiment
    from repro.net.cluster import SUN4_SPEEDS, uniform_cluster
    from repro.net.loadmodel import MembershipEvent, MembershipTrace
    from repro.partition.arrangement import minimize_cost_redistribution
    from repro.partition.intervals import partition_list
    from repro.runtime.adaptive import transfer_plan_summary
    from repro.runtime.program import ProgramConfig, run_program

    artifact, _ = run_experiment(
        "scale-epoch", quick=True, overrides={"tier": "10k"}, results_dir=None
    )
    epoch = [
        {
            "params": run["params"],
            "structural": {k: run["metrics"][k] for k in STRUCTURAL},
        }
        for run in artifact["runs"]
    ]

    graph, y0 = mesh_workload(800, 1995)
    report = adaptive_run(graph, y0, 20, 3, lb=True, check_interval=5)
    remap = {
        "num_remaps": int(report.num_remaps),
        "num_checks": int(report.num_checks),
        "final_sizes": [int(s) for s in report.partition_final.sizes()],
    }

    # The packed-exchange transfer plan for the paper's Fig. 5 capability
    # change (Sec. 3.4), under the MCR arrangement: slabs, per-peer packed
    # message count, and each message's wire size for 2 fields + bounds.
    old_caps = [0.27, 0.18, 0.34, 0.07, 0.14]
    new_caps = [0.10, 0.13, 0.29, 0.24, 0.24]
    arrangement = minimize_cost_redistribution(
        list(range(5)), old_caps, new_caps, 100
    )
    plan = transfer_plan_summary(
        partition_list(100, old_caps),
        partition_list(100, new_caps, arrangement),
        num_fields=2,
    )

    # Elastic drain plan: the SUN4 5-pool loses workstation 1, survivors
    # resplit by base speed under the MCR arrangement — the repartition-
    # onto-a-different-sized-active-set transfer pattern of ISSUE 4, with
    # the departing rank's whole block draining out.
    speeds = np.asarray(SUN4_SPEEDS, dtype=np.float64)
    survivors = np.where(
        np.arange(5) == 1, 0.0, speeds
    )
    elastic_arrangement = minimize_cost_redistribution(
        list(range(5)),
        speeds / speeds.sum(),
        survivors / survivors.sum(),
        200,
    )
    elastic_plan = transfer_plan_summary(
        partition_list(200, speeds),
        partition_list(200, survivors, elastic_arrangement),
        num_fields=2,
    )

    # An end-to-end elastic run's decisions (virtual metrics only): one
    # join priced and declined (its rebuild makes it cost more than its
    # three iterations save), one departure drained, on the reduced
    # paper mesh.
    graph, y0 = mesh_workload(800, 1995)
    trace = MembershipTrace(
        4,
        [
            MembershipEvent(0.01, "join", 3),
            MembershipEvent(0.05, "leave", 0),
        ],
        initially_inactive=[3],
    )
    elastic_report = run_program(
        graph,
        uniform_cluster(4),
        ProgramConfig(
            iterations=20,
            membership=trace,
            load_balance="centralized",
            initial_capabilities="equal",
        ),
        y0=y0,
    )
    elastic_run = {
        "num_remaps": int(elastic_report.num_remaps),
        "membership_events": int(elastic_report.membership_events),
        "final_sizes": [
            int(s) for s in elastic_report.partition_final.sizes()
        ],
    }

    # A resilience run: workstation 1 dies *unannounced* at a fixed
    # virtual time; the session rolls back to the last interval:4 epoch,
    # the partner restores the lost block, and the run finishes on the
    # survivors.  Virtual-decision facts only (ISSUE 5).
    fail_trace = MembershipTrace(4, [MembershipEvent(0.04, "fail", 1)])
    resilience_report = run_program(
        graph,
        uniform_cluster(4),
        ProgramConfig(
            iterations=20,
            membership=fail_trace,
            load_balance="centralized",
            initial_capabilities="equal",
            checkpoint="interval:4",
        ),
        y0=y0,
    )
    resilience_run = {
        "num_checkpoints": int(resilience_report.num_checkpoints),
        "num_rollbacks": int(resilience_report.num_rollbacks),
        "membership_events": int(resilience_report.membership_events),
        "num_remaps": int(resilience_report.num_remaps),
        "final_sizes": [
            int(s) for s in resilience_report.partition_final.sizes()
        ],
    }

    return {
        "comment": "Structural schedule facts, remap decisions, and the "
        "packed-exchange transfer plan pinned by "
        "tests/test_golden_artifacts.py; regenerate with "
        "tools/make_golden.py if semantics intentionally change.",
        "scale_epoch_structural": epoch,
        "remap_decisions": remap,
        "transfer_plan": plan,
        "elastic_transfer_plan": elastic_plan,
        "elastic_run": elastic_run,
        "resilience_run": resilience_run,
    }


def build_golden_trace() -> dict:
    """The pinned Chrome trace of one small traced run.

    The export uses the virtual timebase and strips host wall clocks
    (``include_wall=False``), so every byte — span nesting, per-rank
    ``seq`` order, virtual timestamps — is a deterministic function of
    the program and stays stable across machines.
    """
    from repro.experiments.catalog.workloads import mesh_workload
    from repro.net.cluster import uniform_cluster
    from repro.obs import chrome_trace
    from repro.runtime.program import ProgramConfig, run_program

    graph, y0 = mesh_workload(800, 1995)
    report = run_program(
        graph,
        uniform_cluster(3),
        ProgramConfig(iterations=8, checkpoint="interval:3", trace=True),
        y0=y0,
    )
    return chrome_trace(
        report.trace,
        timebase="clock",
        include_wall=False,
        metadata={"fixture": "golden", "command": "tools/make_golden.py"},
    )


def main() -> int:
    golden = build_golden()
    GOLDEN_PATH.mkdir(parents=True, exist_ok=True)
    out = GOLDEN_PATH / "schedule_semantics.json"
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    trace_out = GOLDEN_PATH / "chrome_trace.json"
    trace_out.write_text(
        json.dumps(build_golden_trace(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {trace_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
