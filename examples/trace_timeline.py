#!/usr/bin/env python
"""Trace analytics: where does the virtual time actually go?

Runs the same workload twice on the Table-5 adaptive environment —
without and with load balancing — and renders per-rank utilization
breakdowns plus ASCII timelines.  The staircase of the unbalanced run
(three ranks waiting at every barrier for the loaded one) versus the
dense balanced timeline tells the paper's whole story in two pictures.

Run:  python examples/trace_timeline.py
"""

from __future__ import annotations

import numpy as np

from repro.graph import paper_mesh
from repro.net import adaptive_cluster
from repro.obs import summarize, timeline
from repro.runtime import LoadBalanceConfig, ProgramConfig, run_program


def main() -> None:
    graph = paper_mesh(3_000, seed=23)
    cluster = adaptive_cluster(4, competing_load=2.0)
    y0 = np.random.default_rng(6).uniform(0.0, 100.0, graph.num_vertices)

    for label, lb in (("WITHOUT load balancing", None),
                      ("WITH load balancing", LoadBalanceConfig(check_interval=10))):
        config = ProgramConfig(
            iterations=40,
            initial_capabilities="equal",
            load_balance=lb,
            trace=True,
        )
        report = run_program(graph, cluster, config, y0=y0)
        assert report.trace is not None
        summary = summarize(report.trace)
        print(f"\n=== {label}: {report.makespan:.3f} virtual s")
        print(summary.to_text())
        print()
        print(timeline(report.trace))


if __name__ == "__main__":
    main()
