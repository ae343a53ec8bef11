#!/usr/bin/env python
"""Quickstart: partition an unstructured mesh and run the paper's irregular
loop on a heterogeneous simulated cluster.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.graph import paper_mesh
from repro.net import sun4_cluster
from repro.runtime import (
    ProgramConfig,
    cluster_efficiency,
    run_program,
    run_sequential,
)


def main() -> None:
    # The paper's workload, scaled down: an unstructured 2-D mesh with the
    # Fig. 9 edge/vertex ratio.
    graph = paper_mesh(4_000, seed=7)
    print(f"workload: {graph}")

    # The paper's testbed: heterogeneous SUN4-class workstations on a
    # shared 10 Mbit/s Ethernet.
    cluster = sun4_cluster(4)
    print(f"cluster speeds: {cluster.speeds.tolist()}")

    # Phase A-D in one call: RCB ordering, proportional interval split,
    # sort2 inspector, 50 executor iterations.
    y0 = np.random.default_rng(0).uniform(0.0, 100.0, graph.num_vertices)
    config = ProgramConfig(iterations=50, strategy="sort2")
    report = run_program(graph, cluster, config, y0=y0)

    print(f"virtual parallel time: {report.makespan:.3f} s")
    eff = cluster_efficiency(cluster, report.makespan, report.total_work_seconds)
    print(f"nonuniform efficiency (Sec. 4): {eff:.3f}")

    # The parallel run computes exactly what the sequential loop computes.
    oracle = run_sequential(graph, y0, config.iterations)
    err = np.abs(report.values - oracle).max()
    print(f"max deviation from sequential oracle: {err:.2e}")
    assert err < 1e-9

    # Per-rank breakdown.
    for rank, s in enumerate(report.rank_stats):
        print(
            f"  rank {rank}: {report.partition_final.size(rank):5d} vertices, "
            f"compute {s.compute_time:7.3f}s, inspector {s.inspector_time:6.4f}s"
        )


if __name__ == "__main__":
    main()
