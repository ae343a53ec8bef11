#!/usr/bin/env python
"""The Table-5 scenario: a competing load appears on one workstation; the
runtime detects the imbalance, prices a remap, and redistributes.

The experiment follows the paper exactly:
  1. the mesh is decomposed assuming all processors have EQUAL capability;
  2. a constant competing load sits on workstation 1;
  3. without load balancing, the loaded machine drags every iteration;
  4. with a check every 10 iterations, one remap restores balance.

Run:  python examples/adaptive_load_balancing.py
"""

from __future__ import annotations

import numpy as np

from repro.graph import paper_mesh
from repro.net import adaptive_cluster
from repro.runtime import (
    LoadBalanceConfig,
    ProgramConfig,
    run_program,
    run_sequential,
)


def main() -> None:
    graph = paper_mesh(5_000, seed=11)
    cluster = adaptive_cluster(4, competing_load=2.0)
    y0 = np.random.default_rng(1).uniform(0.0, 100.0, graph.num_vertices)
    iterations = 80

    base = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",  # the paper's deliberately bad split
    )
    no_lb = run_program(graph, cluster, base, y0=y0)
    print(f"without load balancing: {no_lb.makespan:8.3f} virtual s")

    with_lb_cfg = ProgramConfig(
        iterations=iterations,
        initial_capabilities="equal",
        load_balance=LoadBalanceConfig(check_interval=10),
    )
    with_lb = run_program(graph, cluster, with_lb_cfg, y0=y0)
    print(f"with load balancing:    {with_lb.makespan:8.3f} virtual s")
    print(f"  remaps performed:     {with_lb.num_remaps}")
    print(f"  check cost (total):   {with_lb.lb_check_time:8.4f} s")
    print(f"  remap cost (total):   {with_lb.remap_time:8.4f} s")
    speedup = no_lb.makespan / with_lb.makespan
    print(f"  improvement:          {speedup:.2f}x")

    # Remapping never changes the numerics — both match the oracle.
    oracle = run_sequential(graph, y0, iterations)
    assert np.abs(no_lb.values - oracle).max() < 1e-9
    assert np.abs(with_lb.values - oracle).max() < 1e-9
    print("both runs match the sequential oracle exactly")

    # How the data ended up split (capability-proportional, not equal).
    part = with_lb.partition_final
    assert part is not None
    print(f"final partition sizes by rank: {part.sizes().tolist()}")


if __name__ == "__main__":
    main()
