#!/usr/bin/env python
"""Adaptive applications (paper footnote 1): the computational structure
itself adapts — here, a refinement hotspot sweeping across the mesh.

Without repartitioning, whichever processor currently holds the hotspot
becomes the bottleneck.  With weighted interval repartitioning, every
adaptation triggers phase B again (weighted split, redistribution,
inspector rebuild) and the load stays balanced.

Run:  python examples/adaptive_application.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import MovingHotspot, run_adaptive_application
from repro.graph import paper_mesh
from repro.net import sun4_cluster
from repro.runtime import ProgramConfig, run_sequential


def main() -> None:
    graph = paper_mesh(4_000, seed=17)
    cluster = sun4_cluster(4)
    iterations, adapt_interval = 60, 10
    hotspot = MovingHotspot(
        graph, amplitude=14.0, radius_fraction=0.12,
        n_phases=iterations // adapt_interval,
    )
    y0 = np.random.default_rng(4).uniform(0.0, 100.0, graph.num_vertices)
    print(f"workload: {graph}, hotspot sweeping over {hotspot.n_phases} phases")

    # The application is one run_program call: world, tracing and
    # checkpoints come in through its ProgramConfig.
    config = ProgramConfig(iterations=iterations)
    kw = dict(adapt_interval=adapt_interval, hotspot=hotspot, y0=y0)
    static = run_adaptive_application(
        graph, cluster, config, repartition=False, **kw
    )
    print(f"static partition:      {static.makespan:8.3f} virtual s")

    adaptive = run_adaptive_application(
        graph, cluster, config, repartition=True, **kw
    )
    print(f"weighted repartition:  {adaptive.makespan:8.3f} virtual s")
    print(f"  repartitions:        {adaptive.num_remaps}")
    print(f"  repartition cost:    {adaptive.remap_time:8.4f} s")
    print(f"  speedup:             {static.makespan / adaptive.makespan:.2f}x")

    oracle = run_sequential(graph, y0, iterations)
    assert np.abs(static.values - oracle).max() < 1e-9
    assert np.abs(adaptive.values - oracle).max() < 1e-9
    print("both runs match the sequential oracle exactly")


if __name__ == "__main__":
    main()
