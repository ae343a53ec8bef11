"""Memoised workloads shared by the catalog's experiment families.

Several configurations of one experiment (and several experiments) run on
the same mesh, so each builder caches its last few results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["mesh_workload", "rcb_ordered_mesh", "scale_workload", "huge_workload"]


@lru_cache(maxsize=4)
def mesh_workload(n_vertices: int, seed: int):
    """(graph, y0) for the Fig. 9-like mesh at the requested scale."""
    from repro.graph.generators import paper_mesh

    graph = paper_mesh(n_vertices, seed=seed)
    y0 = np.random.default_rng(seed).uniform(0.0, 100.0, graph.num_vertices)
    return graph, y0


@lru_cache(maxsize=4)
def rcb_ordered_mesh(n_vertices: int, seed: int):
    """The Table 3 input: the paper mesh pre-permuted by RCB indexing."""
    from repro.partition.rcb import RCBOrdering

    graph, _ = mesh_workload(n_vertices, seed)
    return graph.permute(RCBOrdering()(graph))


@lru_cache(maxsize=2)
def scale_workload(tier: str, family: str, seed: int):
    """(graph, y0) for one scale-tier mesh, shared across backend configs.

    The mesh arrives already phase-A ordered — grids are naturally
    row-major, geometric meshes get one (cached) Hilbert indexing — so the
    benchmark times phases B/C on the pipeline's actual input, never on an
    artificially shuffled layout the paper's runtime would never see.
    """
    from repro.graph.generators import scale_mesh

    graph = scale_mesh(tier, family=family, seed=seed)
    if family == "geometric":
        from repro.partition.sfc import HilbertOrdering

        graph = graph.permute(HilbertOrdering()(graph))
    y0 = np.random.default_rng(seed).uniform(0.0, 100.0, graph.num_vertices)
    return graph, y0


@lru_cache(maxsize=1)
def huge_workload(tier: str, workload_seed: int):
    """(graph, y0) for one huge-tier grid mesh.

    Cached separately from :func:`scale_workload` with ``maxsize=1``:
    a 10M-vertex CSR is hundreds of MB, so at most one huge mesh lives
    at a time (put ``tier`` first in the grid so the cache actually
    hits across the p/backend axes).
    """
    import warnings

    from repro.graph.generators import scale_mesh

    with warnings.catch_warnings():
        # The 10m tier is not a perfect square; the near-target grid is
        # fine for a relative full-vs-incremental comparison.
        warnings.simplefilter("ignore", RuntimeWarning)
        graph = scale_mesh(tier, family="grid", seed=workload_seed)
    y0 = np.random.default_rng(workload_seed).uniform(
        0.0, 100.0, graph.num_vertices
    )
    return graph, y0
