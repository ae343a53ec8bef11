"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import grid_graph, paper_mesh, perturbed_grid_mesh
from repro.net.cluster import heterogeneous_cluster, uniform_cluster


@pytest.fixture(scope="session")
def small_grid() -> CSRGraph:
    """An 8x8 grid graph (64 vertices, 112 edges) with coordinates."""
    return grid_graph(8, 8)


@pytest.fixture(scope="session")
def small_mesh_graph() -> CSRGraph:
    """An unstructured Delaunay mesh graph, ~400 vertices."""
    return perturbed_grid_mesh(20, 20, seed=42).graph


@pytest.fixture(scope="session")
def tiny_paper_mesh() -> CSRGraph:
    """A reduced paper_mesh (500 vertices at Fig. 9's edge ratio)."""
    return paper_mesh(500, seed=7)


@pytest.fixture
def cluster3():
    """Three equal dedicated workstations, deterministic network."""
    return uniform_cluster(3)


@pytest.fixture
def hetero4():
    """Four workstations with distinct speeds, deterministic network."""
    return heterogeneous_cluster([1.0, 0.8, 0.6, 0.4])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def stub_report():
    """Factory for a hand-built two-rank ``ProgramReport`` (nothing runs):
    the differential rule and the oracle are tested on reports whose every
    field the test controls."""
    from repro.runtime.program import ProgramConfig, ProgramReport, RankStats

    def make() -> ProgramReport:
        stats = [
            RankStats(
                rank=rank, n_local_final=5,
                num_remaps=2, membership_events=1,
                num_checkpoints=3, num_rollbacks=1,
                checkpoint_time=0.1, rollback_time=0.2, lost_time=0.3,
                lb_check_time=0.4, remap_time=0.5,
            )
            for rank in range(2)
        ]
        return ProgramReport(
            values=np.arange(10.0), makespan=2.0, clocks=[1.5, 2.0],
            rank_stats=stats, cluster=uniform_cluster(2),
            config=ProgramConfig(), work_per_iteration=1.0,
        )

    return make


@pytest.fixture
def nudge_report():
    """``nudge(report, field)`` moves exactly one compared *field* of a
    stub report by one notch: ``values``, ``clocks`` (one rank's), a
    virtual time (the slowest rank's) or a collective counter (on every
    rank, so it still agrees)."""
    return _nudge_report


def _nudge_report(report, field: str) -> None:
    from repro.runtime.program import COLLECTIVE_COUNTERS

    if field == "values":
        report.values[3] = np.nextafter(report.values[3], np.inf)
    elif field == "clocks":
        report.clocks[0] += 1e-9
    elif field == "makespan":
        report.makespan += 1e-9
    elif field in COLLECTIVE_COUNTERS:
        for stats in report.rank_stats:
            setattr(stats, field, getattr(stats, field) + 1)
    else:
        stats = report.rank_stats[1]
        setattr(stats, field, getattr(stats, field) + 1e-9)
