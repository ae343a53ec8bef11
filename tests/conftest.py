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
    from repro.runtime.program import ProgramConfig, ProgramReport

    recorded = dict(
        num_remaps=2, membership_events=1, num_checkpoints=3, num_rollbacks=1,
        checkpoint_time=0.1, rollback_time=0.2, lost_time=0.3,
        lb_check_time=0.4, remap_time=0.5,
    )

    def make() -> ProgramReport:
        return ProgramReport(
            values=np.arange(10.0), makespan=2.0, clocks=[1.5, 2.0],
            metrics_by_rank=[_rank_snapshot(**recorded) for _ in range(2)],
            cluster=uniform_cluster(2), config=ProgramConfig(),
            work_per_iteration=1.0,
        )

    return make


@pytest.fixture
def rank_snapshot():
    """``rank_snapshot(**values)``: a rank's registry snapshot holding
    *values*, each recorded once under its ``LEDGER`` name."""
    return _rank_snapshot


def _rank_snapshot(**values) -> dict:
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.adaptive.session import LEDGER

    registry = MetricsRegistry()
    for name, value in values.items():
        entry, error = LEDGER[name]
        if error is None:
            registry.observe(entry, value)
        else:
            registry.count(entry, value)
    return registry.snapshot()


@pytest.fixture
def nudge_report():
    """``nudge(report, field)`` moves exactly one compared *field* of a
    stub report by one notch: ``values``, ``clocks`` (one rank's), a
    virtual time (the slowest rank's) or a collective counter (on every
    rank, so it still agrees)."""
    return _nudge_report


def _nudge_report(report, field: str) -> None:
    from repro.runtime.adaptive.session import LEDGER

    if field == "values":
        report.values[3] = np.nextafter(report.values[3], np.inf)
    elif field == "clocks":
        report.clocks[0] += 1e-9
    elif field == "makespan":
        report.makespan += 1e-9
    else:
        entry, error = LEDGER[field]
        if error is not None:
            for snapshot in report.metrics_by_rank:
                counters = snapshot["counters"]
                counters[entry] = counters.get(entry, 0) + 1
        else:
            histograms = report.metrics_by_rank[1]["histograms"]
            histograms.setdefault(entry, {"total": 0.0})["total"] += 1e-9
