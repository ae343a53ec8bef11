"""A small sim-world run's rank threads share one CPU, and nothing else moves.

``run_program`` pins its own thread to one CPU of its mask for the SPMD
section when the references per rank fall below
``ONE_CPU_BELOW_REFS_PER_RANK``; the rank threads inherit the pin.  These
tests check where the rule applies, that the caller's mask comes back
exactly, and that values, clocks and every aggregate are the same whether
a run is pinned or not.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.graph.generators import paper_mesh
from repro.net.cluster import adaptive_cluster, sun4_cluster, uniform_cluster
from repro.runtime import program
from repro.runtime.adaptive import LoadBalanceConfig
from repro.runtime.program import ProgramConfig, run_program

needs_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and two or more CPUs",
)


@pytest.fixture(scope="module")
def mesh():
    return paper_mesh(300, seed=2)


@pytest.fixture
def rank_masks(monkeypatch):
    """Each rank thread's CPU mask, read as its body starts."""
    masks: dict[int, set[int]] = {}
    body = program._rank_body

    def recording(ctx, *args):
        masks[ctx.rank] = os.sched_getaffinity(0)
        return body(ctx, *args)

    monkeypatch.setattr(program, "_rank_body", recording)
    return masks


@pytest.fixture
def setaffinity_calls(monkeypatch):
    """A four-CPU host whose ``sched_setaffinity`` only records its masks."""
    calls: list[set[int]] = []
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
    )
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, mask: calls.append(set(mask)),
        raising=False,
    )
    return calls


def _small_run(mesh, cluster=None, **config):
    return run_program(
        mesh, cluster or uniform_cluster(3),
        ProgramConfig(iterations=4, **config),
    )


class TestCallerMask:
    @needs_cpus
    def test_a_run_pins_its_ranks_and_restores_the_mask(self, mesh, rank_masks):
        before = os.sched_getaffinity(0)
        _small_run(mesh)
        assert os.sched_getaffinity(0) == before
        assert rank_masks == {rank: {min(before)} for rank in range(3)}

    @needs_cpus
    def test_the_mask_comes_back_when_a_rank_raises(
        self, mesh, rank_masks, monkeypatch
    ):
        before = os.sched_getaffinity(0)
        body = program._rank_body  # the recording wrapper

        def failing(ctx, *args):
            if ctx.rank == 1:
                raise ValueError("rank 1 fails")
            return body(ctx, *args)

        monkeypatch.setattr(program, "_rank_body", failing)
        with pytest.raises(RankFailedError) as ei:
            _small_run(mesh)
        assert isinstance(ei.value.failures[1], ValueError)
        assert os.sched_getaffinity(0) == before
        assert rank_masks[0] == {min(before)}


class TestWhereTheRuleApplies:
    def test_a_small_point_to_point_run_pins_then_restores(
        self, mesh, setaffinity_calls
    ):
        _small_run(mesh, sun4_cluster(3, ethernet=False))
        assert setaffinity_calls == [{0}, {0, 1, 2, 3}]

    def test_shared_ethernet_is_never_pinned(self, mesh, setaffinity_calls):
        _small_run(mesh, sun4_cluster(3, ethernet=True))
        assert setaffinity_calls == []

    @pytest.mark.real
    def test_the_real_world_is_never_pinned(self, mesh, setaffinity_calls):
        _small_run(mesh, uniform_cluster(2), world="real", recv_timeout=20.0)
        assert setaffinity_calls == []

    def test_a_large_run_is_never_pinned(
        self, mesh, setaffinity_calls, monkeypatch
    ):
        refs_per_rank = mesh.indices.size / 3
        monkeypatch.setattr(
            program, "ONE_CPU_BELOW_REFS_PER_RANK", refs_per_rank
        )
        _small_run(mesh)
        assert setaffinity_calls == []

    def test_a_one_cpu_mask_is_left_alone(
        self, mesh, setaffinity_calls, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        _small_run(mesh)
        assert setaffinity_calls == []

    def test_without_sched_setaffinity_the_rule_is_a_no_op(
        self, mesh, monkeypatch
    ):
        pinned = _small_run(mesh)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        unpinned = _small_run(mesh)
        assert np.array_equal(pinned.values, unpinned.values)
        assert pinned.clocks == unpinned.clocks

    @needs_cpus
    def test_without_sched_setaffinity_ranks_keep_the_whole_mask(
        self, mesh, rank_masks, monkeypatch
    ):
        before = os.sched_getaffinity(0)
        monkeypatch.delattr(os, "sched_setaffinity")
        _small_run(mesh)
        assert rank_masks == {rank: before for rank in range(3)}


def test_pinning_moves_no_value_clock_or_aggregate(monkeypatch):
    """LB with remaps, checkpoints and the incremental inspector, on a
    point-to-point cluster, with the pin forced off and forced on."""
    graph = paper_mesh(600, seed=4)
    y0 = np.random.default_rng(4).uniform(0, 100, graph.num_vertices)
    config = ProgramConfig(
        iterations=16,
        initial_capabilities="equal",
        load_balance=LoadBalanceConfig(check_interval=3),
        checkpoint="interval:4",
        inspector_mode="incremental",
    )
    cluster = adaptive_cluster(4, competing_load=2.0, ethernet=False)
    reports = {}
    for constant in (0, 2**62):
        monkeypatch.setattr(program, "ONE_CPU_BELOW_REFS_PER_RANK", constant)
        reports[constant] = run_program(graph, cluster, config, y0=y0)
    off, on = reports[0], reports[2**62]
    assert off.num_remaps > 0 and off.num_checkpoints > 0
    assert np.array_equal(off.values, on.values)
    assert off.makespan == on.makespan
    assert off.clocks == on.clocks
    assert off.virtual_metrics() == on.virtual_metrics()
    assert off.differences(on, virtual=True) == []
