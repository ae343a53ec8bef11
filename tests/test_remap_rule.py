"""The profitability rule prices the rebuild it charges and forecasts only
the load it has seen persist.

* :class:`RebuildPrice` is the rebuild's own charge, computed before the
  rebuild runs: equal, rank by rank, to what the incremental and the full
  inspector then charge.
* :func:`decide` caps its horizon at ``PERSISTENCE_MULTIPLE`` x the
  load's observed persistence, unless the pattern is quiet.
* The remaps of the quick grids of ``scale-adaptive``, ``scale-elastic``
  and ``table5`` are priced within 1.25x of what their ``remap`` spans
  were charged.  (``ablation_check_frequency``'s quick remap, 800
  vertices on the shared Ethernet, is charged 0.80-0.87x its price
  depending on frame order: its transfer estimate serializes every
  message.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.experiments.runner import run_experiment
from repro.graph import paper_mesh
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.obs import capture_traces, summarize
from repro.partition import HilbertOrdering
from repro.partition.intervals import IntervalPartition, partition_list
from repro.runtime.adaptive import check, decide
from repro.runtime.adaptive.strategy import LOAD_TOLERANCE, PERSISTENCE_MULTIPLE
from repro.runtime.incremental import IncrementalInspector, RebuildPrice
from repro.runtime.monitor import LoadMonitor
from repro.runtime.schedule_builders import InspectorCostModel

#: Within this factor of the charge, either way, a price passes the audit.
PRICE_TOLERANCE = 1.25


@pytest.fixture(scope="module")
def graph():
    mesh = paper_mesh(4000, seed=7)
    return mesh.permute(HilbertOrdering()(mesh))


def _pricer(graph, mode="incremental"):
    return RebuildPrice(
        graph, strategy="sort2", mode=mode, cost_model=InspectorCostModel()
    )


def _decisions(graph, times, persistence, remaining, partition=None, p=4):
    """decide() on every rank of a p-rank uniform cluster."""
    part = partition or partition_list(graph.num_vertices, np.ones(p))
    pricer = _pricer(graph)

    def fn(ctx):
        return decide(
            ctx, part, np.asarray(times), remaining,
            rebuild=pricer,
            persistence=None if persistence is None else np.asarray(persistence),
        )

    return run_spmd(uniform_cluster(p), fn).values


class TestLoadPersistence:
    def test_counts_trailing_samples_within_tolerance_of_the_latest(self):
        m = LoadMonitor()
        for seconds in (3.0, 3.0, 1.0, 1.1, 0.9, 1.0):
            m.record(seconds, 10)
        assert m.persistence(LOAD_TOLERANCE) == 4.0

    def test_survives_a_window_reset(self):
        m = LoadMonitor()
        m.record(2.0, 10)
        m.record(1.0, 10)
        m.reset_window()
        m.record(1.0, 10)
        assert m.persistence(LOAD_TOLERANCE) == 2.0

    def test_a_load_never_seen_to_change_has_no_observed_end(self):
        m = LoadMonitor()
        m.record(0.0, 0)  # an empty block records no time per item
        assert m.persistence(LOAD_TOLERANCE) == float("inf")
        for _ in range(3):
            m.record(1.0, 10)
        assert m.persistence(LOAD_TOLERANCE) == float("inf")


def _charged(inc, result, partition, rank):
    """What *inc*'s last rebuild charged: the patch's recorded cost, or
    the full build's formula at the built schedule's sizes."""
    if inc.last_mode == "patched":
        return inc.last_patch_cost
    lo, hi = partition.interval(rank)
    if hi == lo:
        return 0.0
    return InspectorCostModel().sorted_build_cost(
        "sort2",
        refs=int(inc.graph.indptr[hi] - inc.graph.indptr[lo]),
        ghosts=result.schedule.ghost_size,
        sends=result.schedule.send_volume,
    )


class TestRebuildPriceIsTheCharge:
    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_every_rank_priced_at_what_its_rebuild_charges(self, graph, mode):
        p = 8
        rng = np.random.default_rng(3)
        n = graph.num_vertices
        part = partition_list(n, np.ones(p))
        incs = [
            IncrementalInspector(graph, part, r, strategy="sort2")
            for r in range(p)
        ]
        pricer = _pricer(graph, mode)
        for _ in range(4):
            new = partition_list(n, rng.uniform(0.3, 1.0, p))
            price = pricer.seconds(part, new)
            for r, inc in enumerate(incs):
                result = inc.rebuild(new, force="full" if mode == "full" else None)
                charged = _charged(inc, result, new, r)
                assert price[r] == pytest.approx(charged, rel=1e-12), (r, mode)
            part = new

    def test_disjoint_moves_and_an_emptied_block(self, graph):
        n = graph.num_vertices
        third = n // 3
        old = IntervalPartition(
            np.array([0, third, 2 * third, n]), np.array([0, 1, 2])
        )
        # Every rank's new block misses its old one; rank 1's is empty.
        new = IntervalPartition(np.array([0, n // 2, n, n]), np.array([2, 0, 1]))
        price = _pricer(graph).seconds(old, new)
        for r in range(3):
            inc = IncrementalInspector(graph, old, r, strategy="sort2")
            result = inc.rebuild(new)
            assert inc.last_mode == "full"
            assert price[r] == pytest.approx(_charged(inc, result, new, r))
        assert price[1] == 0.0


class TestHorizon:
    def test_a_load_held_for_a_whole_window_remaps(self, graph):
        [d, *_] = _decisions(graph, [3e-5, 1e-5, 1e-5, 1e-5], [5, 5, 5, 5], 50)
        gain = d.predicted_current - d.predicted_balanced
        assert PERSISTENCE_MULTIPLE * 5 * gain > d.remap_cost
        assert d.remap

    def test_a_load_seen_once_is_not_forecast_past_two_iterations(self, graph):
        times = [2e-5, 1e-5, 1e-5, 1e-5]
        [full, *_] = _decisions(graph, times, None, 50)
        gain = full.predicted_current - full.predicted_balanced
        # Two iterations of saving do not repay the price; fifty would.
        assert PERSISTENCE_MULTIPLE * 1 * gain < full.remap_cost < 50 * gain
        assert full.remap
        [once, *_] = _decisions(graph, times, [1, 5, 5, 5], 50)
        assert not once.remap
        assert once.remap_cost == full.remap_cost

    def test_a_quiet_pattern_keeps_the_whole_horizon(self, graph):
        # Equal loads on a split a departed load left lopsided: the remap
        # back must not be stranded by the just-changed load's short
        # persistence.
        n = graph.num_vertices
        lopsided = partition_list(n, np.array([0.4, 1.0, 1.0, 1.0]))
        times = [1e-4, 1e-4, 1.2e-4, 1e-4]  # within LOAD_TOLERANCE
        [d, *_] = _decisions(graph, times, [1, 1, 1, 1], 50, lopsided)
        assert d.remap

    def test_every_decision_field_is_a_python_float(self, graph):
        [d, *_] = _decisions(graph, [3e-5, 1e-5, 1e-5, 1e-5], [5, 5, 5, 5], 50)
        for value in (d.predicted_current, d.predicted_balanced, d.remap_cost):
            assert type(value) is float

    def test_centralized_and_distributed_checks_agree(self, graph):
        part = partition_list(graph.num_vertices, np.ones(4))
        reports = [(3e-5, 2.0), (1e-5, 9.0), (1.1e-5, 4.0), (1e-5, 9.0)]
        pricer = _pricer(graph)

        def fn(ctx):
            return [
                check(ctx, style, part, reports[ctx.rank], 30, rebuild=pricer)
                for style in ("centralized", "distributed")
            ]

        decisions = [d for pair in run_spmd(uniform_cluster(4), fn).values for d in pair]
        first = decisions[0]
        for d in decisions[1:]:
            assert (d.remap, d.remap_cost, d.predicted_current) == (
                first.remap, first.remap_cost, first.predicted_current
            )
            assert np.array_equal(d.new_partition.bounds, first.new_partition.bounds)
            assert np.array_equal(d.new_partition.owners, first.new_partition.owners)

    def test_a_report_is_two_numbers(self, graph):
        part = partition_list(graph.num_vertices, np.ones(2))

        def fn(ctx):
            check(ctx, "distributed", part, 1e-4, 10)

        with pytest.raises(RankFailedError, match="time per item, persistence"):
            run_spmd(uniform_cluster(2), fn)


def _audited_remaps(traces):
    return [remap for _, trace in traces for remap in summarize(trace).remaps]


@pytest.mark.parametrize("name", ["scale-adaptive", "scale-elastic", "table5"])
def test_quick_grid_remaps_are_priced_at_their_charge(name):
    with capture_traces() as window:
        artifact, _ = run_experiment(name, quick=True, results_dir=None)
    remaps = _audited_remaps(window.traces)
    assert artifact["violations"] == []
    assert len(remaps) == sum(r["metrics"]["num_remaps"] for r in artifact["runs"])
    assert remaps  # the audit sees remaps: the grids still rebalance
    for price, charge in remaps:
        assert price is not None
        assert 1 / PRICE_TOLERANCE <= charge / price <= PRICE_TOLERANCE
