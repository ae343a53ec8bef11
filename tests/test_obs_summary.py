"""The trace analyzer (:func:`repro.obs.summarize`).

Covers the per-rank budget, traffic by tag, the ASCII timeline, the
empty-trace diagnostic, and parity with the per-rank analyzer it
replaced, which took each rank's final clock as a separate argument: on
the Table-5 runs of ``examples/trace_timeline.py`` and on a run with a
standby joiner, rank ends read from the trace reproduce that analyzer's
budget, traffic and timeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph import paper_mesh
from repro.net.cluster import (
    adaptive_cluster,
    heterogeneous_cluster,
    uniform_cluster,
)
from repro.net.loadmodel import MembershipEvent, MembershipTrace
from repro.net.message import Tags
from repro.net.spmd import run_spmd
from repro.net.trace import TraceEvent, TraceLog
from repro.obs import summarize, timeline
from repro.runtime import LoadBalanceConfig, ProgramConfig, run_program


def traced_run(cluster):
    def fn(ctx):
        ctx.compute(1.0)
        if ctx.rank == 0:
            ctx.send(1, np.zeros(1000), Tags.USER_BASE)
        elif ctx.rank == 1:
            ctx.recv(0, Tags.USER_BASE)
        ctx.barrier()

    return run_spmd(cluster, fn, trace=True)


def _joined_run():
    """Four ranks; rank 3 is on standby and joins at t = 0.01."""
    graph = paper_mesh(400, seed=5)
    y0 = np.linspace(0.0, 1.0, graph.num_vertices)
    trace = MembershipTrace(
        4, [MembershipEvent(0.01, "join", 3)], initially_inactive=[3]
    )
    config = ProgramConfig(
        iterations=16,
        membership=trace,
        load_balance="centralized",
        initial_capabilities="equal",
        trace=True,
    )
    return run_program(graph, uniform_cluster(4), config, y0=y0)


class TestBudget:
    def test_totals_are_the_rank_clocks(self):
        res = traced_run(uniform_cluster(3))
        s = summarize(res.trace)
        assert s.ranks == [0, 1, 2]
        for r in s.ranks:
            b = s.budget(r)
            assert b["total"] == res.clocks[r]
            assert b["compute"] + b["comm"] + b["barrier"] <= b["total"] + 1e-9
            assert 0.0 <= b["util"] <= 1.0
        assert s.makespan == res.makespan

    def test_compute_time_attributed(self):
        res = traced_run(uniform_cluster(2))
        s = summarize(res.trace)
        for r in s.ranks:
            assert s.budget(r)["compute"] == pytest.approx(1.0)

    def test_slow_rank_lower_utilization_for_fast_peer(self):
        res = run_spmd(
            heterogeneous_cluster([1.0, 0.25]),
            lambda ctx: (ctx.compute(1.0), ctx.barrier()),
            trace=True,
        )
        s = summarize(res.trace)
        # The fast rank waits at the barrier -> lower compute fraction.
        assert s.budget(0)["util"] < s.budget(1)["util"]

    def test_traffic_by_tag(self):
        s = summarize(traced_run(uniform_cluster(2)).trace)
        assert s.messages_by_tag.get(Tags.USER_BASE) == 1
        assert s.bytes_by_tag[Tags.USER_BASE] > 1000

    def test_to_text_renders(self):
        text = summarize(traced_run(uniform_cluster(2)).trace).to_text()
        assert "Per-rank phase breakdown" in text
        assert "Per-rank time budget" in text
        assert "Traffic by message tag" in text

    def test_disabled_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="trace=True"):
            summarize(TraceLog(enabled=False))

    def test_empty_run_ok(self):
        s = summarize(TraceLog())
        assert s.makespan == 0.0
        assert "Per-rank time budget" not in s.to_text()

    def test_service_track_has_phase_rows_but_no_budget(self):
        log = TraceLog()
        log.record(TraceEvent("compute", 0, 0.0, 1.0))
        log.record(TraceEvent("job", -1, 0.0, 5.0))
        s = summarize(log)
        assert s.ranks == [0]
        assert s.makespan == 1.0
        assert "service" in s.to_text()

    def test_serve_machines_have_phase_rows_but_no_budget(self):
        """A ``repro serve`` trace: machines record only ``job`` spans."""
        from repro.serve import ServiceSession, generate_stream

        report = ServiceSession(
            uniform_cluster(3),
            generate_stream("mixed", 4, max_ranks=3, seed=1995),
            max_tenants=2,
            trace=True,
        ).run()
        s = summarize(report.trace)
        assert s.ranks and all(k == "job" for (r, k) in s.phases if r >= 0)
        assert s.budget_ranks == []
        text = s.to_text()
        assert "job" in text and "Per-rank time budget" not in text

    def test_budget_row_only_for_budget_kinds(self):
        log = TraceLog()
        log.record(TraceEvent("compute", 0, 0.0, 1.0))
        log.record(TraceEvent("job", 1, 0.0, 5.0))
        log.record(TraceEvent("program", 2, 0.0, 2.0))
        s = summarize(log)
        assert s.ranks == [0, 1, 2]
        assert s.budget_ranks == [0, 2]

    def test_joiner_traffic_kept(self):
        report = _joined_run()
        assert any(ev.rank == 3 for ev in report.trace)  # the join happened
        s = summarize(report.trace)
        assert s.ranks == [0, 1, 2, 3]
        assert s.budget(3)["compute"] > 0.0  # the joiner's work is accounted


class TestRemapAudit:
    def _log(self, *events):
        log = TraceLog(enabled=True)
        for ev in events:
            log.record(ev)
        return log

    def test_one_row_per_remap_with_the_longest_span_as_charge(self):
        log = self._log(
            TraceEvent("remap", 0, 1.0, 1.5, label="price=0.4", span_id=1),
            TraceEvent("remap", 1, 1.1, 1.5, label="price=0.4", span_id=2),
            TraceEvent("remap", 0, 3.0, 3.2, label="", span_id=3),
            TraceEvent("remap", 1, 3.0, 3.2, label="", span_id=4),
        )
        s = summarize(log)
        assert s.remaps == [(0.4, 0.5), (None, pytest.approx(0.2))]
        text = s.to_text()
        assert "Remaps: price against charge" in text

    def test_a_decided_remap_carries_its_price(self):
        graph = paper_mesh(600, seed=2)
        report = run_program(
            graph,
            adaptive_cluster(3, competing_load=2.0, ethernet=False),
            ProgramConfig(
                iterations=12, load_balance=LoadBalanceConfig(check_interval=4),
                initial_capabilities="equal", trace=True,
            ),
        )
        remaps = summarize(report.trace).remaps
        assert len(remaps) == report.num_remaps >= 1
        for price, charge in remaps:
            assert price is not None and 0 < price
            assert 1 / 1.25 <= charge / price <= 1.25


class TestTimeline:
    def test_basic_shape(self):
        res = traced_run(uniform_cluster(3))
        art = timeline(res.trace)
        lines = art.splitlines()
        assert len(lines) == 4  # 3 ranks + axis
        assert all(line.startswith("rank") for line in lines[:3])
        assert "#" in art  # compute buckets visible

    def test_unbalanced_run_shows_gap(self):
        res = run_spmd(
            heterogeneous_cluster([1.0, 0.25]),
            lambda ctx: ctx.compute(1.0),
            trace=True,
        )
        art = timeline(res.trace)
        fast, slow = art.splitlines()[:2]
        # The fast rank's row ends early (trailing spaces inside the frame).
        assert fast.rstrip("|").rstrip().count("#") < slow.count("#")

    def test_empty_timeline(self):
        log = TraceLog()
        assert timeline(log) == "(empty timeline)"

    def test_synthetic_comm_glyphs(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 0.5, nbytes=10))
        log.record(TraceEvent("compute", 0, 0.5, 1.0))
        row = timeline(log).splitlines()[0]
        assert "~" in row and "#" in row


def _final_clock_analyzer(trace, clocks, width):
    """The replaced analyzer, frozen as the parity oracle: per-rank sums
    over the final clocks passed beside the trace, and its timeline."""
    n = len(clocks)
    compute, comm, barrier = [0.0] * n, [0.0] * n, [0.0] * n
    messages, nbytes = {}, {}
    for ev in trace:
        span = ev.t_end - ev.t_start
        if ev.kind == "compute":
            compute[ev.rank] += span
        elif ev.kind in ("send", "recv", "multicast"):
            comm[ev.rank] += span
        elif ev.kind == "barrier":
            barrier[ev.rank] += span
        if ev.kind in ("send", "multicast"):
            messages[ev.tag] = messages.get(ev.tag, 0) + 1
            nbytes[ev.tag] = nbytes.get(ev.tag, 0) + ev.nbytes
    budgets = [
        {"compute": compute[r], "comm": comm[r], "barrier": barrier[r],
         "total": c, "util": compute[r] / c if c > 0 else 0.0}
        for r, c in enumerate(clocks)
    ]
    makespan = max(clocks)
    dt = makespan / width
    buckets = {"c": np.zeros((n, width)), "m": np.zeros((n, width))}
    for ev in trace:
        if ev.kind == "compute":
            target = buckets["c"]
        elif ev.kind in ("send", "recv", "multicast"):
            target = buckets["m"]
        else:
            continue
        b0 = min(int(ev.t_start / dt), width - 1)
        b1 = min(int(ev.t_end / dt), width - 1)
        for b in range(b0, b1 + 1):
            lo = max(ev.t_start, b * dt)
            hi = min(ev.t_end, (b + 1) * dt)
            target[ev.rank, b] += max(hi - lo, 0.0)
    lines = []
    for r in range(n):
        end_bucket = min(int(clocks[r] / dt), width)
        chars = []
        for b in range(width):
            c, m = buckets["c"][r, b], buckets["m"][r, b]
            if b >= end_bucket:
                chars.append(" ")
            elif c >= m and c > 0.1 * dt:
                chars.append("#")
            elif m > 0.1 * dt:
                chars.append("~")
            else:
                chars.append(".")
        lines.append(f"rank {r:2d} |{''.join(chars)}|")
    lines.append(f"        0{' ' * (width - 10)}{makespan:.3f}s")
    return budgets, messages, nbytes, "\n".join(lines)


def _table5_run(lb):
    """One of the two runs of ``examples/trace_timeline.py``."""
    graph = paper_mesh(3_000, seed=23)
    y0 = np.random.default_rng(6).uniform(0.0, 100.0, graph.num_vertices)
    config = ProgramConfig(
        iterations=40, initial_capabilities="equal", load_balance=lb,
        trace=True,
    )
    cluster = adaptive_cluster(4, competing_load=2.0)
    return run_program(graph, cluster, config, y0=y0)


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _table5_run(None), id="table5-lb-off"),
    pytest.param(lambda: _table5_run(LoadBalanceConfig(check_interval=10)),
                 id="table5-lb-on"),
    pytest.param(_joined_run, id="standby-joiner"),
])
def test_parity_with_final_clock_analyzer(run):
    report = run()
    budgets, messages, nbytes, art = _final_clock_analyzer(
        report.trace, list(report.clocks), 72
    )
    s = summarize(report.trace)
    assert s.ranks == list(range(len(report.clocks)))
    for r, want in enumerate(budgets):
        got = s.budget(r)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert s.messages_by_tag == messages
    assert s.bytes_by_tag == nbytes
    assert timeline(report.trace) == art
