"""The observability layer (:mod:`repro.obs`).

Covers the span tracer (nesting, determinism, neutrality), the typed
metrics registry and its snapshot-and-merge path, the Chrome trace-event
exporter (structure, round-trip, timebases), the ambient capture window,
stdlib logging configuration, the instrumented runtime counters, the
bulk-vs-scalar receive parity regression, and the `--trace-out` /
`repro trace` CLI surface.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.net.cluster import uniform_cluster
from repro.net.spmd import run_spmd
from repro.net.trace import TraceEvent, TraceLog
from repro.obs import (
    MetricsRegistry,
    Tracer,
    capture_traces,
    chrome_trace,
    load_chrome_trace,
    merge_snapshots,
    summarize,
    write_chrome_trace,
)
from repro.obs.capture import active_capture
from repro.obs.logconf import LEVEL_ENV, configure_logging
from repro.runtime.program import ProgramConfig, run_program
from repro.serve import JobQueue, JobSpec, ServiceSession


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #


class TestTracer:
    def _tracer(self, enabled=True):
        log = TraceLog(enabled=enabled)
        clock = [0.0]

        def tick():
            clock[0] += 1.0
            return clock[0]

        return log, Tracer(log, rank=0, clock_fn=tick, wall_fn=tick)

    def test_nested_spans_record_parent_links(self):
        log, tracer = self._tracer()
        with tracer.span("program"):
            with tracer.span("epoch", label="e0"):
                with tracer.span("executor"):
                    pass
            with tracer.span("epoch", label="e1"):
                pass
        spans = [e for e in log if e.span_id >= 0]
        by_id = {e.span_id: e for e in spans}
        # Ids are allocated in open order: program=0, e0=1, executor=2.
        assert by_id[0].kind == "program" and by_id[0].parent_id == -1
        assert by_id[1].kind == "epoch" and by_id[1].parent_id == 0
        assert by_id[2].kind == "executor" and by_id[2].parent_id == 1
        assert by_id[3].kind == "epoch" and by_id[3].parent_id == 0
        assert by_id[3].label == "e1"
        # Events are recorded on close: innermost first.
        assert [e.kind for e in spans] == [
            "executor", "epoch", "epoch", "program",
        ]

    def test_span_brackets_the_clock(self):
        log, tracer = self._tracer()
        with tracer.span("inspector"):
            pass
        (ev,) = [e for e in log if e.span_id >= 0]
        assert ev.t_end > ev.t_start
        assert ev.wall_end > ev.wall_start >= 0.0

    def test_disabled_tracer_records_nothing(self):
        log, tracer = self._tracer(enabled=False)
        assert not tracer.enabled
        with tracer.span("program"):
            pass
        assert len(log) == 0
        assert tracer.current_span == -1

    def test_disabled_span_is_one_shared_no_op(self):
        """Tracing off, a span is the same null context every time: no
        generator, no event object."""
        _, tracer = self._tracer(enabled=False)
        assert tracer.span("program") is tracer.span("epoch", label="e0")

    def test_current_span_tracks_the_stack(self):
        _, tracer = self._tracer()
        assert tracer.current_span == -1
        with tracer.span("program"):
            assert tracer.current_span == 0
            with tracer.span("epoch"):
                assert tracer.current_span == 1
            assert tracer.current_span == 0
        assert tracer.current_span == -1

    def test_span_closes_on_exception(self):
        log, tracer = self._tracer()
        with pytest.raises(ValueError):
            with tracer.span("program"):
                raise ValueError("boom")
        assert tracer.current_span == -1
        assert [e for e in log if e.span_id >= 0 and e.kind == "program"]


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.count("msgs")
        m.count("msgs", 4)
        m.count("bytes", 100)
        snap = m.snapshot()
        assert snap["counters"] == {"msgs": 5, "bytes": 100}

    def test_gauge_is_high_water_mark(self):
        m = MetricsRegistry()
        m.gauge_max("depth", 3)
        m.gauge_max("depth", 1)
        m.gauge_max("depth", 7)
        assert m.snapshot()["gauges"] == {"depth": 7}

    def test_histogram_folds_observations(self):
        m = MetricsRegistry()
        for v in (2.0, 8.0, 5.0):
            m.observe("wait", v)
        h = m.snapshot()["histograms"]["wait"]
        assert h == {"count": 3, "total": 15.0, "min": 2.0, "max": 8.0}

    def test_snapshot_is_a_deep_copy(self):
        m = MetricsRegistry()
        m.count("c")
        m.observe("h", 1.0)
        snap = m.snapshot()
        m.count("c")
        m.observe("h", 9.0)
        assert snap["counters"]["c"] == 1
        assert snap["histograms"]["h"]["count"] == 1

    def test_snapshot_is_json_able(self):
        m = MetricsRegistry()
        m.count("c", 2)
        m.gauge_max("g", 1.5)
        m.observe("h", 0.25)
        assert json.loads(json.dumps(m.snapshot())) == m.snapshot()

    def test_merge_rules_per_type(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.count("msgs", 3)
        b.count("msgs", 4)
        a.gauge_max("depth", 2)
        b.gauge_max("depth", 9)
        a.observe("wait", 1.0)
        b.observe("wait", 5.0)
        b.observe("wait", 0.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {"msgs": 7}
        assert merged["gauges"] == {"depth": 9}
        assert merged["histograms"]["wait"] == {
            "count": 3, "total": 6.5, "min": 0.5, "max": 5.0,
        }

    def test_merge_skips_missing_ranks(self):
        a = MetricsRegistry()
        a.count("c")
        merged = merge_snapshots([None, a.snapshot(), None])
        assert merged["counters"] == {"c": 1}

    def test_merge_is_order_independent(self):
        snaps = []
        for i in range(4):
            m = MetricsRegistry()
            m.count("c", i + 1)
            m.gauge_max("g", float(10 - i))
            m.observe("h", float(i))
            snaps.append(m.snapshot())
        assert merge_snapshots(snaps) == merge_snapshots(snaps[::-1])


# --------------------------------------------------------------------- #
# Chrome trace export
# --------------------------------------------------------------------- #


def _sample_log() -> TraceLog:
    log = TraceLog(enabled=True)
    log.record(TraceEvent("program", 0, 0.0, 4.0, span_id=0,
                          wall_start=10.0, wall_end=14.0))
    log.record(TraceEvent("send", 0, 1.0, 1.5, nbytes=64, peer=1, tag=7))
    log.record(TraceEvent("recv", 1, 1.0, 2.0, nbytes=64, peer=0, tag=7))
    log.record(TraceEvent("admit", -1, 3.0, 3.0, label="j0", span_id=0))
    return log


class TestChromeExport:
    def test_document_structure(self):
        doc = chrome_trace(_sample_log(), metadata={"command": "test"})
        assert doc["metadata"]["generator"] == "repro.obs"
        assert doc["metadata"]["timebase"] == "clock"
        assert doc["metadata"]["command"] == "test"
        meta = {e["pid"]: e["args"]["name"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta[0] == "rank 0"
        assert meta[1] == "rank 1"
        assert meta[1_000_000] == "service"  # the rank -1 track

    def test_slices_are_microseconds(self):
        doc = chrome_trace(_sample_log())
        send = next(e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["cat"] == "send")
        assert send["ts"] == pytest.approx(1.0e6)
        assert send["dur"] == pytest.approx(0.5e6)
        assert send["args"]["nbytes"] == 64
        assert send["args"]["peer"] == 1

    def test_wall_timebase_keeps_only_spans(self):
        doc = chrome_trace(_sample_log(), timebase="wall")
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        # Only the program span carries a wall interval; the admit span
        # (no wall clock recorded) and the leaf send/recv are dropped.
        assert [e["cat"] for e in slices] == ["program"]
        assert slices[0]["ts"] == pytest.approx(10.0e6)

    def test_include_wall_false_strips_host_clocks(self):
        doc = chrome_trace(_sample_log(), include_wall=False)
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert "wall_start" not in e["args"]
                assert "wall_end" not in e["args"]

    def test_unknown_timebase_rejected(self):
        with pytest.raises(ConfigurationError, match="timebase"):
            chrome_trace(_sample_log(), timebase="cpu")

    def test_write_load_round_trip(self, tmp_path):
        log = _sample_log()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), log)
        back = load_chrome_trace(str(path))
        assert back.events() == sorted(
            log.events(), key=lambda e: (e.rank if e.rank >= 0 else 10**6, e.seq)
        )

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError, match="traceEvents"):
            load_chrome_trace(str(path))
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({
            "traceEvents": [{"ph": "X", "pid": 0, "ts": 0, "dur": 1,
                             "name": "x", "args": {}}],
        }))
        with pytest.raises(ConfigurationError, match="kind"):
            load_chrome_trace(str(foreign))

    def test_summary_phase_rows_and_drop_note(self):
        log = _sample_log()
        table = summarize(log).to_text()
        assert "Per-rank phase breakdown" in table
        assert "send" in table and "program" in table
        assert "service" in table  # the rank -1 row
        assert "dropped" not in table
        capped = TraceLog(enabled=True, capacity=1)
        capped.record(TraceEvent("send", 0, 0.0, 1.0))
        capped.record(TraceEvent("send", 0, 1.0, 2.0))
        assert "dropped 1 event(s)" in summarize(capped).to_text()


# --------------------------------------------------------------------- #
# program-level observability
# --------------------------------------------------------------------- #


def _run(graph, y0, *, trace=False, **kw):
    return run_program(
        graph, uniform_cluster(3),
        ProgramConfig(iterations=8, checkpoint="interval:3", trace=trace, **kw),
        y0=y0,
    )


class TestProgramObservability:
    def test_report_carries_spans_and_metrics(self, tiny_paper_mesh, rng):
        y0 = rng.uniform(0, 100, 500)
        report = _run(tiny_paper_mesh, y0, trace=True)
        kinds = {e.kind for e in report.trace if e.span_id >= 0}
        assert {"program", "epoch", "inspector", "executor",
                "checkpoint"} <= kinds
        # Every rank opened its own program span.
        assert {
            e.rank for e in report.trace
            if e.span_id >= 0 and e.kind == "program"
        } == {0, 1, 2}
        counters = report.metrics["counters"]
        assert counters["net.messages_sent"] > 0
        assert counters["net.messages_recv"] > 0
        assert counters["inspector.full_builds"] == 3  # one per rank
        assert counters["cp.checkpoints"] == report.num_checkpoints * 3
        assert counters["cp.checkpoint_bytes"] > 0
        assert len(report.metrics_by_rank) == 3

    def test_trace_is_deterministic_across_runs(self, tiny_paper_mesh, rng):
        y0 = rng.uniform(0, 100, 500)
        a = _run(tiny_paper_mesh, y0, trace=True)
        b = _run(tiny_paper_mesh, y0, trace=True)

        def shape(report):
            # Everything except the host wall clocks, which legitimately
            # differ run to run.
            return sorted(
                (e.rank, e.seq, e.kind, e.t_start, e.t_end, e.nbytes,
                 e.peer, e.tag, e.label, e.span_id, e.parent_id)
                for e in report.trace.events()
            )

        assert shape(a) == shape(b)

    def test_tracing_is_neutral(self, tiny_paper_mesh, rng):
        """The obs-neutral invariant, asserted directly: tracing changes
        no virtual quantity and no metric counter."""
        y0 = rng.uniform(0, 100, 500)
        plain = _run(tiny_paper_mesh, y0, trace=False)
        traced = _run(tiny_paper_mesh, y0, trace=True)
        assert plain.differences(traced, virtual=True) == []
        assert plain.metrics["counters"] == traced.metrics["counters"]
        assert plain.trace is None or len(plain.trace) == 0

    def test_untraced_run_builds_no_events(self, tiny_paper_mesh, rng, monkeypatch):
        """With tracing off no record site constructs a TraceEvent."""
        import repro.net.comm as comm
        import repro.obs.span as span

        def no_event(*args, **kwargs):
            raise AssertionError("TraceEvent built with tracing off")

        monkeypatch.setattr(comm, "TraceEvent", no_event)
        monkeypatch.setattr(span, "TraceEvent", no_event)
        y0 = rng.uniform(0, 100, 500)
        counters = _run(tiny_paper_mesh, y0, trace=False).metrics["counters"]
        assert counters["net.messages_sent"] > 0 and counters["net.barriers"] > 0

    def test_metrics_follow_the_collective_counters(self, tiny_paper_mesh, rng):
        y0 = rng.uniform(0, 100, 500)
        report = run_program(
            tiny_paper_mesh, uniform_cluster(3),
            ProgramConfig(
                iterations=20, checkpoint="interval:4",
                membership="fail:1@0.02", load_balance="centralized",
            ),
            y0=y0,
        )
        counters = report.metrics["counters"]
        assert report.membership_events == 1
        assert counters["membership.events"] >= 1
        # Every rank that participated in a recovery counted it once, so
        # the cluster-wide sum is a positive multiple of the collective
        # rollback count.
        assert report.num_rollbacks >= 1
        assert counters["cp.rollbacks"] >= report.num_rollbacks
        assert counters["cp.rollbacks"] % report.num_rollbacks == 0
        assert counters["lb.checks"] >= 1


# --------------------------------------------------------------------- #
# bulk vs scalar receive parity (regression)
# --------------------------------------------------------------------- #


_PARITY_TAG = 612


def _bulk_recv_fn(ctx):
    """Rank 0 drains everyone through the bulk receive_bulk path."""
    if ctx.rank == 0:
        ctx.recv_expected(range(1, ctx.size), tag=_PARITY_TAG)
    else:
        ctx.send(0, np.arange(32, dtype=np.float64), tag=_PARITY_TAG)
    return ctx.metrics.snapshot()


def _scalar_recv_fn(ctx):
    """Same traffic, received one channel at a time."""
    if ctx.rank == 0:
        for source in range(1, ctx.size):
            ctx.recv(source, _PARITY_TAG)
    else:
        ctx.send(0, np.arange(32, dtype=np.float64), tag=_PARITY_TAG)
    return ctx.metrics.snapshot()


class TestRecvParity:
    def test_bulk_path_counts_like_scalar_path(self):
        cluster = uniform_cluster(4)
        bulk = run_spmd(cluster, _bulk_recv_fn).values
        scalar = run_spmd(cluster, _scalar_recv_fn).values
        b0, s0 = bulk[0]["counters"], scalar[0]["counters"]
        assert b0["net.messages_recv"] == s0["net.messages_recv"] == 3
        assert b0["net.bytes_recv"] == s0["net.bytes_recv"] > 0
        bh = bulk[0]["histograms"]["net.recv_wait"]
        sh = scalar[0]["histograms"]["net.recv_wait"]
        assert bh["count"] == sh["count"] == 3
        # Senders are untouched by the receive path choice.
        assert bulk[1] == scalar[1]


# --------------------------------------------------------------------- #
# ambient capture window
# --------------------------------------------------------------------- #


class TestCaptureWindow:
    def test_window_captures_untraced_runs(self, tiny_paper_mesh, rng):
        y0 = rng.uniform(0, 100, 500)
        assert active_capture() is None
        with capture_traces() as window:
            assert active_capture() is window
            _run(tiny_paper_mesh, y0)  # config itself does NOT trace
        assert active_capture() is None
        assert len(window.traces) == 1
        label, trace = window.traces[0]
        assert "3ranks" in label
        assert [e for e in trace if e.span_id >= 0 and e.kind == "program"]

    def test_window_capacity_reaches_the_log(self, tiny_paper_mesh, rng):
        y0 = rng.uniform(0, 100, 500)
        with capture_traces(capacity=10) as window:
            _run(tiny_paper_mesh, y0)
        _, trace = window.traces[0]
        assert len(trace.events()) <= 10
        assert trace.dropped_events > 0

    def test_windows_nest(self):
        with capture_traces() as outer:
            with capture_traces() as inner:
                assert active_capture() is inner
            assert active_capture() is outer
        assert active_capture() is None


# --------------------------------------------------------------------- #
# logging configuration
# --------------------------------------------------------------------- #


class TestLogging:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        # Leave the tree as other tests expect it.
        configure_logging("info")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="log level"):
            configure_logging("chatty")

    def test_rank_prefix(self, capsys):
        configure_logging("info", rank=3)
        logging.getLogger("repro.procs").info("hello from a worker")
        assert "[rank 3] hello from a worker" in capsys.readouterr().err

    def test_level_from_environment(self, monkeypatch, capsys):
        monkeypatch.setenv(LEVEL_ENV, "error")
        configure_logging()
        logging.getLogger("repro.cli").warning("should be suppressed")
        logging.getLogger("repro.cli").error("should appear")
        err = capsys.readouterr().err
        assert "should be suppressed" not in err
        assert "should appear" in err

    def test_reconfigure_does_not_stack_handlers(self, capsys):
        for _ in range(3):
            configure_logging("info")
        logging.getLogger("repro.cli").info("once")
        assert capsys.readouterr().err.count("once") == 1


# --------------------------------------------------------------------- #
# service observability
# --------------------------------------------------------------------- #


def _jobs(n):
    return [
        JobSpec(job_id=f"j{i}", vertices=48, iterations=2, ranks=1 + i % 2)
        for i in range(n)
    ]


class TestServiceObservability:
    def test_traced_session_emits_job_spans(self):
        session = ServiceSession(
            uniform_cluster(3), JobQueue(_jobs(4)), trace=True
        )
        report = session.run()
        assert report.trace is not None
        admits = [e for e in report.trace if e.span_id >= 0 and e.kind == "admit"]
        jobs = [e for e in report.trace if e.span_id >= 0 and e.kind == "job"]
        assert len(admits) == 4
        # One service-track span per job plus one occupancy span per
        # granted rank.
        service_jobs = [e for e in jobs if e.rank < 0]
        rank_jobs = [e for e in jobs if e.rank >= 0]
        assert len(service_jobs) == 4
        assert len(rank_jobs) == sum(1 + i % 2 for i in range(4))
        admit_ids = {e.span_id for e in admits}
        assert all(e.parent_id in admit_ids for e in service_jobs)
        assert session.metrics.snapshot()["counters"]["serve.jobs_admitted"] == 4

    def test_untraced_session_report_is_unchanged(self):
        report = ServiceSession(uniform_cluster(3), JobQueue(_jobs(3))).run()
        assert report.trace is None
        # The differential-contract surface is pinned: tracing must never
        # add keys here.
        traced = ServiceSession(
            uniform_cluster(3), JobQueue(_jobs(3)), trace=True
        ).run()
        assert report.metrics() == traced.metrics()
        assert "trace" not in report.to_dict()


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestCliTrace:
    def _run_with_trace(self, path, *extra):
        return main([
            "run", "--vertices", "200", "--iterations", "4",
            "--workstations", "2", "--trace-out", str(path), *extra,
        ])

    def test_run_trace_out_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert self._run_with_trace(out) == 0
        assert f"trace: {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["metadata"]["generator"] == "repro.obs"
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"program", "epoch", "executor", "inspector"} <= cats

    def test_trace_summary_reads_export(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert self._run_with_trace(out) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Per-rank phase breakdown" in text
        assert "executor" in text
        assert "Per-rank time budget" in text

    def test_trace_summary_prints_golden_budget(self, capsys):
        """A saved artifact carries the whole budget: each rank's end is
        its last event's, so no run report is needed beside the file."""
        golden = Path(__file__).parent / "golden" / "chrome_trace.json"
        assert main(["trace", "summary", str(golden)]) == 0
        text = capsys.readouterr().out
        budget = text.split("Per-rank time budget")[1].split("Traffic")[0]
        rows = [ln for ln in budget.splitlines() if ln[:1].isdigit()]
        assert [ln.split("|")[0].strip() for ln in rows] == ["0", "1", "2"]
        assert "Traffic by message tag" in text

    def test_trace_export_rewrites_timebase(self, tmp_path, capsys):
        src = tmp_path / "run.json"
        assert self._run_with_trace(src) == 0
        dst = tmp_path / "wall.json"
        assert main([
            "trace", "export", str(src), "-o", str(dst),
            "--timebase", "wall",
        ]) == 0
        doc = json.loads(dst.read_text())
        assert doc["metadata"]["timebase"] == "wall"

    def test_trace_capacity_flag(self, tmp_path, capsys):
        out = tmp_path / "capped.json"
        assert self._run_with_trace(out, "--trace-capacity", "16") == 0
        assert "dropped" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) <= 16
        assert doc["metadata"]["dropped_events"] > 0

    def test_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["trace", "summary", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_trace_out(self, tmp_path, capsys):
        stream = tmp_path / "jobs.jsonl"
        rows = [
            {"job_id": f"j{i}", "vertices": 48, "iterations": 2, "ranks": 1}
            for i in range(3)
        ]
        stream.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "serve.json"
        rc = main([
            "serve", "--jobs", str(stream), "--cluster-size", "2",
            "--trace-out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"admit", "job"} <= cats
