"""Tests for the event trace log."""

from __future__ import annotations

import logging

import pytest

from repro.errors import ConfigurationError
from repro.net.cluster import uniform_cluster
from repro.net.message import Tags
from repro.net.spmd import run_spmd
from repro.net.trace import TraceEvent, TraceLog
from repro.obs import summarize


class TestTraceLog:
    def test_disabled_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(TraceEvent("send", 0, 0.0, 1.0, nbytes=10))
        assert len(log) == 0

    def test_filtering(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 1.0, nbytes=10))
        log.record(TraceEvent("recv", 1, 0.0, 1.0, nbytes=10))
        log.record(TraceEvent("send", 1, 1.0, 2.0, nbytes=5))
        assert len(log.events(kind="send")) == 2
        assert len(log.events(rank=1)) == 2
        assert len(log.events(kind="send", rank=1)) == 1

    def test_summary_counts_transmissions_and_bytes(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 1.0, nbytes=10))
        log.record(TraceEvent("multicast", 0, 1.0, 2.0, nbytes=20))
        log.record(TraceEvent("recv", 1, 0.0, 1.0, nbytes=10))
        s = summarize(log)
        assert sum(s.messages_by_tag.values()) == 2
        assert sum(s.bytes_by_tag.values()) == 30

    def test_summary_time_per_rank_and_kind(self):
        log = TraceLog()
        log.record(TraceEvent("compute", 0, 0.0, 1.5))
        log.record(TraceEvent("compute", 0, 2.0, 3.0))
        log.record(TraceEvent("compute", 1, 0.0, 9.0))
        assert summarize(log).time(0, "compute") == 2.5

    def test_iteration(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 1.0))
        assert [e.kind for e in log] == ["send"]

    def test_seq_is_per_rank_program_order(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 1.0))
        log.record(TraceEvent("send", 1, 0.0, 1.0))
        log.record(TraceEvent("recv", 0, 1.0, 2.0))
        assert [e.seq for e in log.events(rank=0)] == [0, 1]
        assert [e.seq for e in log.events(rank=1)] == [0]

    def test_spans_filter(self):
        log = TraceLog()
        log.record(TraceEvent("send", 0, 0.0, 1.0))
        log.record(TraceEvent("epoch", 0, 0.0, 2.0, span_id=0))
        log.record(TraceEvent("executor", 0, 0.0, 1.0, span_id=1,
                              parent_id=0))
        assert [e.kind for e in log.spans()] == ["epoch", "executor"]
        assert [e.kind for e in log.spans("executor")] == ["executor"]

    def test_extend_preserves_shipped_seq(self):
        # A worker recorded locally; the parent merges the shipped events
        # and keeps recording on the same rank afterwards.
        worker = TraceLog()
        worker.record(TraceEvent("send", 0, 0.0, 1.0))
        worker.record(TraceEvent("recv", 0, 1.0, 2.0))
        parent = TraceLog()
        parent.extend(worker.events())
        parent.record(TraceEvent("barrier", 0, 2.0, 3.0))
        assert [e.seq for e in parent.events(rank=0)] == [0, 1, 2]

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            TraceLog(capacity=0)

    def test_ring_buffer_keeps_newest(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(TraceEvent("send", 0, float(i), float(i) + 1.0))
        assert len(log) == 2
        assert [e.t_start for e in log.events()] == [3.0, 4.0]
        assert log.dropped_events == 3
        # Eviction never disturbs the per-rank program order.
        assert [e.seq for e in log.events()] == [3, 4]

    def test_ring_buffer_warns_once(self, caplog, monkeypatch):
        # configure_logging (run by any earlier CLI test) turns off
        # propagation on the "repro" tree; caplog captures at the root.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        log = TraceLog(capacity=1)
        with caplog.at_level(logging.WARNING, logger="repro.net.trace"):
            for i in range(4):
                log.record(TraceEvent("send", 0, float(i), float(i) + 1.0))
        warnings = [r for r in caplog.records if "trace buffer full" in r.message]
        assert len(warnings) == 1


class TestTraceIntegration:
    def test_spmd_trace_captures_traffic(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, b"x" * 100, Tags.USER_BASE)
            else:
                ctx.recv(0, Tags.USER_BASE)
            ctx.barrier()
            ctx.compute(0.1)

        res = run_spmd(uniform_cluster(2), fn, trace=True)
        assert len(res.trace.events(kind="send")) == 1
        assert len(res.trace.events(kind="recv")) == 1
        assert len(res.trace.events(kind="barrier")) == 2
        assert len(res.trace.events(kind="compute")) == 2
        send = res.trace.events(kind="send")[0]
        assert send.peer == 1 and send.nbytes == 116

    def test_trace_disabled_by_default(self):
        res = run_spmd(uniform_cluster(2), lambda ctx: ctx.compute(0.1))
        assert len(res.trace) == 0
