"""Tests for the communicator, collectives, and the SPMD runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RankFailedError
from repro.net.cluster import heterogeneous_cluster, uniform_cluster
from repro.net.comm import Communicator
from repro.net.loadmodel import ConstantLoad
from repro.net.message import Tags
from repro.net.network import SharedEthernet
from repro.net.spmd import run_spmd


def eth_cluster(n):
    return uniform_cluster(n, network_factory=SharedEthernet)


class TestPointToPoint:
    def test_send_recv_payload(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, {"v": 42}, Tags.USER_BASE)
                return None
            return ctx.recv(0, Tags.USER_BASE)

        res = run_spmd(uniform_cluster(2), fn)
        assert res.values[1] == {"v": 42}

    def test_recv_advances_clock_past_arrival(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, np.zeros(1000))
                return ctx.clock
            before = ctx.clock
            ctx.recv(0, Tags.USER_BASE)
            return (before, ctx.clock)

        res = run_spmd(uniform_cluster(2), fn)
        before, after = res.values[1]
        assert before == 0.0
        assert after > 0.0  # latency + transfer reflected

    def test_sender_clock_advances_by_injection(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.send(1, np.zeros(125_000))  # 1 MB at 1.25 MB/s = 0.8 s
                return ctx.clock
            ctx.recv(0, Tags.USER_BASE)
            return ctx.clock

        res = run_spmd(uniform_cluster(2), fn)
        assert res.values[0] == pytest.approx(0.8, rel=0.1)
        assert res.values[1] > res.values[0]

    def test_send_invalid_rank(self):
        def fn(ctx):
            ctx.send(99, "boom")

        with pytest.raises(RankFailedError):
            run_spmd(uniform_cluster(2), fn)

    def test_self_send_allowed(self):
        def fn(ctx):
            ctx.send(ctx.rank, "self", 42)
            return ctx.recv(ctx.rank, 42)

        res = run_spmd(uniform_cluster(2), fn)
        assert res.values == ["self", "self"]


class TestCollectives:
    def test_barrier_synchronizes_clocks(self):
        def fn(ctx):
            ctx.compute(float(ctx.rank + 1))  # 1s, 2s, 3s
            ctx.barrier()
            return ctx.clock

        res = run_spmd(uniform_cluster(3), fn)
        assert max(res.values) - min(res.values) < 1e-12
        assert min(res.values) >= 3.0

    def test_bcast_values(self):
        def fn(ctx):
            return ctx.bcast("hello" if ctx.rank == 0 else None)

        res = run_spmd(eth_cluster(4), fn)
        assert res.values == ["hello"] * 4

    def test_bcast_single_rank(self):
        res = run_spmd(uniform_cluster(1), lambda ctx: ctx.bcast("solo"))
        assert res.values == ["solo"]

    def test_gather_order(self):
        def fn(ctx):
            return ctx.gather(ctx.rank * 10, root=0)

        res = run_spmd(uniform_cluster(4), fn)
        assert res.values[0] == [0, 10, 20, 30]
        assert res.values[1] is None

    def test_allgather(self):
        res = run_spmd(uniform_cluster(3), lambda ctx: ctx.allgather(ctx.rank**2))
        assert all(v == [0, 1, 4] for v in res.values)

    def test_alltoallv_pattern(self):
        def fn(ctx):
            out = {d: ctx.rank * 100 + d for d in range(ctx.size) if d != ctx.rank}
            rec = ctx.alltoallv(out, [s for s in range(ctx.size) if s != ctx.rank])
            return {s: v for s, v in sorted(rec.items())}

        res = run_spmd(uniform_cluster(3), fn)
        assert res.values[0] == {1: 100, 2: 200}
        assert res.values[2] == {0: 2, 1: 102}

    def test_alltoallv_self_entry(self):
        def fn(ctx):
            out = {ctx.rank: "mine"}
            return ctx.alltoallv(out, [])

        res = run_spmd(uniform_cluster(2), fn)
        assert res.values[0] == {0: "mine"}

    def test_multicast_on_ethernet_traces_single_event(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.multicast([1, 2, 3], "m", Tags.USER_BASE)
            else:
                ctx.recv(0, Tags.USER_BASE)

        res = run_spmd(eth_cluster(4), fn, trace=True)
        assert len([e for e in res.trace if e.kind == "multicast"]) == 1

    def test_multicast_fallback_unicasts(self):
        def fn(ctx):
            if ctx.rank == 0:
                ctx.multicast([1, 2], "m", Tags.USER_BASE)
            else:
                ctx.recv(0, Tags.USER_BASE)

        res = run_spmd(uniform_cluster(3), fn, trace=True)
        assert len([e for e in res.trace if e.kind == "send"]) == 1  # one traced event
        assert len([e for e in res.trace if e.kind == "multicast"]) == 0


class TestVirtualTime:
    def test_heterogeneous_compute(self):
        res = run_spmd(
            heterogeneous_cluster([1.0, 0.25]),
            lambda ctx: ctx.compute(1.0) or ctx.clock,
        )
        assert res.values[0] == pytest.approx(1.0)
        assert res.values[1] == pytest.approx(4.0)

    def test_loaded_processor(self):
        cl = uniform_cluster(2).with_load(1, ConstantLoad(3.0))
        res = run_spmd(cl, lambda ctx: ctx.compute(1.0) or ctx.clock)
        assert res.values[1] == pytest.approx(4.0)

    def test_makespan_is_max_clock(self):
        res = run_spmd(
            heterogeneous_cluster([1.0, 0.5]),
            lambda ctx: ctx.compute(1.0),
        )
        assert res.makespan == pytest.approx(2.0)


class TestSPMDFailures:
    def test_rank_exception_propagates(self):
        def fn(ctx):
            if ctx.rank == 1:
                raise ValueError("rank 1 exploded")
            ctx.barrier()  # would deadlock without failure handling

        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(uniform_cluster(3), fn)
        assert 1 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[1], ValueError)

    def test_blocked_receiver_woken_on_peer_failure(self):
        def fn(ctx):
            if ctx.rank == 0:
                raise RuntimeError("sender died")
            ctx.recv(0, Tags.USER_BASE)  # must not hang

        with pytest.raises(RankFailedError) as exc_info:
            run_spmd(uniform_cluster(2), fn)
        # Original error reported, not the secondary mailbox closure.
        assert any(
            isinstance(e, RuntimeError) for e in exc_info.value.failures.values()
        )

    def test_runner_reusable(self):
        cluster = uniform_cluster(2)
        r1 = run_spmd(cluster, lambda ctx: ctx.rank)
        r2 = run_spmd(cluster, lambda ctx: ctx.rank * 2)
        assert r1.values == [0, 1]
        assert r2.values == [0, 2]

    def test_args_passed_through(self):
        res = run_spmd(uniform_cluster(2), lambda ctx, a, b=0: a + b + ctx.rank, 10, b=5)
        assert res.values == [15, 16]

    def test_context_bad_rank(self):
        comm = Communicator(uniform_cluster(2))
        with pytest.raises(Exception):
            comm.context(5)


class TestDegenerateAggregates:
    """SPMDResult.makespan must never silently report a degenerate run."""

    def _result(self, clocks):
        from repro.net.spmd import SPMDResult
        from repro.net.trace import TraceLog

        n = max(len(clocks), 1)
        return SPMDResult(
            values=[None] * len(clocks),
            clocks=list(clocks),
            trace=TraceLog(enabled=False),
            cluster=uniform_cluster(n),
        )

    def test_no_ranks_raises(self):
        from repro.errors import ConfigurationError

        res = self._result([])
        with pytest.raises(ConfigurationError, match="no ranks"):
            res.makespan

    def test_all_zero_clocks(self):
        res = self._result([0.0, 0.0, 0.0])
        assert res.makespan == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_degenerate_clocks_raise(self, bad):
        from repro.errors import ConfigurationError

        res = self._result([1.0, bad, 2.0])
        with pytest.raises(ConfigurationError, match="degenerate"):
            res.makespan

    def test_normal_clocks_still_work(self):
        res = self._result([2.0, 4.0])
        assert res.makespan == 4.0


class TestRecvTimeoutPlumbing:
    def test_explicit_wins(self, monkeypatch):
        from repro.net.comm import RECV_TIMEOUT_ENV, resolve_recv_timeout

        monkeypatch.setenv(RECV_TIMEOUT_ENV, "7")
        assert resolve_recv_timeout(3.5) == 3.5

    def test_env_overrides_default(self, monkeypatch):
        from repro.net.comm import RECV_TIMEOUT_ENV, resolve_recv_timeout

        monkeypatch.setenv(RECV_TIMEOUT_ENV, "42.5")
        assert resolve_recv_timeout() == 42.5

    def test_default(self, monkeypatch):
        from repro.net.comm import (
            DEFAULT_RECV_TIMEOUT,
            RECV_TIMEOUT_ENV,
            resolve_recv_timeout,
        )

        monkeypatch.delenv(RECV_TIMEOUT_ENV, raising=False)
        assert resolve_recv_timeout() == DEFAULT_RECV_TIMEOUT

    @pytest.mark.parametrize("env", ["zero", "-3", "0"])
    def test_bad_env_rejected(self, monkeypatch, env):
        from repro.errors import ConfigurationError
        from repro.net.comm import RECV_TIMEOUT_ENV, resolve_recv_timeout

        monkeypatch.setenv(RECV_TIMEOUT_ENV, env)
        with pytest.raises(ConfigurationError, match="REPRO_RECV_TIMEOUT"):
            resolve_recv_timeout()

    def test_bad_explicit_rejected(self):
        from repro.errors import ConfigurationError
        from repro.net.comm import resolve_recv_timeout

        with pytest.raises(ConfigurationError, match="recv_timeout"):
            resolve_recv_timeout(0)

    def test_communicator_uses_resolved_timeout(self, monkeypatch):
        from repro.net.comm import RECV_TIMEOUT_ENV

        monkeypatch.setenv(RECV_TIMEOUT_ENV, "9.25")
        comm = Communicator(uniform_cluster(2))
        assert comm.recv_timeout == 9.25
        assert Communicator(uniform_cluster(2), recv_timeout=1.5).recv_timeout == 1.5

    def test_timeout_error_names_blocked_receive(self):
        from repro.errors import CommunicationError
        from repro.net.mailbox import Mailbox

        box = Mailbox(rank=4)
        with pytest.raises(CommunicationError) as ei:
            box.receive(2, 17, timeout=0.01)
        msg = str(ei.value)
        assert "rank 4" in msg
        assert "source=2" in msg
        assert "tag=17" in msg
        assert "--recv-timeout" in msg and "REPRO_RECV_TIMEOUT" in msg


class TestOneRankSurface:
    """Both worlds run one body of every rank operation: the real world
    supplies only how bytes and clocks move, through private primitives.
    A public method defined on both classes is a fork waiting to drift."""

    #: What a world overrides: the clock and how bytes and clocks move.
    WORLD_PRIMITIVES = {
        "clock", "_post", "_advance", "_synchronize", "_charge_recv",
    }
    #: The real world's latched-clock helpers and its barrier round.
    REAL_CLOCK = {"__init__", "_now", "_latch", "_adopt", "align_clocks"}

    def test_real_context_defines_only_the_world_primitives(self):
        from repro.net.comm import RankContext
        from repro.runtime.procs.context import RealRankContext

        assert issubclass(RealRankContext, RankContext)
        public = {n for n in vars(RealRankContext) if not n.startswith("_")}
        assert public == {"clock", "align_clocks"}
        # Every name it defines, private ones too: an override of a
        # shared body (_transmit, _note_recv, __repr__, ...) is a fork.
        defined = {
            n for n in vars(RealRankContext)
            if n == "__init__" or not n.startswith("__")
        }
        assert defined == self.WORLD_PRIMITIVES | self.REAL_CLOCK
        assert not {"_note_recv", "_transmit", "__repr__"} & set(
            vars(RealRankContext)
        )
        # The operations the acceptance criteria name exist once, on the
        # shared class.
        for name in ("send", "multicast", "compute", "barrier", "recv",
                     "recv_expected", "bcast", "gather", "allgather",
                     "alltoallv", "trace", "cluster", "network"):
            assert name in vars(RankContext), name
        for name in ("reduce", "compute_items"):
            assert not hasattr(RankContext, name)

    def test_repr_names_the_concrete_class(self):
        ctx = Communicator(uniform_cluster(2)).context(1)
        assert repr(ctx).startswith("RankContext(rank=1, size=2, clock=")


class TestExactChannelsOnly:
    """Every receive names its source and its tag; there is no wildcard
    matcher, no probe, and nothing stamps messages with a global order."""

    def test_recv_has_no_defaulted_source_or_tag(self):
        import inspect

        from repro.net.comm import RankContext
        from repro.net.mailbox import Mailbox

        for fn in (RankContext.recv, RankContext.recv_expected,
                   Mailbox.receive, Mailbox.receive_bulk):
            params = list(inspect.signature(fn).parameters.values())[1:3]
            assert [p.default for p in params] == [inspect.Parameter.empty] * 2
        assert "return_message" not in inspect.signature(RankContext.recv).parameters

    def test_wildcards_and_seq_are_gone(self):
        import dataclasses

        import repro.net
        import repro.net.message
        from repro.net.message import Message

        for module in (repro.net, repro.net.message):
            assert not hasattr(module, "ANY_SOURCE")
            assert not hasattr(module, "ANY_TAG")
        assert "seq" not in {f.name for f in dataclasses.fields(Message)}
        assert not hasattr(Communicator(uniform_cluster(2)), "_next_seq")

    def test_rank_surface_lost_the_callerless_methods(self):
        from repro.net.comm import RankContext
        from repro.net.mailbox import Mailbox

        for name in ("probe", "recv_packed", "sendrecv", "capability_snapshot"):
            assert not hasattr(RankContext, name)
        assert not hasattr(Mailbox, "probe")

    def test_mailbox_holds_one_message_container(self):
        from collections import deque

        from repro.net.mailbox import Mailbox
        from repro.net.message import Message

        box = Mailbox(1)
        box.deposit(Message(0, 1, 5, "x", 17, 0.0))
        holders = [
            name for name, value in vars(box).items()
            if isinstance(value, (dict, list, set, deque))
        ]
        assert holders == ["_channels"]
