"""The four workloads: inputs from a seed, one operation, its oracle.

A workload builds its inputs from ``--seed`` (mesh, ``y0``, job stream;
the program receives only the generated inputs), runs ONE operation
through a public entry point (``run_program`` or ``ServiceSession.run``)
and checks the outputs against an oracle built during set-up.  The loop
is closed with one client: the next operation starts when the previous
one has returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.apps.workloads import dynamic_load_cluster
from repro.graph import paper_mesh
from repro.graph.generators import scale_mesh
from repro.net.cluster import sun4_cluster, uniform_cluster
from repro.partition import HilbertOrdering
from repro.runtime import (
    KernelCostModel,
    LoadBalanceConfig,
    ProgramConfig,
    run_program,
    run_sequential,
)
from repro.serve import ServiceSession, admission_order, generate_stream

from bench import tracing
from bench.metrics import accumulate, program_counts, program_virtual
from bench.spans import SpanRecorder

__all__ = ["Sample", "make_workload"]

TOLERANCE = 1e-9


@dataclass
class Sample:
    """What one operation produced, reduced to what repetitions compare."""

    fingerprint: str  # digest of the output values: equal iff bit-identical
    virtual_makespan: float
    counts: dict[str, float]
    virtual: dict[str, float]


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


class ProgramWorkload:
    """One ``run_program`` call on a generated mesh."""

    def __init__(self, name: str, why: str, build):
        self.name = name
        self.why = why
        self._build = build

    def setup(self, seed: int, scale: str, rec: SpanRecorder) -> None:
        with rec.span("graph.build"):
            self.graph, self.cluster, self.config = self._build(seed, scale)
        n = self.graph.num_vertices
        self.y0 = np.random.default_rng(seed).uniform(0.0, 100.0, n)
        self.work = (
            f"{n} vertices x {self.config.iterations} iterations = "
            f"{n * self.config.iterations} vertex-iterations, "
            f"{self.cluster.size} ranks, world={self.config.world}"
        )
        with rec.span("baseline.sequential"):
            self.expected = run_sequential(
                self.graph, self.y0, self.config.iterations
            )
        # The real world has no virtual clock: the sim-world run of the
        # same program is its bit-identity oracle and lends its makespan.
        self.sim = None
        self.oracle_error = None
        if self.config.world == "real":
            self.sim = run_program(
                self.graph, self.cluster,
                replace(self.config, world="sim"), y0=self.y0,
            )
            self.oracle_error = self._against_sequential(self.sim.values)

    def operate(self, **config_changes: Any):
        config = replace(self.config, **config_changes)
        return run_program(self.graph, self.cluster, config, y0=self.y0)

    def _against_sequential(self, values: np.ndarray) -> str | None:
        worst = float(np.max(np.abs(values - self.expected)))
        if not worst <= TOLERANCE:
            return f"max|values - run_sequential| = {worst:.3e} > {TOLERANCE}"
        return None

    def verify(self, report) -> str | None:
        if self.oracle_error is not None:
            return f"sim-world oracle: {self.oracle_error}"
        if self.sim is not None and not np.array_equal(
            report.values, self.sim.values
        ):
            return "real-world values are not bit-identical to the sim world's"
        return self._against_sequential(report.values)

    def _sample(self, values, makespan, metrics, virtual) -> Sample:
        if self.sim is not None:
            makespan = self.sim.makespan
            virtual = program_virtual(self.sim.rank_stats)
        return Sample(_digest(values), makespan, program_counts(metrics), virtual)

    def sample(self, report) -> Sample:
        return self._sample(
            report.values, report.makespan, report.metrics,
            program_virtual(report.rank_stats),
        )

    def traced(self, rec: SpanRecorder) -> tuple[Sample, float, dict[str, float]]:
        """One traced repetition: its sample, its total, and the layer
        seconds that are not simply a span's self time (none here)."""
        with rec.span("op") as op:
            run = tracing.traced_program(
                rec, self.graph, self.cluster, self.config, self.y0
            )
        sample = self._sample(run.values, run.makespan, run.metrics, run.virtual)
        return sample, rec.spans[op].duration, {}


class ServiceWorkload:
    """One ``ServiceSession.run`` over a generated job stream."""

    POLICY = dict(policy="random", seed=1, max_tenants=2)
    JOBS = {"full": 200, "smoke": 12}
    RANKS = 8

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def setup(self, seed: int, scale: str, rec: SpanRecorder) -> None:
        self.queue = generate_stream(
            "mixed", self.JOBS[scale], max_ranks=self.RANKS, seed=seed
        )
        self.cluster = uniform_cluster(self.RANKS)
        self.work = (
            f"{len(self.queue)} jobs, "
            f"{int(self.queue.total_work())} vertex-iterations, "
            f"{self.RANKS} shared ranks, world=sim"
        )
        # The standalone run of every JobSpec is the oracle for the
        # session's per-job checksums, and itself checked against
        # run_sequential.  Jobs go in the session's admission order, as
        # in tracing.replay_jobs: the float sums below then match it.
        self.standalone: dict[str, float] = {}
        self.standalone_counts: dict[str, float] = {}
        self.standalone_virtual: dict[str, float] = {}
        self.standalone_makespan: dict[str, float] = {}
        self.oracle_error = None
        for job in admission_order(
            self.queue.jobs, self.POLICY["policy"], seed=self.POLICY["seed"]
        ):
            graph = job.build_graph()
            y0 = job.build_y0(graph)
            report = run_program(
                graph, uniform_cluster(job.ranks), job.build_config(), y0=y0
            )
            with rec.span("baseline.sequential"):
                expected = run_sequential(graph, y0, job.iterations)
            worst = float(np.max(np.abs(report.values - expected)))
            if not worst <= TOLERANCE:
                self.oracle_error = (
                    f"standalone {job.job_id}: max|values - run_sequential| "
                    f"= {worst:.3e} > {TOLERANCE}"
                )
            self.standalone[job.job_id] = float(report.values.sum())
            self.standalone_makespan[job.job_id] = report.makespan
            accumulate(self.standalone_counts, program_counts(report.metrics))
            accumulate(self.standalone_virtual, program_virtual(report.rank_stats))

    def operate(self, **session_changes: Any):
        session = ServiceSession(
            self.cluster, self.queue, **self.POLICY, **session_changes
        )
        return session, session.run()

    def verify(self, result) -> str | None:
        if self.oracle_error is not None:
            return self.oracle_error
        _session, report = result
        if report.n_jobs != len(self.queue):
            return f"{report.n_jobs} of {len(self.queue)} jobs completed"
        for record in report.records:
            if record.checksum != self.standalone[record.job.job_id]:
                return (
                    f"job {record.job.job_id}: checksum {record.checksum!r} "
                    f"differs from its standalone run's "
                    f"{self.standalone[record.job.job_id]!r}"
                )
        return None

    def sample(self, result) -> Sample:
        session, report = result
        checksums = sorted((r.job.job_id, r.checksum) for r in report.records)
        counts = dict(self.standalone_counts)
        counts["serve.jobs_admitted"] = session.metrics.snapshot()[
            "counters"
        ].get("serve.jobs_admitted", 0)
        return Sample(
            fingerprint=hashlib.sha256(repr(checksums).encode()).hexdigest(),
            virtual_makespan=report.service_makespan,
            counts=counts,
            virtual=dict(self.standalone_virtual),
        )

    def traced(self, rec: SpanRecorder) -> tuple[Sample, float, dict[str, float]]:
        """One ``ServiceSession.run`` under a span, and beside it every
        job replayed standalone through the traced re-enactment.  The
        session's seconds split into the replays' layers plus
        ``serve.session_overhead_s``; ``serve.job_*`` regroup the replays
        per job piece."""
        with rec.span("serve.session") as op:
            result = self.operate()
        total = rec.spans[op].duration
        replay = tracing.replay_jobs(rec, self.queue, self.POLICY)
        sample = self.sample(result)
        if (
            replay.checksums != self.standalone
            or replay.makespans != self.standalone_makespan
        ):
            sample.fingerprint = "replayed jobs differ from run_program"
        sample.counts = {
            **replay.counts,
            "serve.jobs_admitted": sample.counts["serve.jobs_admitted"],
        }
        sample.virtual = replay.virtual
        extra = {
            "graph.build_s": replay.build_s,
            "serve.job_order_s": replay.order_s,
            "serve.job_run_s": replay.program_s - replay.order_s,
            "serve.session_overhead_s": total - replay.build_s - replay.program_s,
        }
        return sample, total, extra


def _static_rcb(seed: int, scale: str):
    n = {"full": 250_000, "smoke": 10_000}[scale]
    # Point-to-point links, not the shared Ethernet: the Ethernet model
    # grants the medium in host-thread arrival order, so its virtual
    # makespan differs between identical runs (see README).
    return (
        paper_mesh(n, seed=seed),
        sun4_cluster(4, ethernet=False),
        ProgramConfig(iterations=40),
    )


def _adaptive_sfc(seed: int, scale: str):
    tier, iterations = {"full": ("500k", 60), "smoke": ("10k", 20)}[scale]
    graph = scale_mesh(tier, family="geometric", seed=seed)
    ranks = 16
    work = KernelCostModel().sweep_seconds(
        int(graph.indices.size), graph.num_vertices
    )
    horizon = iterations * work / ranks
    config = ProgramConfig(
        iterations=iterations,
        ordering=HilbertOrdering(),
        initial_capabilities="equal",
        load_balance=LoadBalanceConfig(check_interval=5, style="centralized"),
        inspector_mode="incremental",
        checkpoint="interval:10",
    )
    return graph, dynamic_load_cluster(ranks, "hotspot", horizon), config


def _real_2rank(seed: int, scale: str):
    n, iterations = {"full": (250_000, 400), "smoke": (10_000, 60)}[scale]
    config = ProgramConfig(
        iterations=iterations,
        ordering=HilbertOrdering(),
        checkpoint="interval:20",
        world="real",
    )
    return paper_mesh(n, seed=seed), uniform_cluster(2), config


def make_workload(name: str):
    """The workload called *name*; its ``why`` is BENCHMARK.json's."""
    if name == "static-rcb":
        return ProgramWorkload(
            name,
            "Phase A (RCB ordering + permute) is most of the run, Phases "
            "B-D almost none: an ordering change must show here, an "
            "executor change must not",
            _static_rcb,
        )
    if name == "adaptive-sfc":
        return ProgramWorkload(
            name,
            "Phase A is cheap, the SPMD section dominates (executor, LB "
            "checks, remaps, incremental inspector, checkpoints); the "
            "largest resident set",
            _adaptive_sfc,
        )
    if name == "serve-stream":
        return ServiceWorkload(
            name,
            "200 tiny programs through the service: fixed per-call cost "
            "(mesh build, ordering, thread launch) is everything; per-call "
            "overhead or a cache shows only here",
        )
    if name == "real-2rank":
        return ProgramWorkload(
            name,
            "the only path through OS processes, framing and loopback "
            "sockets; a sim-only optimisation predicts no movement here",
            _real_2rank,
        )
    raise KeyError(f"unknown workload {name!r}")
