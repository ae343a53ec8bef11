"""The service session: co-schedule a job stream over one shared cluster.

The event loop runs in virtual service time.  Jobs are offered in
admission order (strict head-of-line, :mod:`repro.serve.scheduler`); an
admitted job is gang-placed on a tenancy-limited rank subset and
simulated to completion with :func:`~repro.runtime.run_program` over
``ClusterSpec.subset(ranks)``.  The coupling that makes tenants *feel*
each other is causal and one-directional: when a job is admitted at
service time ``t``, every already-admitted job's measured per-rank busy
interval is projected onto the new job's processors as a
:class:`~repro.net.loadmodel.ServiceLoad` — one competing process per
co-tenant job per rank, clipped and shifted to the new job's local
clock.  Admission then prices the job's load-balance checks on that
placement (:func:`~repro.runtime.adaptive.price_checks`): a job whose
checks cannot pay for themselves runs without them, and counts in
``serve.lb_priced_out``.  Otherwise the job's adaptive load balancer
reacts to real co-tenants through the ordinary capability estimate
(each rank's measured time per item, which the co-tenants' load slows),
which is the loop the paper scripts by hand with static load traces
(Sec. 3.5).
Jobs admitted *later* do not retroactively slow an earlier job — the
approximation that keeps admission decisions causal and the whole run
deterministic.

All quantities are virtual, so a rerun produces bit-identical
:class:`ServiceReport` numbers.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.net.cluster import ClusterSpec
from repro.net.loadmodel import ServiceLoad
from repro.net.trace import TraceEvent, TraceLog
from repro.obs.metrics import MetricsRegistry
from repro.runtime.adaptive import price_checks
from repro.serve.job import JobQueue, JobSpec
from repro.serve.scheduler import ADMISSION_POLICIES, admission_order, place_job
from repro.utils.tables import format_table

__all__ = ["JobRecord", "ServiceReport", "ServiceSession"]


@dataclass(frozen=True)
class JobRecord:
    """One job's service-time outcome."""

    job: JobSpec
    admit_index: int
    ranks: tuple[int, ...]
    admitted: float
    finished: float
    #: The job's own execution time (virtual, admission -> completion).
    exec_makespan: float
    #: Sum of final vertex values — a function of (graph, y0, iterations)
    #: only, so it is invariant across policies and placements; the
    #: conservation tests key on it.
    checksum: float
    #: All jobs are submitted at service time 0 (batch stream).
    submitted: float = 0.0
    #: Admission found the job's load-balance checks cannot pay on its
    #: placement and ran it without them.
    lb_priced_out: bool = False

    @property
    def queue_wait(self) -> float:
        return self.admitted - self.submitted

    @property
    def makespan(self) -> float:
        """The job's end-to-end makespan: submission to completion.

        Includes queue wait — the number a user of the service sees, and
        the distribution the p99 / fairness metrics summarize.
        """
        return self.finished - self.submitted


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile (exact, no interpolation): the smallest
    value whose cumulative rank reaches *q* percent."""
    idx = max(int(math.ceil(q / 100.0 * len(sorted_vals))) - 1, 0)
    return sorted_vals[idx]


@dataclass
class ServiceReport:
    """Service-level outcome of one :class:`ServiceSession` run."""

    policy: str
    seed: int
    max_tenants: int
    cluster_size: int
    records: list[JobRecord] = field(default_factory=list)
    #: Service-time span log (admit / job spans on the service track,
    #: per-rank job occupancy): populated when the session traces.  Kept
    #: out of :meth:`metrics` / :meth:`to_dict` — the differential
    #: contract surface is unchanged by tracing.
    trace: "TraceLog | None" = None

    @property
    def n_jobs(self) -> int:
        return len(self.records)

    @property
    def service_makespan(self) -> float:
        """Virtual time at which the last job completes."""
        return max((r.finished for r in self.records), default=0.0)

    @property
    def throughput(self) -> float:
        """Jobs completed per virtual second of service time."""
        span = self.service_makespan
        return self.n_jobs / span if span > 0 else 0.0

    def _makespans(self) -> list[float]:
        return sorted(r.makespan for r in self.records)

    def p50_makespan(self) -> float:
        return _nearest_rank(self._makespans(), 50.0)

    def p99_makespan(self) -> float:
        return _nearest_rank(self._makespans(), 99.0)

    def mean_queue_wait(self) -> float:
        return float(np.mean([r.queue_wait for r in self.records]))

    def p99_queue_wait(self) -> float:
        return _nearest_rank(sorted(r.queue_wait for r in self.records), 99.0)

    def jain_fairness(self) -> float:
        """Jain's index over per-job makespans: 1 = perfectly even,
        1/n = one job absorbed all the waiting."""
        x = np.array([r.makespan for r in self.records], dtype=np.float64)
        denom = self.n_jobs * float(np.sum(x * x))
        if denom == 0.0:
            return 1.0
        return float(np.sum(x)) ** 2 / denom

    def metrics(self) -> dict[str, float]:
        """The flat metric vector (the differential-contract surface)."""
        return {
            "n_jobs": float(self.n_jobs),
            "service_makespan": self.service_makespan,
            "throughput": self.throughput,
            "p50_makespan": self.p50_makespan(),
            "p99_makespan": self.p99_makespan(),
            "jain_fairness": self.jain_fairness(),
            "mean_queue_wait": self.mean_queue_wait(),
            "p99_queue_wait": self.p99_queue_wait(),
        }

    @property
    def lb_priced_out(self) -> int:
        """Jobs admission ran without their load-balance checks."""
        return sum(r.lb_priced_out for r in self.records)

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "max_tenants": self.max_tenants,
            "cluster_size": self.cluster_size,
            "metrics": self.metrics(),
            "lb_priced_out": self.lb_priced_out,
            "jobs": [
                {
                    "job_id": r.job.job_id,
                    "ranks": list(r.ranks),
                    "admitted": r.admitted,
                    "finished": r.finished,
                    "queue_wait": r.queue_wait,
                    "makespan": r.makespan,
                    "exec_makespan": r.exec_makespan,
                    "checksum": r.checksum,
                    "lb_priced_out": r.lb_priced_out,
                }
                for r in self.records
            ],
        }

    def to_text(self) -> str:
        rows = [
            [
                r.job.job_id,
                f"{len(r.ranks)}@{','.join(map(str, r.ranks))}",
                r.admitted,
                r.finished,
                r.queue_wait,
                r.makespan,
                "off" if r.lb_priced_out else "",
            ]
            for r in sorted(self.records, key=lambda r: r.admitted)
        ]
        table = format_table(
            [
                "job", "placement", "admitted", "finished", "wait",
                "makespan", "checks",
            ],
            rows,
            title=(
                f"service: {self.n_jobs} jobs over {self.cluster_size} "
                f"ranks (policy={self.policy}, max_tenants={self.max_tenants})"
            ),
            float_fmt="{:.4f}",
        )
        m = self.metrics()
        summary = (
            f"throughput {m['throughput']:.4f} jobs/s over "
            f"{m['service_makespan']:.4f} s; makespan p50 "
            f"{m['p50_makespan']:.4f} s, p99 {m['p99_makespan']:.4f} s; "
            f"Jain fairness {m['jain_fairness']:.4f}; queue wait mean "
            f"{m['mean_queue_wait']:.4f} s, p99 {m['p99_queue_wait']:.4f} s; "
            f"load-balance checks priced out for {self.lb_priced_out} of "
            f"{self.n_jobs} jobs"
        )
        return table + "\n\n" + summary


class ServiceSession:
    """Run a :class:`JobQueue` over one shared :class:`ClusterSpec`."""

    def __init__(
        self,
        cluster: ClusterSpec,
        queue: JobQueue,
        *,
        policy: str = "fifo",
        seed: int = 0,
        max_tenants: int = 1,
        trace: bool = False,
        trace_capacity: int | None = None,
    ):
        if policy not in ADMISSION_POLICIES:
            raise ConfigurationError(
                f"unknown admission policy {policy!r}; known: "
                f"{', '.join(ADMISSION_POLICIES)}"
            )
        if max_tenants < 1:
            raise ConfigurationError(
                f"max_tenants must be >= 1, got {max_tenants}"
            )
        if queue.max_width() > cluster.size:
            widest = max(queue.jobs, key=lambda j: j.ranks)
            raise ConfigurationError(
                f"job {widest.job_id!r} requests {widest.ranks} ranks but "
                f"the shared cluster has only {cluster.size}; no admission "
                f"order can place it"
            )
        if cluster.membership is not None:
            raise ConfigurationError(
                "the service owns the shared pool and carves static "
                "subsets; a cluster-level membership trace is not "
                "supported (attach churn per job instead)"
            )
        self._cluster = cluster
        self._queue = queue
        self._policy = policy
        self._seed = int(seed)
        self._max_tenants = int(max_tenants)
        #: Service-time observability: spans land on the service track
        #: (rank -1) plus one occupancy span per placed rank.  Everything
        #: recorded is a function of virtual quantities only, so tracing
        #: never perturbs the report.
        self._trace = TraceLog(enabled=trace, capacity=trace_capacity)
        self.metrics = MetricsRegistry()
        self._next_span = 0
        #: Per physical rank: the (start, end) service-time intervals
        #: during which an admitted job keeps the machine busy.
        self._busy: list[list[tuple[float, float]]] = [
            [] for _ in range(cluster.size)
        ]

    def _record_span(
        self,
        kind: str,
        t0: float,
        t1: float,
        *,
        rank: int = -1,
        label: str = "",
        parent: int = -1,
    ) -> int:
        """One service-time span; returns its id for child nesting."""
        sid = self._next_span
        self._next_span += 1
        self._trace.record(
            TraceEvent(
                kind, rank, t0, t1, label=label, span_id=sid, parent_id=parent
            )
        )
        return sid

    def _admit(
        self, job: JobSpec, placement: tuple[int, ...], t: float, index: int
    ) -> JobRecord:
        from repro.runtime.program import run_program

        sub = self._cluster.subset(placement)
        loads = {}
        for local, rank in enumerate(placement):
            intervals = [
                (start, end, 1.0)
                for start, end in self._busy[rank]
                if end > t
            ]
            if intervals:
                loads[local] = ServiceLoad(intervals, origin=t)
        if loads:
            sub = sub.with_loads(loads)
        graph = job.build_graph()
        config = job.build_config()
        priced_out = config.load_balance is not None and not price_checks(
            sub,
            graph.degrees,
            config.iterations,
            config.load_balance,
            kernel_cost=config.kernel_cost,
        ).pays
        if priced_out:
            config = dataclasses.replace(config, load_balance=None)
            self.metrics.count("serve.lb_priced_out")
        report = run_program(graph, sub, config, y0=job.build_y0(graph))
        for local, rank in enumerate(placement):
            end = t + report.clocks[local]
            if end > t:
                self._busy[rank].append((t, end))
        self.metrics.count("serve.jobs_admitted")
        self.metrics.observe("serve.queue_wait", t - 0.0)
        self.metrics.observe("serve.exec_makespan", report.makespan)
        if self._trace.enabled:
            aid = self._record_span(
                "admit",
                t,
                t,
                label=f"{job.job_id}@{','.join(map(str, placement))}",
            )
            jid = self._record_span(
                "job", t, t + report.makespan, label=job.job_id, parent=aid
            )
            for local, rank in enumerate(placement):
                self._record_span(
                    "job",
                    t,
                    t + report.clocks[local],
                    rank=rank,
                    label=job.job_id,
                    parent=jid,
                )
        return JobRecord(
            job=job,
            admit_index=index,
            ranks=placement,
            admitted=t,
            finished=t + report.makespan,
            exec_makespan=report.makespan,
            checksum=float(report.values.sum()),
            lb_priced_out=priced_out,
        )

    def run(self) -> ServiceReport:
        pending = deque(
            admission_order(self._queue.jobs, self._policy, seed=self._seed)
        )
        tenancy = [0] * self._cluster.size
        heap: list[tuple[float, int, JobRecord]] = []
        records: list[JobRecord] = []
        t = 0.0
        index = 0
        while pending or heap:
            # Head-of-line admission: stop at the first job that won't fit.
            while pending:
                placement = place_job(pending[0], tenancy, self._max_tenants)
                if placement is None:
                    break
                job = pending.popleft()
                record = self._admit(job, placement, t, index)
                for rank in placement:
                    tenancy[rank] += 1
                heapq.heappush(heap, (record.finished, index, record))
                records.append(record)
                index += 1
            if not heap:
                # Unreachable given the width validation in __init__, but
                # a silent infinite loop would be worse than a loud error.
                raise ConfigurationError(
                    f"admission deadlock: {len(pending)} job(s) pending "
                    f"with nothing running"
                )
            # Advance to the earliest completion; release coincident
            # finishers together so admission sees all freed slots at once.
            finish, _, record = heapq.heappop(heap)
            t = finish
            for rank in record.ranks:
                tenancy[rank] -= 1
            while heap and heap[0][0] == t:
                _, _, other = heapq.heappop(heap)
                for rank in other.ranks:
                    tenancy[rank] -= 1
        return ServiceReport(
            policy=self._policy,
            seed=self._seed,
            max_tenants=self._max_tenants,
            cluster_size=self._cluster.size,
            records=records,
            trace=self._trace if self._trace.enabled else None,
        )
