"""Multi-tenant job service over one shared adaptive cluster.

The paper's premise is that capability changes because *competing jobs
come and go* (Sec. 1, 3.5) — this package closes that loop.  A stream of
:class:`JobSpec` programs is queued (:class:`JobQueue`), admitted under a
pluggable policy (:mod:`~repro.serve.scheduler`: FIFO, seeded random
permutation, shortest-job-first), gang-placed on a tenancy-limited
subset of one shared :class:`~repro.net.ClusterSpec`, and co-scheduled
in virtual time by :class:`ServiceSession` — each running job's measured
per-rank compute becomes the other jobs' competing load through
:class:`~repro.net.loadmodel.ServiceLoad`, so adaptive load balancing
reacts to real co-tenants instead of scripted traces.
:class:`ServiceReport` summarizes the service view: throughput, the
per-job makespan distribution (p50/p99), Jain fairness, and queue waits.

Everything is virtual-time deterministic: the same stream, policy and
seed give bit-identical service metrics.  Entry points: ``repro serve``
(CLI) and the ``scale-service`` experiment family.
"""

from repro.serve.job import (
    JOB_SCHEMA_VERSION,
    STREAM_SHAPES,
    JobQueue,
    JobSpec,
    generate_stream,
)
from repro.serve.scheduler import (
    ADMISSION_POLICIES,
    admission_order,
    place_job,
)
from repro.serve.session import JobRecord, ServiceReport, ServiceSession

__all__ = [
    "ADMISSION_POLICIES",
    "JOB_SCHEMA_VERSION",
    "STREAM_SHAPES",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "ServiceReport",
    "ServiceSession",
    "admission_order",
    "generate_stream",
    "place_job",
]
