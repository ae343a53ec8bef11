"""Job specifications and queues for the multi-tenant service.

A :class:`JobSpec` is a *complete, serializable* description of one
submitted program: the graph (a seeded :func:`~repro.graph.paper_mesh`),
the iteration count, the schedule strategy, how many processors the job
wants, and a priority class.  Like :class:`repro.fuzz.Scenario` it is a
:class:`~repro.runtime.program_spec.ProgramSpec`, plain data on purpose —
specs round-trip through JSON, so a job stream
is a JSONL file (one spec per line) that diffs cleanly and replays
exactly.

:func:`generate_stream` composes the canonical seeded streams the
``scale-service`` experiments use: ``uniform`` (iid widths and sizes),
``descending`` (widths and work both descending — the adversarial
head-of-line worst case for FIFO admission), and ``mixed``
(alternating wide-long / narrow-short jobs).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.runtime.program_spec import ProgramSpec
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "JOB_SCHEMA_VERSION",
    "STREAM_SHAPES",
    "JobQueue",
    "JobSpec",
    "generate_stream",
]

JOB_SCHEMA_VERSION = 1

#: Canonical seeded job-stream shapes (:func:`generate_stream`).
STREAM_SHAPES = ("uniform", "descending", "mixed")


@dataclass(frozen=True)
class JobSpec(ProgramSpec):
    """One submitted program, fully determined and JSON-serializable."""

    MIN_VERTICES = 16
    KIND = "job spec"
    SCHEMA_VERSION = JOB_SCHEMA_VERSION

    job_id: str
    #: How many processors the job requests (its gang width).
    ranks: int
    #: Priority class: higher admits first; ties follow the admission
    #: policy's order.  Default 0 = everything in one class.
    priority: int = 0
    seed: int = field(default=1995, kw_only=True)

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id:
            raise ConfigurationError(
                f"job_id must be a non-empty string, got {self.job_id!r}"
            )
        super().__post_init__()
        self._require_ints("ranks", "priority")
        if self.ranks < 1:
            raise ConfigurationError(
                f"{self.label} must request >= 1 rank, got {self.ranks}"
            )

    @property
    def label(self) -> str:
        return f"job {self.job_id!r}"

    def work_estimate(self) -> float:
        """Total work in vertex-sweeps — the shortest-job-first key."""
        return float(self.vertices) * float(self.iterations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            **dataclasses.asdict(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class JobQueue:
    """An ordered, immutable batch of submitted jobs (unique ids).

    Submission order is the queue order — the FIFO policy's admission
    order.  All jobs are submitted at service time 0 (a batch stream);
    queue-wait is therefore simply each job's admission time.
    """

    def __init__(self, jobs: Sequence[JobSpec]):
        jobs = tuple(jobs)
        if not jobs:
            raise ConfigurationError("a job queue needs at least one job")
        seen: set[str] = set()
        for job in jobs:
            if job.job_id in seen:
                raise ConfigurationError(
                    f"duplicate job_id {job.job_id!r} in the stream; ids "
                    f"must be unique (they key the service report)"
                )
            seen.add(job.job_id)
        self.jobs = jobs

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def max_width(self) -> int:
        return max(job.ranks for job in self.jobs)

    def total_work(self) -> float:
        return sum(job.work_estimate() for job in self.jobs)

    @classmethod
    def from_jsonl(cls, text: str) -> "JobQueue":
        jobs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                jobs.append(JobSpec.from_json(line))
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"job stream line {lineno}: {exc}"
                ) from None
        if not jobs:
            raise ConfigurationError(
                "job stream contains no jobs (blank lines and '#' comments "
                "are skipped); expected one JSON job spec per line"
            )
        return cls(jobs)

    def __repr__(self) -> str:
        return f"JobQueue({len(self.jobs)} jobs, max width {self.max_width()})"


def generate_stream(
    shape: str,
    n_jobs: int,
    *,
    max_ranks: int,
    seed: SeedLike = 1995,
) -> JobQueue:
    """The canonical seeded job streams (deterministic per seed).

    ``descending`` submits jobs in strictly non-increasing width *and*
    work order: the widest, longest job arrives first.  Under FIFO
    admission with head-of-line blocking that is the classic worst case —
    the remainder ranks a wide job cannot use sit idle while every
    narrow job queues behind it.  A seeded random permutation (or SJF)
    lets the narrow jobs backfill, which is exactly the Lee & Wright
    "random permutations fix a worst case" effect the admission policies
    exist to demonstrate.
    """
    if shape not in STREAM_SHAPES:
        raise ConfigurationError(
            f"unknown stream shape {shape!r}; known: "
            f"{', '.join(STREAM_SHAPES)}"
        )
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    if max_ranks < 1:
        raise ConfigurationError(f"max_ranks must be >= 1, got {max_ranks}")
    rng = as_generator(seed)
    jobs: list[JobSpec] = []
    for i in range(n_jobs):
        job_seed = int(rng.integers(0, 2**31 - 1))
        if shape == "descending":
            # A few wide, long jobs head the stream; the many narrow,
            # short jobs behind them carry most of the aggregate work.
            # Widths are chosen so consecutive wide jobs cannot co-run
            # (width0 + width1 > max_ranks): FIFO's head-of-line blocking
            # then idles the remainder ranks for the whole head job while
            # every narrow job queues.
            n_wide = max(2, n_jobs // 6)
            if i < n_wide:
                width = max(2, (5 * max_ranks) // 8 - i)
                vertices = max(160, 320 - 32 * i)
                iterations = 4
            else:
                frac = (n_jobs - 1 - i) / max(n_jobs - 1 - n_wide, 1)
                width = 1
                vertices = 96 + 8 * int(round(frac * 4))
                iterations = 4
        elif shape == "uniform":
            width = int(rng.integers(1, max_ranks + 1))
            vertices = 8 * int(rng.integers(8, 33))
            iterations = int(rng.integers(3, 7))
        else:  # mixed: alternating wide-long / narrow-short
            if i % 2 == 0:
                width = max(2, max_ranks // 2 + 1)
                vertices = 8 * int(rng.integers(24, 41))
                iterations = int(rng.integers(5, 8))
            else:
                width = 1
                vertices = 8 * int(rng.integers(8, 13))
                iterations = int(rng.integers(2, 4))
        jobs.append(
            JobSpec(
                job_id=f"{shape}-{i:03d}",
                vertices=vertices,
                iterations=iterations,
                ranks=min(width, max_ranks),
                seed=job_seed,
            )
        )
    return JobQueue(jobs)
