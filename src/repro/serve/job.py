"""Job specifications and queues for the multi-tenant service.

A :class:`JobSpec` is a *complete, serializable* description of one
submitted program: the graph (a seeded :func:`~repro.graph.paper_mesh`),
the iteration count, the schedule strategy, how many processors the job
wants, and a priority class.  Like :class:`repro.fuzz.Scenario` it is
plain data on purpose — specs round-trip through JSON, so a job stream
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.adaptive import STRATEGY_NAMES
from repro.runtime.inspector import STRATEGIES
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.runtime.program import ProgramConfig

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
class JobSpec:
    """One submitted program, fully determined and JSON-serializable."""

    job_id: str
    vertices: int
    iterations: int
    #: How many processors the job requests (its gang width).
    ranks: int
    #: Priority class: higher admits first; ties follow the admission
    #: policy's order.  Default 0 = everything in one class.
    priority: int = 0
    seed: int = 1995
    strategy: str = "sort2"
    load_balance: str = "centralized"
    check_interval: int = 4

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be a non-empty string")
        if self.vertices < 16:
            raise ConfigurationError(
                f"job {self.job_id!r} needs >= 16 vertices for a "
                f"meaningful mesh, got {self.vertices}"
            )
        if self.iterations < 1:
            raise ConfigurationError(
                f"job {self.job_id!r} needs >= 1 iteration, got "
                f"{self.iterations}"
            )
        if self.ranks < 1:
            raise ConfigurationError(
                f"job {self.job_id!r} must request >= 1 rank, got "
                f"{self.ranks}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"job {self.job_id!r}: unknown schedule strategy "
                f"{self.strategy!r}; known: {', '.join(STRATEGIES)}"
            )
        if self.load_balance not in STRATEGY_NAMES:
            raise ConfigurationError(
                f"job {self.job_id!r}: unknown load-balance style "
                f"{self.load_balance!r}; known: {', '.join(STRATEGY_NAMES)}"
            )
        if self.check_interval < 1:
            raise ConfigurationError(
                f"job {self.job_id!r}: check_interval must be >= 1, got "
                f"{self.check_interval}"
            )

    def work_estimate(self) -> float:
        """Total work in vertex-sweeps — the shortest-job-first key."""
        return float(self.vertices) * float(self.iterations)

    # ------------------------------------------------------------------ #
    # building the runnable pieces
    # ------------------------------------------------------------------ #

    def build_graph(self) -> "CSRGraph":
        from repro.graph import paper_mesh

        return paper_mesh(self.vertices, seed=self.seed)

    def build_y0(self, graph: "CSRGraph") -> np.ndarray:
        return np.random.default_rng(self.seed).uniform(
            0, 100, graph.num_vertices
        )

    def build_config(self, *, backend: str | None = None) -> "ProgramConfig":
        from repro.runtime import ProgramConfig, resolve_load_balance

        return ProgramConfig(
            iterations=self.iterations,
            strategy=self.strategy,
            backend=backend,
            # Admission cannot know the co-tenant load in advance — the
            # paper's adaptive setup: decompose as if equal, let Phase D
            # react to the measured capability ratios.
            initial_capabilities="equal",
            load_balance=resolve_load_balance(
                self.load_balance, check_interval=self.check_interval
            ),
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": JOB_SCHEMA_VERSION,
            **dataclasses.asdict(self),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a job spec must be a JSON object, got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("schema_version", JOB_SCHEMA_VERSION)
        if version != JOB_SCHEMA_VERSION:
            raise ConfigurationError(
                f"job schema_version {version} is not supported (this "
                f"build reads version {JOB_SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"job spec has unknown field(s) {sorted(unknown)}; known "
                f"fields: {sorted(known | {'schema_version'})}"
            )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"malformed job spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"job spec is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)


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
