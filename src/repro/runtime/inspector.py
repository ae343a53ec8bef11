"""The inspector (paper phase B): translate indices, generate schedules.

"Parallel loops can be transformed into an inspector and an executor.  The
inspector examines the data references and computes the off-processor data
to be fetched.  It also computes where the data will be stored once it is
received." (Sec. 2)

:func:`run_inspector` bundles the three strategy-specific schedule builders
with the kernel-plan address translation into the single per-rank
preprocessing step the executor phase consumes.  It is re-run whenever data
is redistributed (Sec. 3: "In adaptive environments ... phase B is executed
whenever data is redistributed").
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ScheduleError
from repro.graph.csr import CSRGraph
from repro.partition.intervals import IntervalPartition
from repro.runtime.kernels import KernelPlan, build_kernel_plan
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    InspectorCostModel,
    build_schedule_simple,
    build_schedule_sort1,
    build_schedule_sort2,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.comm import RankContext

__all__ = ["STRATEGIES", "InspectorResult", "run_inspector"]

#: The schedule-construction strategies of Table 3.
STRATEGIES = ("simple", "sort1", "sort2")


@dataclass(frozen=True)
class InspectorResult:
    """Everything the executor phase needs for one partition epoch."""

    schedule: CommSchedule
    kernel_plan: KernelPlan
    strategy: str
    build_time: float  # virtual seconds spent building (0 if no ctx)


def run_inspector(
    graph: CSRGraph,
    partition: IntervalPartition,
    rank: int,
    *,
    strategy: str = "sort2",
    ctx: "RankContext | None" = None,
    cost_model: InspectorCostModel = InspectorCostModel(),
) -> InspectorResult:
    """Build this rank's communication schedule and kernel plan.

    ``strategy`` is one of :data:`STRATEGIES`.  The ``simple`` strategy is
    an SPMD collective and therefore requires *ctx*; the sorting strategies
    run locally (ctx, when given, only receives the virtual time charge).
    """
    if strategy not in STRATEGIES:
        raise ScheduleError(
            f"unknown inspector strategy {strategy!r}; pick from {STRATEGIES}"
        )
    t0 = ctx.clock if ctx is not None else 0.0
    span = (
        ctx.tracer.span("inspector", label=strategy)
        if ctx is not None
        else nullcontext()
    )
    with span:
        if strategy == "simple":
            if ctx is None:
                raise ScheduleError(
                    "the 'simple' strategy is communication-based and needs "
                    "a RankContext"
                )
            if ctx.rank != rank:
                raise ScheduleError(
                    f"ctx.rank={ctx.rank} disagrees with rank={rank}"
                )
            schedule = build_schedule_simple(
                graph, partition, ctx=ctx, cost_model=cost_model
            )
        elif strategy == "sort1":
            schedule = build_schedule_sort1(
                graph, partition, rank, ctx=ctx, cost_model=cost_model
            )
        else:
            schedule = build_schedule_sort2(
                graph, partition, rank, ctx=ctx, cost_model=cost_model
            )
        plan = build_kernel_plan(graph, partition, schedule)
    build_time = (ctx.clock - t0) if ctx is not None else 0.0
    if ctx is not None:
        ctx.metrics.count("inspector.full_builds")
        ctx.metrics.observe("inspector.build_time", build_time)
    return InspectorResult(
        schedule=schedule,
        kernel_plan=plan,
        strategy=strategy,
        build_time=build_time,
    )
