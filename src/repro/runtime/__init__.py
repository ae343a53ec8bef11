"""Phases B-D of the paper's Fig. 1 runtime: inspector/executor (Secs.
3.2-3.3), redistribution (Sec. 3.4), adaptive load balancing (Sec. 3.5)."""

from repro.runtime.adaptive import (
    AdaptiveSession,
    Decision,
    LoadBalanceConfig,
    SessionStats,
    decide,
    estimate_remap_cost,
    redistribute,
    redistribute_fields,
    resolve_load_balance,
    transfer_plan_summary,
)
from repro.runtime.efficiency import (
    cluster_efficiency,
    nonuniform_efficiency,
    sequential_times,
)
from repro.runtime.executor import (
    ExecutorCostModel,
    ExecutorScratch,
    gather,
    scatter,
)
from repro.runtime.incremental import (
    IncrementalInspector,
    IntervalDiff,
    diff_interval,
    inspector_results_equal,
)
from repro.runtime.inspector import STRATEGIES, InspectorResult, run_inspector
from repro.runtime.kernels import (
    KernelCostModel,
    KernelPlan,
    build_kernel_plan,
    run_sequential,
)
from repro.runtime.monitor import LoadMonitor
from repro.runtime.prediction import LinearTrendPredictor
from repro.runtime.program import (
    ProgramConfig,
    ProgramReport,
    run_program,
)
from repro.runtime.resilience import (
    Checkpoint,
    CheckpointPolicy,
    CostModelCheckpoint,
    IntervalCheckpoint,
    estimate_checkpoint_cost,
    format_checkpoint_policy,
    parse_checkpoint_policy,
    recover_redistribute_fields,
    replica_partners,
    take_checkpoint,
)
from repro.runtime.schedule import CommSchedule
from repro.runtime.schedule_builders import (
    InspectorCostModel,
    build_schedule_no_dedup,
    build_schedule_simple,
    build_schedule_sort1,
    build_schedule_sort2,
    local_references,
)
from repro.runtime.translation import (
    DistributedTranslationTable,
    table_home,
)

__all__ = [
    "AdaptiveSession",
    "Checkpoint",
    "CheckpointPolicy",
    "CommSchedule",
    "CostModelCheckpoint",
    "IntervalCheckpoint",
    "SessionStats",
    "build_schedule_no_dedup",
    "decide",
    "Decision",
    "redistribute_fields",
    "transfer_plan_summary",
    "LinearTrendPredictor",
    "DistributedTranslationTable",
    "ExecutorCostModel",
    "ExecutorScratch",
    "IncrementalInspector",
    "IntervalDiff",
    "diff_interval",
    "inspector_results_equal",
    "InspectorCostModel",
    "InspectorResult",
    "KernelCostModel",
    "KernelPlan",
    "LoadBalanceConfig",
    "LoadMonitor",
    "ProgramConfig",
    "ProgramReport",
    "STRATEGIES",
    "build_kernel_plan",
    "build_schedule_simple",
    "build_schedule_sort1",
    "build_schedule_sort2",
    "cluster_efficiency",
    "estimate_checkpoint_cost",
    "format_checkpoint_policy",
    "estimate_remap_cost",
    "gather",
    "local_references",
    "resolve_load_balance",
    "nonuniform_efficiency",
    "parse_checkpoint_policy",
    "recover_redistribute_fields",
    "redistribute",
    "replica_partners",
    "run_inspector",
    "run_program",
    "run_sequential",
    "scatter",
    "take_checkpoint",
    "sequential_times",
    "table_home",
]
