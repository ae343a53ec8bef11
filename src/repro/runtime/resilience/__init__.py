"""Fault tolerance: survive *unannounced* rank failures (Sec. 1's axis).

PR 4's elastic membership covered the announced half of the paper's
adaptive-availability axis — a machine leaves gracefully and its data
drains out first.  This subsystem covers the dominant availability event
on a real network of workstations: a machine dies mid-iteration, taking
its memory (and its block of the distributed list) with it.  Three
pluggable layers, mirroring the Phase D decomposition:

* :mod:`~repro.runtime.resilience.policy` — *when to checkpoint*:
  the :class:`CheckpointPolicy` protocol with the fixed
  :class:`IntervalCheckpoint` and the profitability-style
  :class:`CostModelCheckpoint` (Young's interval from the measured
  checkpoint cost and an MTBF estimate — the paper's cost-reasoning
  style applied to failures);
* :mod:`~repro.runtime.resilience.checkpoint` — *what a checkpoint is*:
  diskless partner replication; each data-holding rank ships its block
  (fields + its interval bounds) in one :class:`~repro.net.message.PackedArrays`
  message to each of its ``replication_factor`` ring successors
  (:func:`replica_partners`) and snapshots its own block locally,
  priced analytically by :func:`estimate_checkpoint_cost` — ``k``
  successors survive any ``k`` correlated failures within one epoch's
  ring neighborhood;
* :mod:`~repro.runtime.resilience.recovery` — *how the world restarts*:
  survivors roll back to the checkpoint epoch and
  :func:`recover_redistribute_fields` reassembles it onto the shrunken
  active set, with each dead source's slabs shipped by its first
  surviving holder.

The driver hooks live in :class:`~repro.runtime.adaptive.session.AdaptiveSession`
(``fail`` events arrive through the same membership poll as joins and
leaves) and are configured through ``ProgramConfig.checkpoint`` /
``repro run --checkpoint "interval:4" --membership "fail:2@7.5"``.
"""

from repro.runtime.resilience.checkpoint import (
    Checkpoint,
    ResilienceState,
    effective_replication_factor,
    estimate_checkpoint_cost,
    normalize_partners,
    replica_partners,
    take_checkpoint,
)
from repro.runtime.resilience.policy import (
    POLICY_NAMES,
    CheckpointPolicy,
    CostModelCheckpoint,
    IntervalCheckpoint,
    format_checkpoint_policy,
    parse_checkpoint_policy,
    require_checkpoint,
    resolve_checkpoint_policy,
)
from repro.runtime.resilience.recovery import (
    check_recoverable,
    recover_redistribute_fields,
)

__all__ = [
    "Checkpoint",
    "CheckpointPolicy",
    "CostModelCheckpoint",
    "IntervalCheckpoint",
    "POLICY_NAMES",
    "ResilienceState",
    "check_recoverable",
    "effective_replication_factor",
    "estimate_checkpoint_cost",
    "format_checkpoint_policy",
    "normalize_partners",
    "parse_checkpoint_policy",
    "recover_redistribute_fields",
    "replica_partners",
    "require_checkpoint",
    "resolve_checkpoint_policy",
    "take_checkpoint",
]
