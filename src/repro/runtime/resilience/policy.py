"""Checkpoint policies: *when* to pay the replication cost.

The paper's Phase D decides whether a remap pays with an explicit
profitability test (predicted savings vs priced cost, Sec. 3.5).  The
resilience subsystem applies the same cost-reasoning style to the other
side of the adaptivity axis: how often to checkpoint when a machine may
die *unannounced*.  Two policies are provided:

* :class:`IntervalCheckpoint` — the fixed rule: checkpoint every *k*
  synchronized iterations, the analogue of the paper's fixed
  ``check_interval`` ("the frequency of load balancing is an important
  parameter, its selection is out of the scope of this paper");
* :class:`CostModelCheckpoint` — the profitability-style rule: pick the
  checkpoint interval from the *measured* checkpoint cost ``C`` and an
  operator-supplied mean-time-between-failures estimate ``M`` using
  Young's first-order optimum ``T* = sqrt(2 C M)`` [Young, CACM 1974],
  so an expensive checkpoint (big intervals, slow network) is taken
  rarely and a cheap one often — exactly the trade the
  ``scale-resilience`` experiments sweep.

Both policies are deterministic in replicated inputs only (iteration
number, the synchronized boundary clock, the synchronized measured cost),
so every rank reaches the identical conclusion without a message — the
same argument that makes the distributed load-balance check correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Protocol, runtime_checkable

from repro.errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.loadmodel import MembershipTrace

__all__ = [
    "CheckpointPolicy",
    "IntervalCheckpoint",
    "CostModelCheckpoint",
    "POLICY_NAMES",
    "format_checkpoint_policy",
    "parse_checkpoint_policy",
    "require_checkpoint",
    "resolve_checkpoint_policy",
]

#: Recognized policy names (the CLI DSL vocabulary of
#: :func:`parse_checkpoint_policy`).
POLICY_NAMES = ("interval", "cost")


@runtime_checkable
class CheckpointPolicy(Protocol):
    """One checkpoint-scheduling rule (evaluated redundantly per rank).

    ``due`` is consulted once per synchronized iteration boundary.  Its
    inputs are replicated — the 0-based iteration that just completed,
    the synchronized boundary clock, the clock of the last checkpoint,
    and its measured synchronized cost — and implementations must be
    deterministic in them: ranks that disagree on whether a checkpoint
    is due deadlock the replication ring.

    ``replication_factor`` is how many distinct ring successors each
    data-holding rank replicates to when an epoch is taken: ``k``
    successors survive any ``k`` correlated failures within one epoch's
    ring neighborhood, at ``k`` messages per owner per checkpoint.
    """

    name: str
    replication_factor: int

    def due(
        self,
        iteration: int,
        boundary_clock: float,
        *,
        last_checkpoint_clock: float,
        checkpoint_cost: float,
    ) -> bool:
        """Whether to checkpoint at the end of *iteration* (0-based)."""
        ...


def _check_replication_factor(factor: int) -> None:
    if factor < 1:
        raise ResilienceError(
            f"replication_factor must be >= 1 ring successor, got {factor}"
        )


@dataclass(frozen=True)
class IntervalCheckpoint:
    """Checkpoint every *k* synchronized iterations (the fixed rule)."""

    k: int
    name: ClassVar[str] = "interval"
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ResilienceError(
                f"checkpoint interval must be >= 1 iteration, got {self.k}"
            )
        _check_replication_factor(self.replication_factor)

    def due(
        self,
        iteration: int,
        boundary_clock: float,
        *,
        last_checkpoint_clock: float,
        checkpoint_cost: float,
    ) -> bool:
        return (iteration + 1) % self.k == 0


@dataclass(frozen=True)
class CostModelCheckpoint:
    """Young's interval from the measured cost and a failure-rate estimate.

    ``mtbf`` is the operator's mean-time-between-failures estimate in
    *virtual* seconds (the replicated knowledge a real deployment gets
    from its fleet history).  With ``C`` the last checkpoint's measured
    synchronized cost, a checkpoint is due once
    ``boundary_clock - last_checkpoint_clock >= sqrt(2 * C * mtbf)`` —
    the first-order optimum balancing checkpoint overhead against the
    expected re-execution loss.
    """

    mtbf: float
    name: ClassVar[str] = "cost"
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mtbf) and self.mtbf > 0):
            raise ResilienceError(
                f"mtbf must be a finite positive virtual-second estimate, "
                f"got {self.mtbf}"
            )
        _check_replication_factor(self.replication_factor)

    def interval(self, checkpoint_cost: float) -> float:
        """The target interval ``sqrt(2 C M)``."""
        return math.sqrt(2.0 * max(checkpoint_cost, 0.0) * self.mtbf)

    def due(
        self,
        iteration: int,
        boundary_clock: float,
        *,
        last_checkpoint_clock: float,
        checkpoint_cost: float,
    ) -> bool:
        elapsed = boundary_clock - last_checkpoint_clock
        return elapsed >= self.interval(checkpoint_cost)


def parse_checkpoint_policy(spec: str) -> CheckpointPolicy:
    """Parse the ``--checkpoint`` CLI mini-language.

    Two forms, each with an optional replication suffix::

        interval:K[:rF]   checkpoint every K synchronized iterations
        cost:MTBF[:rF]    Young's interval for an MTBF estimate (virtual s)

    ``:rF`` sets the replication factor — every data-holding rank ships
    its epoch to its F distinct ring successors, so F correlated
    failures per ring neighborhood stay recoverable ("interval:4:r2").
    Malformed specs raise :class:`~repro.errors.ResilienceError` with the
    offending token and the accepted vocabulary spelled out.
    """
    token = spec.strip()
    parts = [p.strip() for p in token.split(":")]
    name = parts[0]
    if name not in POLICY_NAMES:
        raise ResilienceError(
            f"unknown checkpoint policy {name or token!r}; known policies: "
            f"'interval:K' (every K iterations) and 'cost:MTBF' "
            f"(Young's interval for an MTBF estimate in virtual seconds), "
            f"each with an optional ':rF' replication-factor suffix"
        )
    if len(parts) < 2 or not parts[1]:
        raise ResilienceError(
            f"checkpoint policy {token!r} is missing its parameter: use "
            f"'interval:K' or 'cost:MTBF' (optionally ':rF' for F replicas)"
        )
    if len(parts) > 3:
        raise ResilienceError(
            f"checkpoint policy {token!r} has too many ':' segments: use "
            f"'interval:K[:rF]' or 'cost:MTBF[:rF]'"
        )
    replication = 1
    if len(parts) == 3:
        suffix = parts[2]
        if not suffix.startswith("r") or not suffix[1:].isdigit():
            raise ResilienceError(
                f"checkpoint policy {token!r}: the replication suffix must "
                f"look like 'r2' (an 'r' followed by a whole number of "
                f"ring successors), got {suffix!r}"
            )
        replication = int(suffix[1:])
    arg = parts[1]
    if name == "interval":
        try:
            k = int(arg)
        except ValueError:
            raise ResilienceError(
                f"checkpoint policy {token!r}: interval takes a whole "
                f"number of iterations, got {arg!r}"
            ) from None
        return IntervalCheckpoint(k, replication_factor=replication)
    try:
        mtbf = float(arg)
    except ValueError:
        raise ResilienceError(
            f"checkpoint policy {token!r}: cost takes an MTBF estimate in "
            f"virtual seconds, got {arg!r}"
        ) from None
    return CostModelCheckpoint(mtbf, replication_factor=replication)


def format_checkpoint_policy(policy: CheckpointPolicy) -> str:
    """The DSL spelling of *policy*: ``parse(format(p)) == p``.

    The replication suffix is omitted at the default ``r1`` so a spec
    without one survives parse→format→parse byte-identically; the MTBF
    is formatted with :func:`repr` so the float round-trips exactly.
    """
    if isinstance(policy, IntervalCheckpoint):
        base = f"interval:{policy.k}"
    elif isinstance(policy, CostModelCheckpoint):
        base = f"cost:{_format_float(policy.mtbf)}"
    else:
        raise ResilienceError(
            f"cannot format a {type(policy).__name__} as a --checkpoint "
            f"spec; only the built-in interval/cost policies have a DSL "
            f"spelling"
        )
    if policy.replication_factor != 1:
        base += f":r{policy.replication_factor}"
    return base


def _format_float(x: float) -> str:
    """Exact round-trip float text, integers spelled without '.0'."""
    return repr(int(x)) if x == int(x) else repr(x)


def resolve_checkpoint_policy(
    spec: "CheckpointPolicy | str | None",
) -> CheckpointPolicy | None:
    """Normalize a policy spec: an instance, a DSL string, or ``None``."""
    if spec is None or isinstance(spec, (IntervalCheckpoint, CostModelCheckpoint)):
        return spec
    if isinstance(spec, str):
        return parse_checkpoint_policy(spec)
    if isinstance(spec, CheckpointPolicy):
        return spec
    raise ResilienceError(
        f"cannot resolve a checkpoint policy from {type(spec).__name__}"
    )


def require_checkpoint(
    trace: "MembershipTrace | None", policy: CheckpointPolicy | None
) -> None:
    """A failure without an epoch to roll back to is unrecoverable.

    The driver applies the rule before the ranks launch, the session
    again so a directly-built one is protected too.
    """
    if trace is not None and trace.has_failures and policy is None:
        raise ResilienceError(
            "the membership trace contains unannounced 'fail' events; "
            "recovery needs a checkpoint policy — set "
            "ProgramConfig.checkpoint (e.g. \"interval:4\") or pass "
            "--checkpoint on the CLI"
        )
