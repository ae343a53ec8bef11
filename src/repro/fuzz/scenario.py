"""Deterministic adversarial scenarios: seed -> Scenario -> ProgramConfig.

A :class:`Scenario` is a *complete, serializable* description of one
adversarial run: the graph, the cluster (size, speeds, competing-load
steps), the membership churn (the :class:`~repro.net.loadmodel.MembershipTrace`
DSL verbatim, including unannounced ``fail`` events), the checkpoint
policy (the ``--checkpoint`` DSL, including the ``:rF`` replication
suffix), and what the oracle should expect of it.  Scenarios are plain
data on purpose: they round-trip through JSON, diff cleanly in a corpus
directory, and shrink by dropping pieces.

:func:`generate_scenario` is the seeded composer.  It replays the churn
it invents against the same active/standby bookkeeping the real
:class:`MembershipTrace` constructor enforces, so every generated
scenario is *valid by construction* — the fuzzer explores the runtime's
behavior space, not the parser's error space (the CLI error-path tests
own that).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.net.loadmodel import MembershipTrace, StepLoad
from repro.runtime.adaptive import STRATEGY_NAMES
from repro.runtime.inspector import STRATEGIES
from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.csr import CSRGraph
    from repro.net.cluster import ClusterSpec
    from repro.runtime.program import ProgramConfig

__all__ = [
    "EXPECTATIONS",
    "LoadSpec",
    "Scenario",
    "SCENARIO_SCHEMA_VERSION",
    "generate_scenario",
    "generate_scenarios",
]

SCENARIO_SCHEMA_VERSION = 1

#: What the oracle may demand of a scenario's outcome: ``recovered`` (the
#: run must complete), ``diagnosed`` (it must die with a ResilienceError —
#: the deliberately-unrecoverable corpus entries), or ``any`` (either is
#: fine; crashing never is).
EXPECTATIONS = ("recovered", "diagnosed", "any")

#: Rough virtual seconds per iteration per vertex on an unloaded uniform
#: pool — only used to place event times inside the run's lifetime, so a
#: 2x error merely shifts where churn lands.
_PER_VERTEX_ITERATION_S = 2.2e-5


@dataclass(frozen=True)
class LoadSpec:
    """A piecewise-constant competing load on one rank (StepLoad steps)."""

    rank: int
    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"load rank must be >= 0, got {self.rank}"
            )
        object.__setattr__(
            self,
            "steps",
            tuple((float(t), float(load)) for t, load in self.steps),
        )
        StepLoad(self.steps)  # validates ordering / non-negativity

    def as_trace(self) -> StepLoad:
        return StepLoad(self.steps)


@dataclass(frozen=True)
class Scenario:
    """One adversarial run, fully determined and JSON-serializable."""

    seed: int
    vertices: int
    workstations: int
    iterations: int
    strategy: str = "sort2"
    load_balance: str = "centralized"
    check_interval: int = 4
    #: Relative machine speeds; ``None`` means a uniform pool.
    speeds: tuple[float, ...] | None = None
    #: Membership churn in the :meth:`MembershipTrace.parse` DSL
    #: (``None`` = statically provisioned).
    membership: str | None = None
    #: Checkpoint policy in the ``--checkpoint`` DSL, ``:rF`` suffix
    #: included (``None`` = no checkpointing; then the membership may not
    #: contain ``fail`` events).
    checkpoint: str | None = None
    loads: tuple[LoadSpec, ...] = ()
    expect: str = "any"
    #: Optional human label (corpus entries name their edge case).
    name: str = ""

    def __post_init__(self) -> None:
        if self.vertices < 32:
            raise ConfigurationError(
                f"scenario needs >= 32 vertices for a meaningful mesh, "
                f"got {self.vertices}"
            )
        if self.workstations < 1:
            raise ConfigurationError(
                f"scenario needs >= 1 workstation, got {self.workstations}"
            )
        if self.iterations < 1:
            raise ConfigurationError(
                f"scenario needs >= 1 iteration, got {self.iterations}"
            )
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown schedule strategy {self.strategy!r}; known: "
                f"{', '.join(STRATEGIES)}"
            )
        if self.load_balance not in STRATEGY_NAMES:
            raise ConfigurationError(
                f"unknown load-balance style {self.load_balance!r}; known: "
                f"{', '.join(STRATEGY_NAMES)}"
            )
        if self.check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.expect not in EXPECTATIONS:
            raise ConfigurationError(
                f"unknown expectation {self.expect!r}; known: "
                f"{', '.join(EXPECTATIONS)}"
            )
        if self.speeds is not None:
            object.__setattr__(
                self, "speeds", tuple(float(s) for s in self.speeds)
            )
            if len(self.speeds) != self.workstations:
                raise ConfigurationError(
                    f"speeds vector has {len(self.speeds)} entries, "
                    f"scenario has {self.workstations} workstations"
                )
            if any(s <= 0 for s in self.speeds):
                raise ConfigurationError(
                    f"speeds must be positive, got {list(self.speeds)}"
                )
        object.__setattr__(self, "loads", tuple(self.loads))
        for ls in self.loads:
            if ls.rank >= self.workstations:
                raise ConfigurationError(
                    f"load on rank {ls.rank} is out of range for "
                    f"{self.workstations} workstations"
                )
        # Validate the DSLs eagerly so a malformed scenario fails at
        # construction with the parser's actionable message, not inside
        # the rank threads.
        trace = self.membership_trace()
        from repro.runtime.resilience import resolve_checkpoint_policy

        policy = resolve_checkpoint_policy(self.checkpoint)
        if trace is not None and trace.has_failures and policy is None:
            raise ConfigurationError(
                "scenario contains unannounced 'fail' events but no "
                "checkpoint policy; recovery is impossible by "
                "construction — add a checkpoint (e.g. \"interval:2\") "
                "or drop the failures"
            )

    # ------------------------------------------------------------------ #
    # building the runnable pieces
    # ------------------------------------------------------------------ #

    def membership_trace(self) -> MembershipTrace | None:
        if self.membership is None or not self.membership.strip():
            return None
        try:
            return MembershipTrace.parse(self.membership, self.workstations)
        except ValueError as exc:
            raise ConfigurationError(
                f"scenario membership DSL is invalid: {exc}"
            ) from None

    def build_graph(self) -> "CSRGraph":
        from repro.graph import paper_mesh

        return paper_mesh(self.vertices, seed=self.seed)

    def build_y0(self, graph: "CSRGraph") -> np.ndarray:
        return np.random.default_rng(self.seed).uniform(
            0, 100, graph.num_vertices
        )

    def build_cluster(self) -> "ClusterSpec":
        from repro.net import heterogeneous_cluster, uniform_cluster

        if self.speeds is not None:
            cluster = heterogeneous_cluster(self.speeds, name="fuzz")
        else:
            cluster = uniform_cluster(self.workstations, name="fuzz")
        for ls in self.loads:
            cluster = cluster.with_load(ls.rank, ls.as_trace())
        return cluster

    def build_config(self) -> "ProgramConfig":
        from repro.runtime import ProgramConfig, resolve_load_balance

        return ProgramConfig(
            iterations=self.iterations,
            strategy=self.strategy,
            initial_capabilities="equal",
            load_balance=resolve_load_balance(
                self.load_balance, check_interval=self.check_interval
            ),
            membership=self.membership,
            checkpoint=self.checkpoint,
        )

    def baseline(self) -> "Scenario":
        """The quiet twin: same computation, no churn/loads/checkpoints.

        Final values are a function of (graph, y0, iterations) only, so
        the baseline's values are the oracle's reference answer for
        *every* adversarial variation of this scenario.
        """
        return replace(
            self,
            membership=None,
            checkpoint=None,
            loads=(),
            expect="recovered",
            name=f"{self.name}-baseline" if self.name else "baseline",
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "seed": self.seed,
            "vertices": self.vertices,
            "workstations": self.workstations,
            "iterations": self.iterations,
            "strategy": self.strategy,
            "load_balance": self.load_balance,
            "check_interval": self.check_interval,
            "expect": self.expect,
        }
        if self.name:
            out["name"] = self.name
        if self.speeds is not None:
            out["speeds"] = list(self.speeds)
        if self.membership is not None:
            out["membership"] = self.membership
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint
        if self.loads:
            out["loads"] = [
                {"rank": ls.rank, "steps": [list(s) for s in ls.steps]}
                for ls in self.loads
            ]
        return out

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a scenario must be a JSON object, got "
                f"{type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ConfigurationError(
                f"scenario schema_version {version} is not supported "
                f"(this build reads version {SCENARIO_SCHEMA_VERSION})"
            )
        loads = _loads_from_json(data.pop("loads", []))
        speeds = data.pop("speeds", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"scenario has unknown field(s) {sorted(unknown)}; known "
                f"fields: {sorted(known | {'schema_version'})}"
            )
        try:
            return cls(
                loads=loads,
                speeds=tuple(speeds) if speeds is not None else None,
                **data,
            )
        except TypeError as exc:
            raise ConfigurationError(f"malformed scenario: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"scenario is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    def reproducer_command(self) -> str:
        """A runnable one-liner that replays exactly this scenario."""
        compact = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return f"python -m repro fuzz run --scenario '{compact}'"


def _loads_from_json(value: Any) -> tuple[LoadSpec, ...]:
    """``loads`` of a scenario JSON object; a malformed entry is a
    :class:`ConfigurationError` that names it."""
    if not isinstance(value, list):
        raise ConfigurationError(
            f"scenario loads must be a list, got {type(value).__name__}"
        )
    loads = []
    for i, entry in enumerate(value):
        where = f"scenario loads[{i}]"
        if not isinstance(entry, Mapping):
            raise ConfigurationError(
                f"{where} must be an object, got {type(entry).__name__}"
            )
        missing = sorted({"rank", "steps"} - entry.keys())
        if missing:
            raise ConfigurationError(f"{where} is missing {missing}")
        steps = entry["steps"]
        if not isinstance(steps, list):
            raise ConfigurationError(
                f"{where} steps must be a list, got {type(steps).__name__}"
            )
        for step in steps:
            if not isinstance(step, list) or len(step) != 2:
                raise ConfigurationError(
                    f"{where} step {step!r} is not a [time, load] pair"
                )
        try:
            loads.append(LoadSpec(rank=int(entry["rank"]), steps=steps))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where} is invalid: {exc}") from None
    return tuple(loads)


# ---------------------------------------------------------------------- #
# the seeded composer
# ---------------------------------------------------------------------- #


def _round_time(t: float) -> float:
    return round(float(t), 4)


@dataclass
class _Churn:
    """Replicates MembershipTrace's replay bookkeeping while composing."""

    active: set[int]
    joinable: set[int] = field(default_factory=set)  # standby or left
    dead: set[int] = field(default_factory=set)  # failed; never rejoins

    def options(self, *, failures_allowed: bool) -> list[str]:
        kinds: list[str] = []
        if len(self.active) > 1:
            kinds.append("leave")
        if self.joinable:
            kinds.extend(["join", "join"])  # joins weighted up: rarer pool
            if self.active:
                kinds.append("replace")
        if failures_allowed and len(self.active) > 1:
            kinds.extend(["fail", "fail"])
        return kinds


def generate_scenario(seed: SeedLike, *, name: str = "") -> Scenario:
    """Compose one valid adversarial scenario from *seed*.

    Deterministic: the same seed produces the identical scenario on any
    machine (all randomness flows through one
    :func:`~repro.utils.rng.as_generator` stream, consumed in a fixed
    order).
    """
    rng = as_generator(seed)
    scenario_seed = int(rng.integers(0, 2**31 - 1))
    p = int(rng.integers(2, 6))
    vertices = int(rng.integers(15, 51)) * 8  # 120..400
    iterations = int(rng.integers(6, 13))
    strategy = str(rng.choice(STRATEGIES))
    load_balance = str(
        rng.choice(STRATEGY_NAMES, p=[0.2, 0.5, 0.3])
    )
    check_interval = int(rng.integers(2, 6))

    speeds: tuple[float, ...] | None = None
    if rng.random() < 0.5:
        speeds = tuple(
            round(float(s), 2) for s in rng.uniform(0.5, 1.0, size=p)
        )

    checkpoint: str | None = None
    if rng.random() < 0.7:
        replication = int(rng.choice([1, 1, 2, 2, 3]))
        suffix = f":r{replication}" if replication != 1 else ""
        if rng.random() < 0.7:
            checkpoint = f"interval:{int(rng.integers(1, 5))}{suffix}"
        else:
            mtbf = round(float(rng.uniform(0.02, 0.5)), 3)
            checkpoint = f"cost:{mtbf}{suffix}"

    est_makespan = iterations * vertices * _PER_VERTEX_ITERATION_S

    standby: set[int] = set()
    if p >= 3 and rng.random() < 0.4:
        # Keep at least two machines initially active.
        n_standby = int(rng.integers(1, p - 1))
        standby = set(
            int(r) for r in rng.choice(p, size=n_standby, replace=False)
        )
    churn = _Churn(active=set(range(p)) - standby, joinable=set(standby))

    tokens = [f"standby:{r}" for r in sorted(standby)]
    n_events = int(rng.integers(0, 5)) if rng.random() < 0.8 else 0
    if standby and n_events == 0:
        n_events = 1  # a standby pool with no events is dead weight
    times = sorted(
        _round_time(t)
        for t in rng.uniform(0.05, 0.85, size=n_events) * est_makespan
    )
    for t in times:
        kinds = churn.options(failures_allowed=checkpoint is not None)
        if not kinds:
            break
        kind = str(rng.choice(kinds))
        if kind == "leave":
            r = int(rng.choice(sorted(churn.active)))
            churn.active.discard(r)
            churn.joinable.add(r)
            tokens.append(f"leave:{r}@{t}")
        elif kind == "join":
            r = int(rng.choice(sorted(churn.joinable)))
            churn.joinable.discard(r)
            churn.active.add(r)
            tokens.append(f"join:{r}@{t}")
        elif kind == "replace":
            old = int(rng.choice(sorted(churn.active)))
            new = int(rng.choice(sorted(churn.joinable)))
            churn.active.discard(old)
            churn.joinable.discard(new)
            churn.active.add(new)
            churn.joinable.add(old)
            tokens.append(f"replace:{old}->{new}@{t}")
        else:  # fail
            r = int(rng.choice(sorted(churn.active)))
            churn.active.discard(r)
            churn.dead.add(r)
            tokens.append(f"fail:{r}@{t}")
    membership = ", ".join(tokens) if tokens else None

    loads: list[LoadSpec] = []
    for _ in range(int(rng.integers(0, 3))):
        rank = int(rng.integers(0, p))
        if any(ls.rank == rank for ls in loads):
            continue
        n_steps = int(rng.integers(1, 4))
        step_times = sorted(
            _round_time(t)
            for t in rng.uniform(0.0, 0.9, size=n_steps) * est_makespan
        )
        steps = [(0.0, 0.0)] + [
            (t, round(float(rng.uniform(0.0, 2.5)), 2)) for t in step_times
        ]
        loads.append(LoadSpec(rank=rank, steps=tuple(steps)))

    has_failures = any(tok.startswith("fail:") for tok in tokens)
    return Scenario(
        seed=scenario_seed,
        vertices=vertices,
        workstations=p,
        iterations=iterations,
        strategy=strategy,
        load_balance=load_balance,
        check_interval=check_interval,
        speeds=speeds,
        membership=membership,
        checkpoint=checkpoint,
        loads=tuple(loads),
        # Without unannounced failures nothing may abort; with them a
        # correlated burst may legitimately exceed the replication factor,
        # so either a recovery or a diagnosed ResilienceError is fine.
        expect="any" if has_failures else "recovered",
        name=name,
    )


def generate_scenarios(seed: int, budget: int) -> list[Scenario]:
    """The canonical ``--seed S --budget N`` scenario sequence.

    Scenario *i* is derived from child ``i`` of ``SeedSequence(seed)``,
    so the sequence is a stable function of (seed, index): growing the
    budget extends it without perturbing earlier entries.
    """
    if seed < 0:
        raise ConfigurationError(
            f"fuzz seed must be a non-negative integer, got {seed} "
            f"(seeds feed numpy.random.SeedSequence, which rejects "
            f"negatives)"
        )
    if budget < 1:
        raise ConfigurationError(
            f"fuzz budget must be >= 1 scenario, got {budget} — pass "
            f"--budget N for N generated scenarios"
        )
    children = np.random.SeedSequence(seed).spawn(budget)
    return [
        generate_scenario(child, name=f"seed{seed}-{i}")
        for i, child in enumerate(children)
    ]
