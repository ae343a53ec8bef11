"""Cluster specifications: a set of processors plus a network model.

Factory helpers build the environments used throughout the paper's
evaluation: a homogeneous workstation pool, the heterogeneous SUN4-like pool
of Tables 3-5, and adaptive variants with a competing load injected on one
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.loadmodel import ConstantLoad, LoadTrace, MembershipTrace, NoLoad
from repro.net.network import ETHERNET_10MBIT, NetworkModel, PointToPointNetwork
from repro.net.processor import ProcessorSpec

__all__ = [
    "ClusterSpec",
    "uniform_cluster",
    "heterogeneous_cluster",
    "sun4_cluster",
    "adaptive_cluster",
    "SUN4_SPEEDS",
]

#: Relative speeds for the five-workstation pool used to mimic the paper's
#: Tables 3-5.  Workstation 1 is the fastest; later machines are slower, so
#: adding them raises throughput but lowers parallel efficiency, matching the
#: declining efficiency column of Table 4.
SUN4_SPEEDS: tuple[float, ...] = (1.0, 0.95, 0.80, 0.70, 0.55)


@dataclass(frozen=True)
class ClusterSpec:
    """An immutable description of a simulated cluster.

    ``membership`` (optional) records when machines join or leave the pool
    at runtime (the elastic axis of the paper's adaptive environments); a
    cluster without a trace is statically provisioned.
    """

    processors: tuple[ProcessorSpec, ...]
    network_factory: Callable[[], NetworkModel] = field(default=PointToPointNetwork)
    name: str = "cluster"
    membership: MembershipTrace | None = None

    def __post_init__(self) -> None:
        if not self.processors:
            raise ConfigurationError("a cluster needs at least one processor")
        if (
            self.membership is not None
            and self.membership.world_size != len(self.processors)
        ):
            raise ConfigurationError(
                f"membership trace describes a world of "
                f"{self.membership.world_size} ranks, cluster has "
                f"{len(self.processors)}"
            )

    @property
    def size(self) -> int:
        return len(self.processors)

    @property
    def speeds(self) -> np.ndarray:
        """Relative base speeds as a float vector."""
        return np.array([p.speed for p in self.processors], dtype=np.float64)

    def effective_speeds(self, t: float = 0.0) -> np.ndarray:
        """Unnormalized effective speeds at *t*, ignoring membership.

        This is the raw machine view: what each workstation could deliver if
        it were participating.  Membership masking happens in the load
        balancer's :func:`~repro.runtime.adaptive.decide`, from
        :meth:`active_mask`.
        """
        return np.array(
            [p.effective_speed(t) for p in self.processors], dtype=np.float64
        )

    def active_mask(self, t: float = 0.0) -> np.ndarray:
        """Boolean active-rank mask at *t* (all-true without a trace)."""
        if self.membership is None:
            return np.ones(self.size, dtype=bool)
        return self.membership.active_mask(t)

    def failed_mask(self, t: float = 0.0) -> np.ndarray:
        """Ranks that have *failed* by *t* (all-false without a trace).

        Failure destroys a machine's memory; a graceful leave does not.
        The distinction is what :mod:`repro.runtime.resilience` builds on:
        checkpoint replicas survive leaves but not failures.
        """
        if self.membership is None:
            return np.zeros(self.size, dtype=bool)
        return self.membership.failed_mask(t)

    def make_network(self) -> NetworkModel:
        """Instantiate a fresh network model (contention state reset)."""
        net = self.network_factory()
        net.reset()
        return net

    def subset(self, ranks: Sequence[int]) -> "ClusterSpec":
        """A cluster using only the listed processors (paper's "workstations
        1,2,3" notation selects prefixes of the pool).  A membership trace
        is re-indexed onto the sub-world; events for dropped ranks vanish."""
        ranks = list(ranks)
        if not ranks:
            raise ConfigurationError("subset needs at least one rank")
        if any(r < 0 or r >= self.size for r in ranks):
            raise ConfigurationError(f"subset ranks out of range: {ranks}")
        sub_membership = None
        if self.membership is not None:
            try:
                sub_membership = self.membership.subset(ranks)
            except ValueError as exc:
                # E.g. the kept ranks all start standby, or the surviving
                # events empty the active set: not a runnable sub-world.
                raise ConfigurationError(
                    f"membership trace does not restrict to ranks "
                    f"{ranks}: {exc}"
                ) from None
        return replace(
            self,
            processors=tuple(self.processors[r] for r in ranks),
            name=f"{self.name}[{','.join(map(str, ranks))}]",
            membership=sub_membership,
        )

    def with_load(self, rank: int, load: LoadTrace) -> "ClusterSpec":
        """A copy with a competing-load trace attached to one processor."""
        if rank < 0 or rank >= self.size:
            raise ConfigurationError(f"rank {rank} out of range for with_load")
        procs = list(self.processors)
        procs[rank] = procs[rank].with_load(load)
        return replace(self, processors=tuple(procs))

    def with_loads(self, loads: Mapping[int, LoadTrace]) -> "ClusterSpec":
        """A copy with competing-load traces attached to several processors.

        Each entry *replaces* the rank's existing trace.  The job service
        uses this to project all co-tenant activity onto a job's
        sub-cluster in one step.
        """
        procs = list(self.processors)
        for rank, load in loads.items():
            if rank < 0 or rank >= self.size:
                raise ConfigurationError(
                    f"rank {rank} out of range for with_loads"
                )
            procs[rank] = procs[rank].with_load(load)
        return replace(self, processors=tuple(procs))

    def with_membership(self, trace: MembershipTrace | None) -> "ClusterSpec":
        """A copy whose active rank set follows *trace* (None detaches)."""
        return replace(self, membership=trace)


def uniform_cluster(
    n: int,
    *,
    network_factory: Callable[[], NetworkModel] = PointToPointNetwork,
    name: str = "uniform",
) -> ClusterSpec:
    """*n* identical dedicated workstations of relative speed 1."""
    if n < 1:
        raise ConfigurationError(f"cluster size must be >= 1, got {n}")
    procs = tuple(
        ProcessorSpec(speed=1.0, load=NoLoad(), name=f"ws{i}") for i in range(n)
    )
    return ClusterSpec(procs, network_factory, name)


def heterogeneous_cluster(
    speeds: Sequence[float],
    *,
    network_factory: Callable[[], NetworkModel] = PointToPointNetwork,
    name: str = "hetero",
) -> ClusterSpec:
    """Workstations with the given relative speeds (nonuniform environment)."""
    if len(speeds) < 1:
        raise ConfigurationError("need at least one speed")
    procs = tuple(
        ProcessorSpec(speed=float(s), load=NoLoad(), name=f"ws{i}")
        for i, s in enumerate(speeds)
    )
    return ClusterSpec(procs, network_factory, name)


def sun4_cluster(
    n: int = 5,
    *,
    ethernet: bool = True,
    name: str = "sun4",
) -> ClusterSpec:
    """The paper's testbed: up to five SUN4-class workstations on Ethernet.

    ``n`` selects the prefix (the paper reports pools "1,2", "1,2,3", ...).
    """
    if not (1 <= n <= len(SUN4_SPEEDS)):
        raise ConfigurationError(
            f"sun4_cluster supports 1..{len(SUN4_SPEEDS)} workstations, got {n}"
        )
    factory: Callable[[], NetworkModel] = (
        ETHERNET_10MBIT if ethernet else PointToPointNetwork
    )
    return heterogeneous_cluster(
        SUN4_SPEEDS[:n], network_factory=factory, name=name
    )


def adaptive_cluster(
    n: int = 5,
    *,
    competing_load: float = 1.0,
    ethernet: bool = True,
) -> ClusterSpec:
    """The Table-5 environment: the SUN4 pool with a constant competing load
    on one workstation (the paper loads "processor 1", its first machine).

    The paper's single-workstation adaptive run (290.93 s) is ~3x its
    static run (97.61 s), implying roughly two competing processes on the
    loaded machine: Table 5 reproductions pass ``competing_load=2.0``.
    """
    base = sun4_cluster(n, ethernet=ethernet, name="sun4-adaptive")
    return base.with_load(0, ConstantLoad(competing_load))
