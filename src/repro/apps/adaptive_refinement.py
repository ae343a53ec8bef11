"""Adaptive *applications*: the computational structure itself adapts.

Paper footnote 1: "For these classes of applications the computational
structure adapts after every few iterations" — e.g. adaptive mesh
refinement concentrating work where the solution is interesting.  Phase B
must then re-run after every adaptation even in a *static* environment.

We model refinement as per-vertex computational weights that follow a
moving hotspot across the mesh (a shock front sweeping the domain).  The
driver repartitions with **weighted** intervals
(:func:`repro.partition.weighted.partition_weighted_list`) whenever the
weights change, then hands the remap to
:meth:`repro.runtime.adaptive.AdaptiveSession.remap_to` — the same
redistribute-and-rebuild path the load-balancing strategies use, driven
here by adaptation instead of a profitability check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.net.cluster import ClusterSpec
from repro.net.spmd import run_spmd
from repro.partition.rcb import RCBOrdering
from repro.partition.weighted import partition_weighted_list
from repro.runtime.adaptive import AdaptiveSession
from repro.runtime.executor import gather
from repro.runtime.kernels import KernelCostModel

__all__ = ["MovingHotspot", "AdaptiveRunReport", "run_adaptive_application"]


@dataclass(frozen=True)
class MovingHotspot:
    """A weight field: 1 + amplitude * gaussian bump sweeping the domain.

    ``weights(phase)`` returns the per-vertex computational weights for the
    given adaptation phase; the bump's center moves linearly from the left
    edge of the domain to the right across ``n_phases``.
    """

    graph: CSRGraph
    amplitude: float = 9.0
    radius_fraction: float = 0.15
    n_phases: int = 8

    def __post_init__(self) -> None:
        if self.graph.coords is None:
            raise ConfigurationError("MovingHotspot needs vertex coordinates")
        if self.amplitude < 0 or not (0 < self.radius_fraction <= 1):
            raise ConfigurationError("bad hotspot parameters")
        if self.n_phases < 1:
            raise ConfigurationError("n_phases must be >= 1")

    def weights(self, phase: int) -> np.ndarray:
        coords = self.graph.coords
        # Per column: an axis-0 reduction of an (n, 2) array is ~15x slower.
        lo = np.array([column.min() for column in coords.T])
        hi = np.array([column.max() for column in coords.T])
        span = np.where(hi > lo, hi - lo, 1.0)
        frac = (phase % self.n_phases) / max(self.n_phases - 1, 1)
        center = lo + span * np.array([frac] + [0.5] * (coords.shape[1] - 1))
        radius = self.radius_fraction * float(span.max())
        d2 = np.sum((coords - center) ** 2, axis=1)
        return 1.0 + self.amplitude * np.exp(-d2 / (2.0 * radius**2))


@dataclass
class AdaptiveRunReport:
    """Outcome of one adaptive-application run."""

    values: np.ndarray
    makespan: float
    num_repartitions: int
    repartition_time: float  # max over ranks, total virtual seconds
    clocks: list[float]


def run_adaptive_application(
    graph: CSRGraph,
    cluster: ClusterSpec,
    *,
    iterations: int = 60,
    adapt_interval: int = 10,
    hotspot: MovingHotspot | None = None,
    repartition: bool = True,
    y0: np.ndarray | None = None,
) -> AdaptiveRunReport:
    """Run the Fig. 8 loop while the per-vertex work adapts.

    The graph is ordered by RCB and each sweep priced by the default
    :class:`KernelCostModel`.  Every ``adapt_interval`` iterations the
    weight field advances one phase; with ``repartition=True`` the data is
    re-split into weighted intervals (redistribution + inspector rebuild),
    otherwise the initial partition is kept — the baseline showing why
    adaptive applications need phase D even on dedicated machines.
    """
    n = graph.num_vertices
    if iterations < 1 or adapt_interval < 1:
        raise ConfigurationError("iterations and adapt_interval must be >= 1")
    if hotspot is None:
        hotspot = MovingHotspot(graph)
    if y0 is None:
        y0 = np.arange(n, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (n,):
        raise ConfigurationError(f"y0 has shape {y0.shape}, expected ({n},)")
    perm = RCBOrdering()(graph)
    gperm = graph.permute(perm)
    hotspot_p = MovingHotspot(
        gperm, hotspot.amplitude, hotspot.radius_fraction, hotspot.n_phases
    )
    y_init = np.empty(n)
    y_init[perm] = y0
    caps = cluster.speeds

    # A refined vertex does proportionally more work on *all* its terms
    # (more sub-elements -> more references and more updates), so the cost
    # weight scales the full per-vertex sweep cost.
    kernel_cost = KernelCostModel()
    base_cost = (
        kernel_cost.sec_per_reference * gperm.degrees.astype(np.float64)
        + kernel_cost.sec_per_vertex
    )

    def rank_main(ctx: Any) -> dict[str, Any]:
        phase = 0
        cost_w = base_cost * hotspot_p.weights(phase)
        session = AdaptiveSession(
            ctx,
            gperm,
            partition_weighted_list(cost_w, caps),
            total_iterations=iterations,
        )
        lo, hi = session.interval()
        local = y_init[lo:hi].copy()
        for it in range(iterations):
            ghost = gather(ctx, session.schedule, local)
            local = session.kernel_plan.sweep(local, ghost)
            ctx.compute(float(cost_w[lo:hi].sum()), label="kernel")
            ctx.barrier()
            if (it + 1) % adapt_interval == 0 and (it + 1) < iterations:
                phase += 1
                cost_w = base_cost * hotspot_p.weights(phase)
                if repartition:
                    (local,) = session.remap_to(
                        partition_weighted_list(cost_w, caps), (local,)
                    )
                    lo, hi = session.interval()
        pieces = ctx.gather((session.interval()[0], local), root=0)
        full = None
        if ctx.rank == 0:
            full = np.empty(n)
            for piece_lo, data in pieces:
                full[piece_lo : piece_lo + data.size] = data
        return {
            "full": full,
            "repartitions": session.stats.num_remaps,
            "repartition_time": session.stats.remap_time,
        }

    result = run_spmd(cluster, rank_main)
    full_t = result.values[0]["full"]
    assert full_t is not None
    return AdaptiveRunReport(
        values=full_t[perm],
        makespan=result.makespan,
        num_repartitions=result.values[0]["repartitions"],
        repartition_time=max(v["repartition_time"] for v in result.values),
        clocks=result.clocks,
    )
