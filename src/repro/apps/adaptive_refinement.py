"""Adaptive *applications*: the computational structure itself adapts.

Paper footnote 1: "For these classes of applications the computational
structure adapts after every few iterations" — e.g. adaptive mesh
refinement concentrating work where the solution is interesting.  Phase B
must then re-run after every adaptation even in a *static* environment.

We model refinement as per-vertex computational weights that follow a
moving hotspot across the mesh (a shock front sweeping the domain).  The
application is one :func:`~repro.runtime.run_program` call: each
adaptation is a :class:`~repro.runtime.adaptive.Phase` whose weights
scale the sweep charge and, when repartitioning, whose **weighted**
intervals (:func:`repro.partition.weighted.partition_weighted_list`) the
session remaps to — the same redistribute-and-rebuild path an approved
load-balance decision takes.  World, tracing and checkpoints come in
through the :class:`~repro.runtime.ProgramConfig` it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.net.cluster import ClusterSpec
from repro.partition.ordering import IdentityOrdering, inverse
from repro.partition.rcb import RCBOrdering
from repro.partition.weighted import partition_weighted_list
from repro.runtime.adaptive import Phase
from repro.runtime.program import ProgramConfig, ProgramReport, run_program

__all__ = ["MovingHotspot", "run_adaptive_application"]


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


def run_adaptive_application(
    graph: CSRGraph,
    cluster: ClusterSpec,
    config: ProgramConfig = ProgramConfig(),
    *,
    adapt_interval: int = 10,
    hotspot: MovingHotspot | None = None,
    repartition: bool = True,
    y0: np.ndarray | None = None,
) -> ProgramReport:
    """Run the Fig. 8 loop for ``config.iterations`` while the per-vertex
    work adapts.

    The graph is ordered by RCB (*config*'s ordering is replaced) and each
    sweep priced by *config*'s kernel cost at the current weights.  Every
    ``adapt_interval`` iterations the weight field advances one phase;
    with ``repartition=True`` the data is re-split into weighted intervals
    (redistribution + inspector rebuild), otherwise the initial partition
    is kept — the baseline showing why adaptive applications need phase D
    even on dedicated machines.  The report's values are in *graph*'s
    numbering.
    """
    n = graph.num_vertices
    if adapt_interval < 1:
        raise ConfigurationError("adapt_interval must be >= 1")
    if hotspot is None:
        hotspot = MovingHotspot(graph)
    if y0 is None:
        y0 = np.arange(n, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (n,):
        raise ConfigurationError(f"y0 has shape {y0.shape}, expected ({n},)")
    perm = RCBOrdering()(graph)
    order = inverse(perm)  # the vertex at each position of the 1-D list
    gperm = graph.permute(perm)
    # The weighted split balances each vertex's whole sweep charge.
    kc = config.kernel_cost
    base_cost = kc.sec_per_reference * gperm.degrees + kc.sec_per_vertex
    phases = []
    for k, start in enumerate(range(0, config.iterations, adapt_interval)):
        weights = hotspot.weights(k)[order]
        split = None
        if repartition or k == 0:
            split = partition_weighted_list(base_cost * weights, cluster.speeds)
        phases.append(Phase(start, weights=weights, partition=split))
    report = run_program(
        gperm,
        cluster,
        replace(config, ordering=IdentityOrdering()),
        y0[order],
        phases,
    )
    return replace(report, values=report.values[perm])
