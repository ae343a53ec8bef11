"""Cluster and scenario builders shared by the examples, the experiment
harness and the repo benchmark: capability samples and the dynamic-load /
elastic / resilience scenario clusters.
"""

from __future__ import annotations

import numpy as np

from repro.net.cluster import ClusterSpec, uniform_cluster
from repro.net.loadmodel import (
    MembershipEvent,
    MembershipTrace,
    RampLoad,
    StepLoad,
)

__all__ = [
    "random_capabilities",
    "DYNAMIC_SCENARIOS",
    "dynamic_load_cluster",
    "ELASTIC_SCENARIOS",
    "elastic_cluster",
    "RESILIENCE_SCENARIOS",
    "resilient_cluster",
]


def random_capabilities(p: int, rng: np.random.Generator) -> np.ndarray:
    """A random normalized capability vector with no entry below 0.02
    before normalization.

    Used for Table 2's "100 randomly generated samples" of adapting
    capability ratios.
    """
    caps = rng.dirichlet(np.ones(p))
    caps = np.maximum(caps, 0.02)
    return caps / caps.sum()


#: Competing processes a loaded workstation of the scale scenarios runs.
_COMPETING_LOAD = 2.0

#: The dynamic-load scenario names of the ``scale-adaptive`` experiments.
DYNAMIC_SCENARIOS = ("onset", "hotspot", "ramp")


def dynamic_load_cluster(
    p: int,
    scenario: str,
    horizon: float,
) -> ClusterSpec:
    """A uniform pool whose competing load changes *during* the run.

    These are the "dynamic" computational environments of the paper's
    Sec. 1 taxonomy (capabilities change over the run, not just between
    runs), built from the :mod:`repro.net.loadmodel` traces.  *horizon*
    is the expected virtual duration of the run; the traces scale to it
    so every scenario forces its load changes mid-run at any mesh size:

    * ``"onset"`` — two competing processes appear on workstation 0 at 15%
      of the horizon and leave at 55%: the runtime must remap away from the
      loaded machine and then remap back;
    * ``"hotspot"`` — the competing load moves from workstation to
      workstation, holding each for ``horizon / p``: no single remap is
      ever final;
    * ``"ramp"`` — the load on workstation 0 climbs linearly from 0 to
      3 competing processes over the first 70% of the horizon (the
      scenario where multi-phase capability *prediction*, footnote 2,
      can beat the last-value rule).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    cluster = uniform_cluster(p, name=f"dynamic-{scenario}")
    if scenario == "onset":
        return cluster.with_load(
            0,
            StepLoad([
                (0.0, 0.0),
                (0.15 * horizon, _COMPETING_LOAD),
                (0.55 * horizon, 0.0),
            ]),
        )
    if scenario == "hotspot":
        dwell = horizon / p
        for rank in range(p):
            cluster = cluster.with_load(
                rank,
                StepLoad([
                    (0.0, _COMPETING_LOAD if rank == 0 else 0.0),
                    (rank * dwell, _COMPETING_LOAD),
                    ((rank + 1) * dwell, 0.0),
                ]),
            )
        return cluster
    if scenario == "ramp":
        return cluster.with_load(
            0, RampLoad(0.0, 0.7 * horizon, 0.0, 1.5 * _COMPETING_LOAD)
        )
    raise ValueError(
        f"unknown dynamic-load scenario {scenario!r}; "
        f"known: {DYNAMIC_SCENARIOS}"
    )


#: The elastic-membership scenario names of the ``scale-elastic`` experiments.
ELASTIC_SCENARIOS = ("leave-at-peak", "join-midrun", "churn")


def elastic_cluster(
    p: int,
    scenario: str,
    horizon: float,
) -> ClusterSpec:
    """A uniform pool whose *membership* changes during the run.

    These are the elastic computational environments of the paper's Sec. 1
    taxonomy taken to their limit: machines do not merely slow down, they
    appear and disappear.  *horizon* is the expected virtual duration of
    the run on the full pool; the membership events scale to it so every
    scenario forces its changes mid-run at any mesh size:

    * ``"leave-at-peak"`` — the owner of workstation 0 returns at 15% of
      the horizon (two competing processes) and reclaims
      the machine outright at 105%, when its contention is at its peak.  A
      balancing run sheds work soon after the onset and later drains a
      lightly-loaded block; the static baseline rides the full imbalance
      for roughly half its (stretched) run and then pays the same
      mandatory drain;
    * ``"join-midrun"`` — workstation ``p-1`` starts standby and becomes
      available at 40% of the horizon: only a balancing run re-runs the
      profitability test and adopts the extra capability;
    * ``"churn"`` — workstation 1 leaves at 30%, rejoins at 60%, and
      workstation 2 leaves at 90%: no membership decision is ever final,
      and every remap repartitions onto a different-sized active set.

    *horizon* is a **compute-only** estimate (kernel cost x iterations /
    pool size); the real run is longer — communication per iteration, and
    competing loads or shrunken pools stretching every phase they touch —
    which is why the leave-at-peak departure sits at 105%: it lands
    mid-run for the balancing arm and around the halfway point for the
    slower static baseline, so both arms pay the mandatory drain.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if p < 2:
        raise ValueError(f"elastic scenarios need p >= 2, got {p}")
    cluster = uniform_cluster(p, name=f"elastic-{scenario}")
    if scenario == "leave-at-peak":
        cluster = cluster.with_load(
            0, StepLoad([(0.0, 0.0), (0.15 * horizon, _COMPETING_LOAD)])
        )
        trace = MembershipTrace(
            p, [MembershipEvent(1.05 * horizon, "leave", 0)]
        )
    elif scenario == "join-midrun":
        trace = MembershipTrace(
            p,
            [MembershipEvent(0.40 * horizon, "join", p - 1)],
            initially_inactive=[p - 1],
        )
    elif scenario == "churn":
        trace = MembershipTrace(
            p,
            [
                MembershipEvent(0.30 * horizon, "leave", 1),
                MembershipEvent(0.60 * horizon, "join", 1),
                MembershipEvent(0.90 * horizon, "leave", 2 % p),
            ],
        )
    else:
        raise ValueError(
            f"unknown elastic scenario {scenario!r}; known: {ELASTIC_SCENARIOS}"
        )
    return cluster.with_membership(trace)


#: The unannounced-failure scenario names of the ``scale-resilience``
#: experiments.
RESILIENCE_SCENARIOS = ("fail-at-peak", "repeated-failures")


def resilient_cluster(
    p: int,
    scenario: str,
    horizon: float,
) -> ClusterSpec:
    """A uniform pool where machines die *unannounced* during the run.

    The unannounced half of the paper's adaptive-availability axis: a
    workstation crashes (or its owner powers it off) with no drain
    window, taking its memory — and its block of the distributed list —
    with it.  *horizon* is the expected compute-only virtual duration on
    the full pool; event times scale to it so the failures land mid-run
    at any mesh size (the real run is longer — see
    :func:`elastic_cluster` — so fractions here sit early):

    * ``"fail-at-peak"`` — a competing load appears on workstation 0 at
      15% of the horizon and the loaded machine then dies outright at
      45%: the worst moment, when the runtime has just paid remaps to
      shed work *toward* the survivors and the failed rank's block is at
      its most stale since the last checkpoint;
    * ``"repeated-failures"`` — workstation 1 dies at 30% and
      workstation 2 at 60%: no single recovery is final, and the second
      rollback tests the freshly re-replicated epoch, not the original
      one.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if p < 2:
        raise ValueError(f"resilience scenarios need p >= 2, got {p}")
    cluster = uniform_cluster(p, name=f"resilient-{scenario}")
    if scenario == "fail-at-peak":
        cluster = cluster.with_load(
            0, StepLoad([(0.0, 0.0), (0.15 * horizon, _COMPETING_LOAD)])
        )
        trace = MembershipTrace(
            p, [MembershipEvent(0.45 * horizon, "fail", 0)]
        )
    elif scenario == "repeated-failures":
        if p < 3:
            raise ValueError(
                f"repeated-failures needs p >= 3 (two machines die), got {p}"
            )
        trace = MembershipTrace(
            p,
            [
                MembershipEvent(0.30 * horizon, "fail", 1),
                MembershipEvent(0.60 * horizon, "fail", 2),
            ],
        )
    else:
        raise ValueError(
            f"unknown resilience scenario {scenario!r}; "
            f"known: {RESILIENCE_SCENARIOS}"
        )
    return cluster.with_membership(trace)
