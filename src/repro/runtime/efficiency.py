"""Efficiency metric for nonuniform environments (Sec. 4).

E(p_1..p_n) = (1/T(all)) / sum_i 1/T(p_i), where T(p_i) is the time
processor i alone would need for the whole task.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.net.cluster import ClusterSpec

__all__ = [
    "nonuniform_efficiency",
    "sequential_times",
    "cluster_efficiency",
]


def nonuniform_efficiency(
    parallel_time: float, sequential_times_: Sequence[float]
) -> float:
    """E = (1/T_par) / sum_i (1/T_i) — Sec. 4's static definition.

    Equals classic efficiency T_seq/(p*T_par) when all machines are equal;
    bounded by 1 when there are no parallelization overheads.
    """
    if parallel_time <= 0:
        raise ConfigurationError(f"parallel_time must be > 0, got {parallel_time}")
    seq = np.asarray(sequential_times_, dtype=np.float64)
    if seq.size == 0 or np.any(seq <= 0):
        raise ConfigurationError("sequential times must be positive")
    return float((1.0 / parallel_time) / np.sum(1.0 / seq))


def sequential_times(cluster: ClusterSpec, work_seconds: float) -> list[float]:
    """T(p_i): time each processor alone would need for the whole task.

    For dedicated machines this is work/speed; loaded machines integrate
    their competing-load trace from t=0.
    """
    if work_seconds <= 0:
        raise ConfigurationError(f"work_seconds must be > 0, got {work_seconds}")
    return [proc.finish_time(0.0, work_seconds) for proc in cluster.processors]


def cluster_efficiency(
    cluster: ClusterSpec, parallel_time: float, work_seconds: float
) -> float:
    """Static efficiency of a run on *cluster* doing *work_seconds* of
    unit-speed work in *parallel_time* virtual seconds."""
    return nonuniform_efficiency(
        parallel_time, sequential_times(cluster, work_seconds)
    )
