"""Example applications built on the public runtime API."""

from repro.apps.adaptive_refinement import (
    AdaptiveRunReport,
    MovingHotspot,
    run_adaptive_application,
)
from repro.apps.sparse_matvec import (
    SymmetricPatternMatrix,
    run_parallel_spmv,
    spmv_sequential,
)
from repro.apps.workloads import random_capabilities

__all__ = [
    "AdaptiveRunReport",
    "MovingHotspot",
    "run_adaptive_application",
    "SymmetricPatternMatrix",
    "random_capabilities",
    "run_parallel_spmv",
    "spmv_sequential",
]
