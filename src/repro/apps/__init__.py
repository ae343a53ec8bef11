"""Example applications built on the public runtime API."""

from repro.apps.adaptive_refinement import (
    AdaptiveRunReport,
    MovingHotspot,
    run_adaptive_application,
)
from repro.apps.mesh_smoothing import (
    SmoothingResult,
    smooth_mesh,
    verify_against_sequential,
)
from repro.apps.sparse_matvec import (
    SymmetricPatternMatrix,
    run_parallel_spmv,
    spmv_sequential,
)
from repro.apps.workloads import adaptive_testbed, random_capabilities

__all__ = [
    "AdaptiveRunReport",
    "MovingHotspot",
    "SmoothingResult",
    "run_adaptive_application",
    "SymmetricPatternMatrix",
    "adaptive_testbed",
    "random_capabilities",
    "run_parallel_spmv",
    "smooth_mesh",
    "spmv_sequential",
    "verify_against_sequential",
]
