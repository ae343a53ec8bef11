"""Example applications built on the public runtime API."""

from repro.apps.adaptive_refinement import (
    AdaptiveRunReport,
    MovingHotspot,
    run_adaptive_application,
)
from repro.apps.workloads import random_capabilities

__all__ = [
    "AdaptiveRunReport",
    "MovingHotspot",
    "run_adaptive_application",
    "random_capabilities",
]
