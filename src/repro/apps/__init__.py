"""Example applications built on the public runtime API."""

from repro.apps.adaptive_refinement import (
    MovingHotspot,
    run_adaptive_application,
)
from repro.apps.workloads import random_capabilities

__all__ = [
    "MovingHotspot",
    "run_adaptive_application",
    "random_capabilities",
]
