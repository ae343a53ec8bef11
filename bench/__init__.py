"""The repo benchmark: four workloads, four end-to-end metrics, a layer trace.

``python -m bench run`` measures; ``python -m bench trace`` is the separate
traced run that yields the per-layer numbers; ``python -m bench noise``
measures the benchmark's own run-to-run spread.  See ``bench/README.md``.

This is *not* ``benchmarks/`` (the legacy pytest-benchmark shape suite).
"""

import os

#: The checkout the benchmark lives in, and where runs leave their outputs.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
