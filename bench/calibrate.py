"""A fixed reference kernel that tells how fast the host is right now.

Measured on the 2-core shared VM this benchmark was built on: process CPU
time equals wall time (nothing is stolen), yet identical work takes
1.0x-1.7x its best time, drifting over minutes and jittering within
seconds, by much the same factor for every workload (``NOISE.md``).  It
is the CPU itself that runs slower, so no statistic over the repetitions
of one run can remove it; what can is a reference measured in the same
seconds.

The kernel belongs to the benchmark, never calls the program, and mixes
what the program's hot paths do: an ``argpartition``, a random gather, a
segmented sum, and an interpreter loop.  A run executes it around every
repetition and reports ``median(repetition seconds) * REFERENCE_S /
median(kernel seconds)``: seconds at the speed at which the kernel takes
:data:`REFERENCE_S`.  Medians on both sides, because a 0.1 s kernel
sample catches a burst whole while a 3 s repetition averages over it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "Calibrator"]

#: The kernel's time on the reference host when it is quiet.  Only a scale
#: factor: it puts compensated seconds near raw seconds on that host.
REFERENCE_S = 0.075

_N = 500_000
_PASSES = 2
_LOOPS = 2_000_000


class Calibrator:
    def __init__(self, size: float = 1.0) -> None:
        """*size* shrinks the kernel for smoke runs; measurements use 1."""
        self._n = n = int(_N * size)
        self._loops = int(_LOOPS * size)
        rng = np.random.default_rng(0)  # the same arrays whatever --seed is
        self._a = rng.random(n)
        self._index = rng.permutation(n)
        self._starts = np.arange(0, n, 6)
        self()  # first touch of the arrays is not a measurement

    def __call__(self) -> float:
        """Host seconds of one pass of the kernel."""
        t0 = time.perf_counter()
        for _ in range(_PASSES):
            np.argpartition(self._a, self._n // 2)
            gathered = self._a[self._index]
            np.add.reduceat(gathered, self._starts)
        total = 0
        for i in range(self._loops):
            total += i & 7
        return time.perf_counter() - t0
