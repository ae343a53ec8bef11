"""Capability prediction from multiple past phases.

The paper's footnote 2: the profitability analysis "could be extended to
techniques that would predict the available computational resources based
on more than one previous phase".  This module provides that extension:
per-processor predictors fed one capability observation per load-balance
check, whose forecast the controller can use instead of the last
observation.

Predictors are deliberately simple time-series models — the controller runs
them every few iterations on p numbers, so anything heavier would dwarf the
check cost the paper works to keep small.  No window mean is offered: it
lags a ramping load, and on ``ext_prediction``'s noisy-walk setup a moving
average and an exponential smoothing both lost to the last phase.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import LoadBalanceError

__all__ = ["LinearTrendPredictor"]

#: Phases the trend line is fitted over.
WINDOW = 4
#: A forecast stays within [MIN_FACTOR, MAX_FACTOR] x the last
#: observation, so a noisy fit cannot produce absurd extrapolations.
MIN_FACTOR = 0.25
MAX_FACTOR = 4.0


class LinearTrendPredictor:
    """One processor's forecaster (``LoadBalanceConfig(predictor="trend")``):
    a least-squares line over the last :data:`WINDOW` phases, extrapolated
    one step — anticipates ramping competing load (someone's build job
    warming up) instead of lagging it.
    """

    def __init__(self) -> None:
        self._history: deque[float] = deque(maxlen=WINDOW)

    def observe(self, capability: float) -> None:
        """Record the capability (items/second) measured in the last phase."""
        if not np.isfinite(capability) or capability <= 0:
            raise LoadBalanceError(
                f"capability observations must be positive, got {capability}"
            )
        self._history.append(float(capability))

    def predict(self) -> float:
        """Forecast the capability of the next phase."""
        if not self._history:
            raise LoadBalanceError("no observations yet")
        h = np.asarray(self._history)
        if h.size == 1:
            return float(h[0])
        x = np.arange(h.size, dtype=np.float64)
        slope, intercept = np.polyfit(x, h, 1)
        forecast = intercept + slope * h.size
        last = float(h[-1])
        return float(np.clip(forecast, last * MIN_FACTOR, last * MAX_FACTOR))
