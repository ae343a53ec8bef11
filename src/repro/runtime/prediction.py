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
from dataclasses import dataclass, field
from typing import Deque, Protocol

import numpy as np

from repro.errors import LoadBalanceError

__all__ = [
    "CapabilityPredictor",
    "LinearTrendPredictor",
    "make_predictor",
]


class CapabilityPredictor(Protocol):
    """One processor's capability forecaster."""

    def observe(self, capability: float) -> None:
        """Record the capability (items/second) measured in the last phase."""
        ...

    def predict(self) -> float:
        """Forecast the capability of the next phase."""
        ...


@dataclass
class LinearTrendPredictor:
    """Least-squares line over the last *window* phases, extrapolated one
    step — anticipates ramping competing load (someone's build job warming
    up) instead of lagging it.

    Forecasts are clamped to stay within [min_factor, max_factor] of the
    last observation so a noisy fit cannot produce absurd extrapolations.
    """

    window: int = 4
    min_factor: float = 0.25
    max_factor: float = 4.0
    _history: Deque[float] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise LoadBalanceError(f"window must be >= 2, got {self.window}")
        if not (0 < self.min_factor <= 1.0 <= self.max_factor):
            raise LoadBalanceError("need min_factor <= 1 <= max_factor")

    def observe(self, capability: float) -> None:
        if not np.isfinite(capability) or capability <= 0:
            raise LoadBalanceError(
                f"capability observations must be positive, got {capability}"
            )
        self._history.append(float(capability))
        while len(self._history) > self.window:
            self._history.popleft()

    def predict(self) -> float:
        if not self._history:
            raise LoadBalanceError("no observations yet")
        h = np.asarray(self._history)
        if h.size == 1:
            return float(h[0])
        x = np.arange(h.size, dtype=np.float64)
        slope, intercept = np.polyfit(x, h, 1)
        forecast = intercept + slope * h.size
        last = float(h[-1])
        return float(
            np.clip(forecast, last * self.min_factor, last * self.max_factor)
        )


def make_predictor(kind: str, **kwargs: object) -> CapabilityPredictor:
    """Factory by name: 'trend'.  The paper's last-phase rule is no
    predictor at all (``LoadBalanceConfig(predictor=None)``)."""
    factories = {"trend": LinearTrendPredictor}
    if kind not in factories:
        raise LoadBalanceError(
            f"unknown predictor {kind!r}; pick from {sorted(factories)}"
        )
    return factories[kind](**kwargs)  # type: ignore[arg-type]
