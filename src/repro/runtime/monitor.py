"""Per-processor load monitoring (Sec. 3.5, phase D's first step).

"One metric we have used is the average computation time per data item.
Each processor computes this information by dividing the total time spent
on the computation by the number of data elements it owned."

:class:`LoadMonitor` accumulates (virtual compute seconds, items) samples
between load-balance checks and reports the average time per item over the
current window, which the controller inverts into a capability estimate.
It also keeps each sample's time per item, so :meth:`LoadMonitor.persistence`
can say for how many iterations the latest load has held: the evidence
the profitability test needs before it forecasts that load further.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoadBalanceError

__all__ = ["LoadMonitor"]


@dataclass
class LoadMonitor:
    """Sliding-window accumulator of compute time per data item."""

    window_seconds: float = field(default=0.0, init=False)
    window_items: int = field(default=0, init=False)
    total_seconds: float = field(default=0.0, init=False)
    total_items: int = field(default=0, init=False)
    samples: int = field(default=0, init=False)
    #: Time per item of every sample that had items, oldest first.
    history: list[float] = field(default_factory=list, init=False)

    def record(self, compute_seconds: float, items: int) -> None:
        """Record one phase's computation (one kernel sweep, typically)."""
        if compute_seconds < 0 or items < 0:
            raise LoadBalanceError(
                f"negative monitor sample: {compute_seconds}s / {items} items"
            )
        self.window_seconds += compute_seconds
        self.window_items += items
        self.total_seconds += compute_seconds
        self.total_items += items
        self.samples += 1
        if items:
            self.history.append(compute_seconds / items)

    @property
    def has_window(self) -> bool:
        return self.window_items > 0

    def avg_time_per_item(self) -> float:
        """Average compute seconds per data item over the current window."""
        if self.window_items == 0:
            raise LoadBalanceError(
                "no items recorded since the last reset; cannot estimate load"
            )
        return self.window_seconds / self.window_items

    def persistence(self, tolerance: float) -> float:
        """How many trailing samples (iterations) have a time per item
        within *tolerance* (relative) of the latest one, the latest
        included; ``inf`` while every sample so far is (or there is none):
        a load never seen to change has no observed end."""
        latest = self.history[-1] if self.history else 0.0
        band = tolerance * latest
        for held, t in enumerate(reversed(self.history)):
            if abs(t - latest) > band:
                return float(held)
        return float("inf")

    def reset_window(self) -> None:
        """Start a new observation window (after each load-balance check)."""
        self.window_seconds = 0.0
        self.window_items = 0
