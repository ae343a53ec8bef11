"""Per-processor load monitoring (Sec. 3.5, phase D's first step).

"One metric we have used is the average computation time per data item.
Each processor computes this information by dividing the total time spent
on the computation by the number of data elements it owned."

:class:`LoadMonitor` accumulates (virtual compute seconds, items) samples
between load-balance checks and reports the average time per item over the
current window, which the controller inverts into a capability estimate.
It also keeps each sample's time per item, so :meth:`LoadMonitor.persistence`
can say for how many iterations the load has held since it last stepped:
the evidence the profitability test needs before it forecasts that load
further.  Its latest sample is the load a rebuild started now runs under.
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
        """How many samples (iterations) have passed since the latest
        *step*, the sample after the step included; ``inf`` while no step
        has been seen (or there is no sample): a load never seen to
        change has no observed end.

        A step is a pair of consecutive samples whose times per item
        differ by more than *tolerance* (relative) of the earlier one.  A
        drift, however far it goes, is not a step: a ramp keeps its whole
        horizon rather than reading as a load that has just begun.
        """
        history = self.history
        for held in range(1, len(history)):
            earlier, later = history[-held - 1], history[-held]
            if abs(later - earlier) > tolerance * earlier:
                return float(held)
        return float("inf")

    @property
    def latest_time_per_item(self) -> float:
        """Time per item of the latest sample that had items (``nan``
        before the first): the load the rank runs under now."""
        return self.history[-1] if self.history else float("nan")

    def reset_window(self) -> None:
        """Start a new observation window (after each load-balance check)."""
        self.window_seconds = 0.0
        self.window_items = 0
