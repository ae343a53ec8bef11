"""repro.obs — the unified observability layer.

One package for the three instruments every subsystem shares:

* :class:`Tracer` — hierarchical phase spans recorded into the same
  :class:`~repro.net.trace.TraceLog` as the flat comm/compute events.
* :class:`MetricsRegistry` — typed per-rank counters/gauges/histograms
  with one :func:`merge_snapshots` path into the run reports.
* Exporters — Chrome trace-event JSON (Perfetto-loadable) and a text
  phase table, plus `repro trace export|summary` round-tripping.

The standing contract: observability is *deterministically neutral*.
Nothing in this package reads or advances a rank clock; enabling it
leaves virtual clocks, final values, and collective counters
bit-identical (pinned by the ``obs-neutral`` fuzzer invariant).
"""

from repro.obs.capture import active_capture, capture_traces
from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    phase_table,
    write_chrome_trace,
)
from repro.obs.logconf import configure_logging
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.span import Tracer

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "merge_snapshots",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "phase_table",
    "configure_logging",
    "capture_traces",
    "active_capture",
]
