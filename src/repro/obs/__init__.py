"""repro.obs — the unified observability layer.

One package for the three instruments every subsystem shares:

* :class:`Tracer` — hierarchical phase spans recorded into the same
  :class:`~repro.net.trace.TraceLog` as the flat comm/compute events.
* :class:`MetricsRegistry` — typed per-rank counters/gauges/histograms
  with one :func:`merge_snapshots` path into the run reports.
* The Chrome trace-event exporter (Perfetto-loadable) and its loader,
  so `repro trace export|summary` work from a saved file.
* :func:`summarize` — the one trace analyzer: phase rows, each rank's
  compute / comm / barrier budget, traffic by tag; :func:`timeline`
  draws a trace as ASCII.

The standing contract: observability is *deterministically neutral*.
Nothing in this package reads or advances a rank clock; enabling it
leaves virtual clocks, final values, and collective counters
bit-identical (pinned by the ``obs-neutral`` fuzzer invariant).
"""

from repro.obs.capture import active_capture, capture_traces
from repro.obs.export import (
    chrome_trace,
    load_chrome_trace,
    write_chrome_trace,
)
from repro.obs.logconf import configure_logging
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.span import Tracer
from repro.obs.summary import TraceSummary, summarize, timeline

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "merge_snapshots",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "summarize",
    "TraceSummary",
    "timeline",
    "configure_logging",
    "capture_traces",
    "active_capture",
]
