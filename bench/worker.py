"""The measuring process: one workload, one fresh interpreter.

``bench.cli`` starts this module with a scrubbed environment (thread
pins and ``PYTHONHASHSEED`` must be in place before the interpreter and
numpy start) and reads one JSON document from the last line of its
standard output.  ``setup_s`` counts from :data:`T_START`: numpy, the
program and the workloads are imported after it, inside the functions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Any, Callable

from bench import OUT_DIR
from bench.metrics import ADDITIVE_LAYERS, END_TO_END, HOST_LAYERS, PER_LAYER
from bench.spans import SpanRecorder, layer_seconds, write_trace

T_START = time.perf_counter()

#: Fewest timed repetitions of a run, however short ``--seconds`` is.
K_MIN = {"full": 5, "smoke": 2}
#: Size of the calibration kernel (smoke runs assert no timing).
KERNEL_SIZE = {"full": 1.0, "smoke": 0.05}
#: Untimed-by-the-budget repetitions the traced run compares itself with.
TRACE_UNTRACED_REPS = 3


class Operations:
    """Runs operations one at a time and keeps the failure account.

    One repetition = one operation.  It fails on an exception, on an
    oracle mismatch (``workload.verify``), or on outputs that are not
    bit-identical to the first operation's.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None  # the first operation's Sample
        self.repeatable = True  # virtual makespan and counts repeat exactly

    def run(self, operate: Callable[[], Any] | None = None) -> float:
        """One checked operation; returns its host seconds."""
        gc.collect()
        self.attempted += 1
        wl = self.workload
        t0 = time.perf_counter()
        try:
            result = (operate or wl.operate)()
        except Exception as exc:  # an operation that raises is a failed one
            seconds = time.perf_counter() - t0
            self.failures.append(
                f"op {self.attempted}: {type(exc).__name__}: {exc}"
            )
            return seconds
        seconds = time.perf_counter() - t0
        reason = wl.verify(result)
        sample = wl.sample(result)
        if self.first is None:
            self.first = sample
        elif reason is None and sample.fingerprint != self.first.fingerprint:
            reason = "output values differ from the first repetition's"
        if sample != self.first:
            self.repeatable = False
        if reason is not None:
            self.failures.append(f"op {self.attempted}: {reason}")
        return seconds


def _host() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (the rank processes of the real world); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _prepare(name: str, seed: int, scale: str):
    """Set-up: inputs, oracle, one checked warm-up operation."""
    from bench.workloads import make_workload

    rec = SpanRecorder()
    workload = make_workload(name)
    workload.setup(seed, scale, rec)
    ops = Operations(workload)
    ops.run()
    gc.collect()
    # Set-up objects leave the collector's sight; collection itself stays
    # on, because users run with it.
    gc.freeze()
    return workload, ops, rec


def _document(workload, ops: Operations, seed: int, scale: str, **more: Any):
    return {
        "workload": workload.name,
        "why": workload.why,
        "work": workload.work,
        "seed": seed,
        "scale": scale,
        "ops_attempted": ops.attempted,
        "ops_failed": len(ops.failures),
        "failures": ops.failures,
        "virtual_repeatable": ops.repeatable,
        "host": _host(),
        **more,
    }


def measure(name: str, seed: int, scale: str, seconds: float) -> dict[str, Any]:
    """The untraced run: the four end-to-end metrics."""
    from bench.calibrate import REFERENCE_S, Calibrator

    load_start = os.getloadavg()
    try:
        workload, ops, _rec = _prepare(name, seed, scale)
        setup_s = time.perf_counter() - T_START
        calibrate = Calibrator(KERNEL_SIZE[scale])
        times: list[float] = []
        kernel = [calibrate(), calibrate()]  # two samples around every rep
        deadline = time.perf_counter() + seconds
        while len(times) < K_MIN[scale] or time.perf_counter() < deadline:
            times.append(ops.run())
            kernel += [calibrate(), calibrate()]
        peak = _peak_rss_mb()
    finally:
        gc.unfreeze()
    speed = REFERENCE_S / statistics.median(kernel)
    compensated = [t * speed for t in times]
    first = ops.first
    values = {
        "run_host_s": statistics.median(compensated),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "virtual_makespan_s": first.virtual_makespan if first else float("nan"),
    }
    q1, _, q3 = statistics.quantiles(compensated, n=4)
    return _document(
        workload, ops, seed, scale,
        mode="run",
        metrics={
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
        run_host_s={
            "k": len(times),
            "repetitions": compensated,
            "q1": q1,
            "q3": q3,
            "raw_repetitions": times,
            "kernel": kernel,
            "host_speed": speed,
        },
        counts=first.counts if first else {},
        virtual=first.virtual if first else {},
        loadavg={"start": load_start, "end": os.getloadavg()},
    )


def trace(name: str, seed: int, scale: str) -> dict[str, Any]:
    """The traced run: the per-layer metrics, from one traced repetition
    beside a few untraced ones."""
    try:
        workload, ops, rec = _prepare(name, seed, scale)
        untraced = statistics.median(
            ops.run() for _ in range(TRACE_UNTRACED_REPS)
        )
        gc.collect()
        sample, total, layers = workload.traced(rec)
        # The program's own tracing layer switched on, for its overhead.
        obs_traced = ops.run(lambda: workload.operate(trace=True))
    finally:
        gc.unfreeze()
    faithful = sample == ops.first

    seconds = layer_seconds(rec.spans)
    host = {name: seconds.get(name[: -len("_s")], 0.0) for name in HOST_LAYERS}
    host.update(layers)
    host["program.unattributed_s"] = total - sum(
        host[name] for name in ADDITIVE_LAYERS
    )
    values = {
        **host,
        "bench.trace_overhead_frac": total / untraced - 1.0,
        "obs.trace_overhead_frac": obs_traced / untraced - 1.0,
        **sample.counts,
        **sample.virtual,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    write_trace(
        os.path.join(OUT_DIR, f"{name}.trace.json"),
        rec.spans,
        {"workload": name, "seed": seed, "scale": scale, "total_s": total},
    )
    return _document(
        workload, ops, seed, scale,
        mode="trace",
        metrics={
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        },
        trace_faithful=faithful,
        traced_total_s=total,
        untraced_median_s=untraced,
        trace_file=f"bench/out/{name}.trace.json",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    args = parser.parse_args(argv)
    # Exit through the interpreter on SIGTERM: multiprocessing then ends
    # the rank processes of the real world.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace:
        doc = trace(args.workload, args.seed, args.scale)
    else:
        doc = measure(args.workload, args.seed, args.scale, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
