"""``python -m bench``: run, trace and noise.

This process never imports numpy or the program: it starts one
``bench.worker`` per workload with a scrubbed environment, waits for it,
prints what it measured, and writes the full document to ``bench/out/``.
The last line of a run is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — for whoever drives the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Any

from bench import OUT_DIR, ROOT
from bench.metrics import END_TO_END, WORKLOADS

DEFAULT_SEED = 1995
#: ``run_seconds`` of BENCHMARK.json: how long one run measures.
RUN_SECONDS = 16
#: A worker that has not answered by then is killed (the contract gives
#: a run 180 s).
WORKER_TIMEOUT = 170

#: Ambient switches of the program that must not leak into a measurement.
SCRUBBED = (
    "REPRO_BACKEND",
    "REPRO_FULL",
    "REPRO_RECV_TIMEOUT",
    "REPRO_MP_START",
    "REPRO_LOG_LEVEL",
)
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(PINNED)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(
    workload: str, seed: int, scale: str, seconds: float, trace: bool
) -> dict[str, Any]:
    """One workload in a fresh interpreter; returns the worker's document.

    Whatever happens — timeout, interrupt, SIGTERM — the worker is stopped
    and waited for; it answers SIGTERM by exiting through the interpreter,
    which also ends the rank processes of the real world.
    """
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except BaseException:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {workload!r} exited with code {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _number(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def print_document(doc: dict[str, Any]) -> None:
    print(f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']} "
          f"mode={doc['mode']}")
    print(f"   why: {doc['why']}")
    print(f"   work: {doc['work']}")
    host = doc["host"]
    print(f"   host: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']}")
    if doc["mode"] == "run":
        load = doc["loadavg"]
        print(f"   loadavg: start={load['start']} end={load['end']}")
        reps = doc["run_host_s"]
        print(f"   run_host_s: median of k={reps['k']} repetitions, "
              f"q1={reps['q1']:.4f} q3={reps['q3']:.4f}, each: "
              + " ".join(f"{t:.4f}" for t in reps["repetitions"]))
        print(f"   raw seconds (host speed {reps['host_speed']:.3f} of the "
              f"reference, from {len(reps['kernel'])} kernel samples): "
              + " ".join(f"{t:.4f}" for t in reps["raw_repetitions"]))
    else:
        print(f"   traced total {doc['traced_total_s']:.4f} s, untraced "
              f"median {doc['untraced_median_s']:.4f} s, spans in "
              f"{doc['trace_file']}")
        print(f"   trace_faithful: {str(doc['trace_faithful']).lower()}")
    for name, metric in doc["metrics"].items():
        print(f"   {name:<30} {_number(metric['value']):>24} {metric['unit']}")
    print(f"   virtual metrics and counts repeat exactly: "
          f"{str(doc['virtual_repeatable']).lower()}")
    print(f"   ops_attempted={doc['ops_attempted']} "
          f"ops_failed={doc['ops_failed']}")
    for failure in doc["failures"]:
        print(f"   FAILED {failure}")


def result_line(doc: dict[str, Any]) -> str:
    return json.dumps({
        "correct": doc["ops_failed"] == 0,
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": doc["metrics"],
    })


def cmd_run(args: argparse.Namespace) -> int:
    failed = 0
    os.makedirs(OUT_DIR, exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        doc = run_worker(
            workload, args.seed, args.scale, args.seconds, bool(args.trace)
        )
        # <workload>.trace.json is the worker's span file.
        kind = "layers" if args.trace else "run"
        with open(os.path.join(OUT_DIR, f"{workload}.{kind}.json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print_document(doc)
        print(result_line(doc), flush=True)
        failed += doc["ops_failed"]
    return 1 if failed else 0


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_noise(args: argparse.Namespace) -> int:
    """Interleaved sets of runs of the same code: per workload x metric,
    each set's median and spread, and how far the medians disagree."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    sets: list[dict[tuple[str, str], list[float]]] = [
        {} for _ in range(args.sets)
    ]
    failed = 0
    os.makedirs(OUT_DIR, exist_ok=True)
    order = itertools.product(range(args.runs), range(args.sets), workloads)
    with open(os.path.join(OUT_DIR, "noise.jsonl"), "w") as log:
        for run, index, workload in order:
            doc = run_worker(
                workload, args.seed + run, args.scale, args.seconds, False
            )
            log.write(json.dumps({"set": index + 1, **doc}) + "\n")
            log.flush()
            failed += doc["ops_failed"]
            for name, metric in doc["metrics"].items():
                sets[index].setdefault((workload, name), []).append(
                    metric["value"]
                )
            print(f"run {run} set {index + 1} {workload} done",
                  file=sys.stderr, flush=True)

    print(f"{args.sets} interleaved sets x {args.runs} runs, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}, scale {args.scale}, "
          f"{args.seconds} s measured per run; ops_failed={failed}\n")
    header = ["workload", "metric"]
    for i in range(args.sets):
        header += [f"median {i + 1}", f"IQR/median {i + 1}"]
    header += ["max median diff", "bound"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    worst = 0.0
    for workload in workloads:
        for name in END_TO_END:
            medians = [statistics.median(s[(workload, name)]) for s in sets]
            row = [workload, name]
            for s, median in zip(sets, medians):
                spread = _spread(s[(workload, name)])
                row += [f"{median:.6g}", f"{spread:.4f}"]
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
            diff = (max(medians) - min(medians)) / min(medians)
            worst = max(worst, diff / bounds[name])
            row += [f"{diff:.4f}", f"{bounds[name]:g}"]
            print("| " + " | ".join(row) + " |")
    print(f"\nworst spread or median difference, as a share of its bound: "
          f"{worst:.3f}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", choices=WORKLOADS,
                       help="one workload (default: all four)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seeds mesh, y0 and job stream")
        p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                       help="how long one run repeats its operation "
                            "(never fewer than 5 repetitions)")
        p.add_argument("--scale", choices=("full", "smoke"), default="full")

    run = sub.add_parser("run", help="measure the end-to-end metrics")
    common(run)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = the traced run (same as `bench trace`)")
    run.set_defaults(fn=cmd_run)

    traced = sub.add_parser("trace", help="the traced run: per-layer metrics")
    common(traced)
    traced.set_defaults(fn=cmd_run, trace=1)

    noise = sub.add_parser("noise", help="run-to-run spread of the benchmark")
    common(noise)
    noise.add_argument("--sets", type=int, default=2)
    noise.add_argument("--runs", type=int, default=5)
    noise.set_defaults(fn=cmd_noise)

    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so run_worker stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return args.fn(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
