#!/usr/bin/env python
"""Phase D against hindsight: the profitability rule's remaps against
every schedule of the first checks.

For each configuration, runs the rule once, then forces the remap bit of
each of the first K <= 5 periodic checks through all 2^K combinations
(later checks follow the rule) and ranks the virtual makespans.  A forced
"yes" remaps to the partition the rule computed at that check; nothing in
``src/`` is hooked: ``strategy.decide`` is wrapped in-process.  Prints one
markdown row per configuration: the rule's bits, their rank among the
2^K schedules, the best schedule, the never-remap schedule and the
regret (the rule's makespan over the best one's, minus 1).

    python tools/hindsight.py scale-adaptive --quick
    python tools/hindsight.py scale-adaptive --set tier='"100k"'
    python tools/hindsight.py table5 ablation_check_frequency scale-elastic --quick
    python tools/hindsight.py adaptive-sfc          # the benchmark workload
    python tools/hindsight.py scale-adaptive --quick --max-regret 5

With ``--max-regret PCT`` it exits 1 after the table, naming on stderr
every configuration whose regret is above PCT percent.

A name is a registered experiment (its full grid, or ``--quick``'s; LB-off
points have no check and are skipped) or the ``adaptive-sfc`` workload of
``python3 -m bench`` (``--scale full`` or ``smoke``).  Only the simulated
world is supported: forcing needs a deterministic virtual clock.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from repro.experiments import registry  # noqa: E402
from repro.experiments.spec import config_label, config_seed  # noqa: E402
from repro.runtime.adaptive import strategy  # noqa: E402

#: The most checks whose bits are enumerated (2^5 = 32 runs a point).
MAX_CHECKS = 5


class Forcing:
    """Wraps ``strategy.decide`` to record, and optionally force, the
    remap bit of each periodic check."""

    def __init__(self) -> None:
        self.bits: tuple[int, ...] = ()
        self.rule: list[int] = []
        self._count: dict[int, int] = {}
        self._target: dict[int, object] = {}

    def __enter__(self) -> "Forcing":
        self._decide, self._partition_list = strategy.decide, strategy.partition_list

        def partition_list(*args, **kwargs):
            # The rule's target partition, kept even when it declines.
            out = self._partition_list(*args, **kwargs)
            self._target[threading.get_ident()] = out
            return out

        def decide(ctx, partition, times, remaining, **inputs):
            d = self._decide(ctx, partition, times, remaining, **inputs)
            i = self._count.get(ctx.rank, 0)
            self._count[ctx.rank] = i + 1
            if ctx.rank == 0:
                self.rule.append(int(d.remap))
            if i < len(self.bits) and bool(self.bits[i]) != d.remap:
                want = bool(self.bits[i])
                target = self._target[threading.get_ident()]
                d = dataclasses.replace(
                    d, remap=want, new_partition=target if want else None
                )
            return d

        strategy.partition_list, strategy.decide = partition_list, decide
        return self

    def __exit__(self, *exc) -> None:
        strategy.partition_list = self._partition_list
        strategy.decide = self._decide

    def run(self, fn, bits: tuple[int, ...]) -> float:
        self.bits, self.rule = bits, []
        self._count.clear()
        return fn()


def hindsight(fn) -> dict | None:
    """Enumerate the first checks' schedules of one configuration;
    ``fn()`` runs it and returns its virtual makespan."""
    with Forcing() as forcing:
        rule_makespan = forcing.run(fn, ())
        rule_bits = tuple(forcing.rule[:MAX_CHECKS])
        if not rule_bits:
            return None
        makespans = {
            bits: forcing.run(fn, bits)
            for bits in itertools.product((0, 1), repeat=len(rule_bits))
        }
    best = min(makespans, key=makespans.get)
    rank = 1 + sum(m < makespans[rule_bits] for m in makespans.values())
    return {
        "checks": len(forcing.rule),
        "rule": rule_bits,
        "rule_makespan": rule_makespan,
        "rank": rank,
        "schedules": len(makespans),
        "best": best,
        "best_makespan": makespans[best],
        "never_makespan": makespans[(0,) * len(rule_bits)],
        "regret": makespans[rule_bits] / makespans[best] - 1.0,
    }


def experiment_points(name: str, quick: bool, overrides: dict):
    exp = registry.get(name)
    points: list[dict] = []
    for params in exp.configs(quick=quick):
        params = {**params, **overrides}
        if params not in points:
            points.append(params)
    for params in points:
        if params.get("lb") is False or params.get("interval") == 0:
            continue

        def fn(params=params):
            seed = config_seed(exp.seed, params)
            return float(exp.fn(params, seed=seed)["makespan"])

        yield config_label(params), fn


def workload_points(name: str, scale: str, seed: int):
    import numpy as np

    from bench.workloads import _adaptive_sfc  # the workload's one definition
    from repro.runtime import run_program

    if name != "adaptive-sfc":
        raise SystemExit(f"error: {name!r} is neither an experiment nor adaptive-sfc")
    graph, cluster, config = _adaptive_sfc(seed, scale)
    y0 = np.random.default_rng(seed).uniform(0.0, 100.0, graph.num_vertices)
    yield f"{name}, scale={scale}, seed={seed}", (
        lambda: run_program(graph, cluster, config, y0=y0).makespan
    )


def above_bound(
    rows: list[tuple[str, dict | None]], max_regret: float
) -> list[tuple[str, float]]:
    """The (label, regret in percent) of every row whose regret is above
    *max_regret* percent; a configuration without checks has none."""
    return [
        (label, 100 * row["regret"])
        for label, row in rows
        if row is not None and 100 * row["regret"] > max_regret
    ]


def bits_text(bits: tuple[int, ...]) -> str:
    return "".join(map(str, bits))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="+", help="experiments or adaptive-sfc")
    parser.add_argument("--quick", action="store_true", help="the quick grid")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=JSON",
        help="force one parameter of every configuration",
    )
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument(
        "--max-regret", type=float, metavar="PCT",
        help="exit 1 if any configuration's regret is above PCT percent",
    )
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        overrides[key] = json.loads(value)

    registry.discover()
    print("| configuration | checks | rule | rank | best | never | rule (s) "
          "| best (s) | never (s) | regret |")
    print("|---|---:|---|---:|---|---|---:|---:|---:|---:|")
    rows: list[tuple[str, dict | None]] = []
    for name in args.names:
        points = (
            experiment_points(name, args.quick, overrides)
            if name in registry.names()
            else workload_points(name, args.scale, args.seed)
        )
        for label, fn in points:
            row = hindsight(fn)
            rows.append((f"{name}: {label}", row))
            if row is None:
                print(f"| {name}: {label} | 0 | | | | | | | | |")
                continue
            print(
                f"| {name}: {label} | {row['checks']} | {bits_text(row['rule'])} "
                f"| {row['rank']}/{row['schedules']} | {bits_text(row['best'])} "
                f"| {bits_text((0,) * len(row['rule']))} "
                f"| {row['rule_makespan']:.4f} | {row['best_makespan']:.4f} "
                f"| {row['never_makespan']:.4f} | {100 * row['regret']:.1f} % |",
                flush=True,
            )
    if args.max_regret is None:
        return 0
    over = above_bound(rows, args.max_regret)
    for label, regret in over:
        print(
            f"regret above {args.max_regret:g} %: {label} ({regret:.1f} %)",
            file=sys.stderr,
        )
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
