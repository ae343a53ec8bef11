#!/usr/bin/env python
"""Incremental crossover: the pre-patch estimate against the exact charges.

Runs the ``adaptive-sfc`` benchmark workload with every patchable rebuild
forced through the patch and, per (remap, rank), sets the estimate the
crossover makes *before* the work against the two exact charges it
chooses between: what the patch charged (``last_patch_cost``) and what
``sort2`` charges at the new partition (the cost-model formula at the
patched result's exact sizes).  Prints the markdown table in
docs/benchmarks.md, "Incremental crossover: estimate vs exact charge",
then the patch share of an unforced run.

    python tools/crossover_table.py [--seed 1995]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from bench.workloads import _adaptive_sfc  # noqa: E402  (the workload's one definition)
from repro.runtime import run_program  # noqa: E402
from repro.runtime.incremental import (  # noqa: E402
    IncrementalInspector,
    _full_estimate,
    _patch_estimate,
    _range_ref_count,
    diff_interval,
)

#: ``added`` fed to ``InspectorCostModel.patch_cost`` before the patch:
#: every reference of every moved row (what shipped before this table),
#: nothing (what ships now), or the current cross-reference count (the
#: boundary-sized bound that was considered and not needed).
VARIANTS = ("moved refs", "none", "cross refs")


def forced_patch_cases(graph, cluster, config, y0) -> list[dict]:
    cases: list[dict] = []
    rebuild = IncrementalInspector.rebuild

    def forced(self, new_partition, *, force=None):
        d = diff_interval(self.partition, new_partition, self.rank)
        if d.n_kept == 0:
            return rebuild(self, new_partition, force="full")
        cm, indptr = self.cost_model, self.graph.indptr
        moved = _range_ref_count(self.graph, d.lost + d.gained)
        sizes = self._sizes()
        shipped = _patch_estimate(cm, self.graph, d, **sizes)  # no ``added`` sort
        estimate = {
            name: shipped + cm.sort_cost(added)
            for name, added in zip(VARIANTS, (moved, 0, int(self.cross_src.size)))
        }
        new_block = _full_estimate(
            cm, self.strategy, self.graph, d,
            ghosts=sizes["ghosts"], sends=sizes["sends"],
        )
        old_refs = int(indptr[d.old_hi] - indptr[d.old_lo])
        new_refs = int(indptr[d.new_hi] - indptr[d.new_lo])
        full_estimate = {
            "new block": new_block,
            "old block": new_block + cm.sec_per_ref * (old_refs - new_refs),
        }
        result = rebuild(self, new_partition, force="patch")
        cases.append({
            "rank": self.rank,
            "remap": self.num_patches + self.num_full_rebuilds,
            "rows": d.n_lost + d.n_gained,
            "refs": moved,
            "patch": self.last_patch_cost,
            # After the patch the inspector holds the new partition's exact
            # ghost and send sizes, so the same formula is the exact charge.
            "full": _full_estimate(
                cm, self.strategy, self.graph, d,
                ghosts=result.schedule.ghost_size,
                sends=result.schedule.send_volume,
            ),
            "estimate": estimate,
            "full_estimate": full_estimate,
        })
        return result

    IncrementalInspector.rebuild = forced
    try:
        run_program(graph, cluster, config, y0=y0)
    finally:
        IncrementalInspector.rebuild = rebuild
    return sorted(cases, key=lambda c: (c["remap"], c["rank"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1995)
    args = parser.parse_args(argv)

    # Full scale only: the smoke-scale run never remaps.
    graph, cluster, config = _adaptive_sfc(args.seed, "full")
    y0 = np.random.default_rng(args.seed).uniform(0.0, 100.0, graph.num_vertices)
    cases = forced_patch_cases(graph, cluster, config, y0)

    def ms(seconds: float) -> str:
        return f"{1e3 * seconds:.1f}"

    print("| remap | rank | rows moved | refs moved | patch (ms) | sort2 (ms) "
          "| patch/sort2 | est., moved refs (ms) | est., none (ms) |")
    print("|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
    for c in cases:
        print(
            f"| {c['remap']} | {c['rank']} | {c['rows']} | {c['refs']} "
            f"| {ms(c['patch'])} | {ms(c['full'])} "
            f"| {c['patch'] / c['full']:.2f} "
            f"| {ms(c['estimate']['moved refs'])} "
            f"| {ms(c['estimate']['none'])} |"
        )

    n = len(cases)
    cheaper = [c["patch"] < c["full"] for c in cases]
    print(f"\n{n} patchable rebuilds; the patch is cheaper on {sum(cheaper)}, "
          f"mean patch/sort2 {np.mean([c['patch'] / c['full'] for c in cases]):.2f}")
    for full_side in ("old block", "new block"):
        for name in VARIANTS:
            picks = [
                c["estimate"][name] < c["full_estimate"][full_side] for c in cases
            ]
            ratios = [c["estimate"][name] / c["patch"] for c in cases]
            print(
                f"added = {name:10s} full side = {full_side}: "
                f"agrees with the exact charges on "
                f"{sum(p == o for p, o in zip(picks, cheaper))}/{n}, "
                f"estimate/exact {min(ratios):.2f}-{max(ratios):.2f}"
            )

    report = run_program(graph, cluster, config, y0=y0)
    counters = report.metrics["counters"]
    patched = counters.get("inspector.patch_builds", 0)
    built = patched + counters.get("inspector.full_builds", 0)
    print(f"\nunforced run, seed {args.seed}: {patched} of {built} builds "
          f"patched, virtual makespan {report.makespan:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
