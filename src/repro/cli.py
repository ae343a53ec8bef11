"""Command-line interface: ``python -m repro <command>``.

Commands mirror what a downstream user evaluating the runtime wants first:

* ``info`` — library version and a one-line inventory;
* ``run`` — execute the Fig. 8 loop on a synthetic mesh over a simulated
  cluster, with optional adaptive load balancing, and report the paper's
  metrics (time, efficiency, LB costs);
* ``orderings`` — compare 1-D locality transformations on a mesh;
* ``mcr`` — run MinimizeCostRedistribution on given capability vectors;
* ``bench`` — the unified experiment harness (:mod:`repro.experiments`):
  ``list`` registered experiments, ``run`` one over its grid (and check
  the paper's shape for it; the scenario sweeps are the ``sweep_small``
  / ``sweep_full`` experiments), and ``report`` a markdown diff of two
  JSON artifacts;
* ``fuzz`` — the seeded adversarial scenario fuzzer (:mod:`repro.fuzz`):
  ``run`` a generated batch or replay one scenario, ``shrink`` a failing
  scenario to a minimal reproducer, ``corpus`` to replay the committed
  corpus in ``tests/fuzz_corpus/``;
* ``serve`` — the multi-tenant job service (:mod:`repro.serve`): submit
  a JSONL job stream (or generate a seeded one), co-schedule it over one
  shared cluster under a chosen admission policy, and print the service
  report (throughput, p50/p99 makespan, Jain fairness, queue waits).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_log = logging.getLogger("repro.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STANCE runtime reproduction (Kaddoura & Ranka, HPDC 1996)",
    )
    parser.add_argument("--log-level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="diagnostic verbosity for the repro.* loggers "
                             "(default: REPRO_LOG_LEVEL env var, else info); "
                             "real-world workers inherit it and prefix "
                             "their lines with [rank N]")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print version and inventory")

    run = sub.add_parser("run", help="run the irregular loop on a simulated cluster")
    run.add_argument("--vertices", type=int, default=4000)
    run.add_argument("--iterations", type=int, default=60)
    run.add_argument("--workstations", type=int, default=4, choices=range(1, 6))
    run.add_argument("--strategy", default="sort2",
                     choices=("simple", "sort1", "sort2"))
    run.add_argument("--inspector-mode", default="full",
                     choices=("full", "incremental"),
                     help="phase-B rebuild after a remap: 'full' re-runs "
                          "the inspector from scratch, 'incremental' "
                          "patches the previous schedule from the "
                          "boundary diff (identical results, cheaper "
                          "for small boundary shifts)")
    run.add_argument("--load-balance", nargs="?", const="centralized",
                     default="off",
                     choices=("off", "centralized", "distributed"),
                     help="phase-D rebalance strategy (bare flag = "
                          "centralized, the paper's protocol)")
    run.add_argument("--competing-load", type=float, default=0.0,
                     help="competing load on workstation 1 (Table 5: 2.0)")
    run.add_argument("--membership", default=None, metavar="TRACE",
                     help="elastic membership events, e.g. "
                          "'standby:3, join:3@5.0, leave:0@9.5, "
                          "replace:1->2@12, fail:2@15' "
                          "(kind:rank@virtual-time; standby:R starts rank "
                          "R inactive; fail is unannounced and needs "
                          "--checkpoint)")
    run.add_argument("--checkpoint", default=None, metavar="POLICY",
                     help="checkpoint policy for failure recovery: "
                          "'interval:K' (every K iterations) or "
                          "'cost:MTBF' (Young's interval for an MTBF "
                          "estimate in virtual seconds); append ':rF' "
                          "to replicate each epoch to F ring successors")
    run.add_argument("--check-interval", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--world", default="sim", choices=("sim", "real"),
                     help="execution world: 'sim' (threads + virtual "
                          "clocks, the default) or 'real' (one OS process "
                          "per rank over loopback sockets; reported times "
                          "are wall seconds and --membership times are "
                          "interpreted as wall seconds too)")
    run.add_argument("--recv-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="host timeout for blocking receives (deadlock "
                          "guard; default: REPRO_RECV_TIMEOUT env var, "
                          "else 120)")
    run.add_argument("--verify", action="store_true",
                     help="check the result against the sequential oracle")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="record hierarchical spans and write a Chrome "
                          "trace-event JSON (load it in Perfetto / "
                          "chrome://tracing); works in both worlds")
    run.add_argument("--trace-capacity", type=int, default=None,
                     metavar="N",
                     help="ring-buffer cap on recorded trace events per "
                          "run (oldest dropped first, with a dropped-"
                          "events count in the export; default: unbounded)")
    run.add_argument("--trace-timebase", default="clock",
                     choices=("clock", "wall"),
                     help="timestamp source for --trace-out: 'clock' "
                          "(virtual in sim, latched wall in real) or "
                          "'wall' (host wall clock; sim spans only)")

    orderings = sub.add_parser("orderings", help="compare 1-D transformations")
    orderings.add_argument("--vertices", type=int, default=3000)
    orderings.add_argument("--parts", type=int, nargs="+", default=[2, 4, 8, 16])
    orderings.add_argument("--seed", type=int, default=0)

    mcr = sub.add_parser("mcr", help="run MinimizeCostRedistribution")
    mcr.add_argument("--old", type=float, nargs="+", required=True,
                     help="old capability ratios")
    mcr.add_argument("--new", type=float, nargs="+", required=True,
                     help="new capability ratios")
    mcr.add_argument("--elements", type=int, default=100)

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded adversarial scenario fuzzing (churn x load x failure)",
    )
    fsub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    frun = fsub.add_parser(
        "run", help="generate and run scenarios against the oracle"
    )
    frun.add_argument("--seed", type=int, default=0,
                      help="master seed: scenario i is a pure function of "
                           "(seed, i), so the same seed/budget pair "
                           "replays the identical sequence")
    frun.add_argument("--budget", type=int, default=10,
                      help="number of scenarios to generate and run")
    frun.add_argument("--scenario", default=None, metavar="FILE|JSON",
                      help="replay exactly one scenario instead of "
                           "generating: a path to a scenario JSON file, "
                           "or the JSON object inline")
    invariant_help = (
        "check only the named invariant(s); repeatable (default: all "
        "six — reference-match, no-desync, recoverable, and the three "
        "differentials obs-neutral, "
        "inspector-differential, world-differential)"
    )
    frun.add_argument("--invariant", action="append", default=[],
                      metavar="NAME", help=invariant_help)
    frun.add_argument("--shrink-failures", action="store_true",
                      help="greedily shrink each failing scenario and "
                           "print its minimal reproducer command")
    frun.add_argument("--shrink-dir", default=None, metavar="DIR",
                      help="also write each shrunk failing scenario as "
                           "JSON into DIR (implies --shrink-failures)")

    fshrink = fsub.add_parser(
        "shrink", help="reduce a failing scenario to a minimal reproducer"
    )
    fshrink.add_argument("--scenario", default=None, metavar="FILE|JSON",
                         help="the failing scenario (file or inline JSON)")
    fshrink.add_argument("--seed", type=int, default=None,
                         help="with --index: shrink the index-th scenario "
                              "of this master seed")
    fshrink.add_argument("--index", type=int, default=0,
                         help="scenario index under --seed (default 0)")
    fshrink.add_argument("--invariant", action="append", default=[],
                         metavar="NAME", help=invariant_help)
    fshrink.add_argument("--max-attempts", type=int, default=200,
                         help="oracle-run budget for the shrink loop")
    fshrink.add_argument("-o", "--output", default=None,
                         help="write the shrunk scenario JSON to this file")

    fcorpus = fsub.add_parser(
        "corpus", help="replay every scenario JSON in a corpus directory"
    )
    fcorpus.add_argument("--dir", default="tests/fuzz_corpus",
                         help="corpus directory (default: tests/fuzz_corpus)")
    fcorpus.add_argument("--invariant", action="append", default=[],
                         metavar="NAME", help=invariant_help)

    serve = sub.add_parser(
        "serve",
        help="co-schedule a job stream over one shared cluster",
    )
    serve.add_argument("--jobs", default=None, metavar="FILE",
                       help="JSONL job stream, one JobSpec per line "
                            "('-' reads stdin; blank lines and '#' "
                            "comments are skipped); default: a generated "
                            "stream (--stream/--n-jobs)")
    serve.add_argument("--stream", default="uniform",
                       choices=("uniform", "descending", "mixed"),
                       help="generated stream shape when --jobs is not "
                            "given ('descending' is the adversarial "
                            "head-of-line case for FIFO)")
    serve.add_argument("--n-jobs", type=int, default=8,
                       help="number of jobs in the generated stream")
    serve.add_argument("--cluster-size", type=int, default=8,
                       help="processors in the shared pool")
    serve.add_argument("--policy", default="fifo",
                       choices=("fifo", "random", "sjf"),
                       help="admission order: submission order, seeded "
                            "random permutation, or shortest-job-first")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the generated stream and for the "
                            "random admission permutation")
    serve.add_argument("--max-tenants", type=int, default=1,
                       help="jobs a single rank may host concurrently "
                            "(1 = space sharing; higher values time-share "
                            "and co-tenant compute becomes competing load)")
    serve.add_argument("--json", dest="json_out", default=None,
                       metavar="FILE",
                       help="also write the service report as JSON")
    serve.add_argument("--trace-out", default=None, metavar="FILE",
                       help="record service-time spans (admit / job / "
                            "per-rank occupancy) and write a Chrome "
                            "trace-event JSON")
    serve.add_argument("--trace-capacity", type=int, default=None,
                       metavar="N",
                       help="ring-buffer cap on recorded trace events")

    bench = sub.add_parser(
        "bench", help="experiment harness: list, run, report"
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    bsub.add_parser("list", help="list registered experiments")

    brun = bsub.add_parser(
        "run",
        help="run one experiment over its grid; exits 1 if the runs "
             "violate the shape its expectation states",
    )
    brun.add_argument("name",
                      help="experiment name, or a glob like 'scale-*' "
                           "(see `repro bench list`)")
    brun.add_argument("--quick", action="store_true",
                      help="use the reduced smoke-scale grid")
    brun.add_argument("--results-dir", default="results",
                      help="artifact directory (default: results/)")
    brun.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="force a parameter value on every configuration")
    brun.add_argument("--profile", action="store_true",
                      help="run under cProfile; dumps "
                           "<results-dir>/profiles/<experiment>.pstats and "
                           "prints the top-20 cumulative entries to stderr")
    brun.add_argument("--trace-out", default=None, metavar="FILE",
                      help="capture the trace of the experiment's program "
                           "runs (ambient capture window; the last run's "
                           "trace is exported as Chrome trace-event JSON)")
    brun.add_argument("--trace-capacity", type=int, default=None,
                      metavar="N",
                      help="ring-buffer cap on recorded trace events per run")

    breport = bsub.add_parser(
        "report", help="markdown comparison of two artifacts"
    )
    breport.add_argument("old", help="baseline artifact JSON")
    breport.add_argument("new", help="candidate artifact JSON")
    breport.add_argument("--threshold", type=float, default=0.05,
                         help="relative change treated as noise (default 5%%)")
    breport.add_argument("-o", "--output", default=None,
                         help="also write the markdown report to this file")
    breport.add_argument("--fail-on-regression", action="store_true",
                         help="exit 1 if any metric regressed")

    trace_p = sub.add_parser(
        "trace",
        help="inspect or re-export a Chrome trace written by --trace-out",
    )
    tsub = trace_p.add_subparsers(dest="trace_command", required=True)
    texport = tsub.add_parser(
        "export", help="re-export a trace (switch timebase, drop wall fields)"
    )
    texport.add_argument("input",
                         help="Chrome trace-event JSON written by --trace-out")
    texport.add_argument("-o", "--output", required=True,
                         help="destination JSON file")
    texport.add_argument("--timebase", default="clock",
                         choices=("clock", "wall"),
                         help="timestamp source for the re-export")
    texport.add_argument("--no-wall", action="store_true",
                         help="omit wall-clock fields from the event args")
    tsummary = tsub.add_parser(
        "summary", help="per-phase totals, each rank's compute / comm / "
                        "barrier budget and utilization, traffic by tag"
    )
    tsummary.add_argument("input",
                          help="Chrome trace-event JSON written by --trace-out")
    return parser


def _cmd_info() -> int:
    from repro import __version__

    print(f"repro {__version__} — STANCE runtime reproduction")
    print("subpackages: repro.net (simulated cluster), repro.graph,")
    print("             repro.partition (phase A + MCR), repro.runtime")
    print("             (phases B-D), repro.apps, repro.experiments")
    print("docs: README.md, docs/architecture.md, docs/benchmarks.md")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import (
        ConfigurationError,
        LoadBalanceError,
        RankFailedError,
        ResilienceError,
    )
    from repro.graph import paper_mesh
    from repro.net import adaptive_cluster, sun4_cluster
    from repro.runtime import (
        ProgramConfig,
        cluster_efficiency,
        resolve_load_balance,
        run_program,
        run_sequential,
    )

    graph = paper_mesh(args.vertices, seed=args.seed)
    if args.competing_load > 0:
        cluster = adaptive_cluster(
            args.workstations, loaded_rank=0, competing_load=args.competing_load
        )
    else:
        cluster = sun4_cluster(args.workstations)
    y0 = np.random.default_rng(args.seed).uniform(0, 100, graph.num_vertices)
    try:
        config = ProgramConfig(
            iterations=args.iterations,
            strategy=args.strategy,
            inspector_mode=args.inspector_mode,
            initial_capabilities=(
                "equal"
                if args.competing_load > 0 or args.membership
                else "speeds"
            ),
            load_balance=resolve_load_balance(
                args.load_balance, check_interval=args.check_interval
            ),
            membership=args.membership,
            checkpoint=args.checkpoint,
            world=args.world,
            recv_timeout=args.recv_timeout,
            trace=args.trace_out is not None,
            trace_capacity=args.trace_capacity,
        )
        report = run_program(graph, cluster, config, y0=y0)
        print(f"workload: {graph}")
        print(f"cluster:  {args.workstations} workstations "
              f"(speeds {cluster.speeds.tolist()})")
        print(f"world: {args.world}")
        if args.world == "real":
            print(f"wall time: {report.makespan:.4f} s")
        else:
            print(f"virtual time: {report.makespan:.4f} s")
        if args.world == "sim":
            # Efficiency relates virtual makespan to modeled work; a wall
            # makespan is not comparable to virtual work-seconds.
            eff = cluster_efficiency(
                cluster, report.makespan, report.total_work_seconds
            )
            print(f"efficiency (Sec. 4): {eff:.3f}")
        if config.load_balance is not None:
            print(f"strategy: {args.load_balance}, "
                  f"remaps: {report.num_remaps}, "
                  f"check cost {report.lb_check_time:.4f} s, "
                  f"remap cost {report.remap_time:.4f} s")
        if args.membership:
            events = report.membership_events
            final = report.partition_final
            survivors = np.flatnonzero(final.sizes() > 0).tolist()
            print(f"membership: {events} event(s) applied, "
                  f"{report.num_remaps} remap(s), final data on ranks "
                  f"{survivors} (sizes {final.sizes().tolist()})")
        if args.checkpoint:
            from repro.runtime import format_checkpoint_policy

            print(f"checkpoint: {format_checkpoint_policy(config.checkpoint)}")
            print(f"resilience: {report.num_checkpoints} checkpoint(s) "
                  f"(cost {report.checkpoint_time:.4f} s), "
                  f"{report.num_rollbacks} rollback(s) "
                  f"(cost {report.rollback_time:.4f} s, "
                  f"lost work {report.lost_time:.4f} s)")
        if args.trace_out:
            from repro.obs import write_chrome_trace

            assert report.trace is not None
            write_chrome_trace(
                args.trace_out,
                report.trace,
                timebase=args.trace_timebase,
                metadata={"command": "run", "world": args.world},
            )
            print(f"trace: {args.trace_out} ({len(report.trace)} event(s), "
                  f"{report.trace.dropped_events} dropped)")
    except (
        ConfigurationError,
        LoadBalanceError,
        RankFailedError,
        ResilienceError,
    ) as exc:
        # Reading the report's collective counters raises on a desync
        # too, so the summary prints live inside the guard.
        _log.error("error: %s", exc)
        return 2
    if args.verify:
        oracle = run_sequential(graph, y0, args.iterations)
        err = float(np.abs(report.values - oracle).max())
        print(f"max deviation from sequential oracle: {err:.2e}")
        if err > 1e-9:
            _log.error("VERIFICATION FAILED")
            return 1
        print("verified against sequential oracle")
    return 0


def _cmd_orderings(args: argparse.Namespace) -> int:
    from repro.graph import paper_mesh
    from repro.partition import (
        HilbertOrdering,
        IdentityOrdering,
        InertialOrdering,
        MortonOrdering,
        RandomOrdering,
        RCBOrdering,
        SpectralOrdering,
        compare_orderings,
    )
    from repro.utils import format_table

    graph = paper_mesh(args.vertices, seed=args.seed)
    methods = [
        RCBOrdering(), InertialOrdering(), SpectralOrdering(leaf_size=128),
        HilbertOrdering(), MortonOrdering(), IdentityOrdering(),
        RandomOrdering(seed=args.seed),
    ]
    reports = compare_orderings(graph, methods, args.parts)
    rows = [r.as_row(args.parts) for r in reports]
    print(
        format_table(
            ["ordering", "mean span", "bandwidth"]
            + [f"cut@{p}" for p in args.parts],
            rows,
            title=f"1-D transformations on {graph}",
            float_fmt="{:.1f}",
        )
    )
    return 0


def _cmd_mcr(args: argparse.Namespace) -> int:
    from repro.partition import (
        message_count,
        minimize_cost_redistribution,
        overlap_elements,
        partition_list,
    )

    if len(args.old) != len(args.new):
        _log.error("--old and --new must have the same length")
        return 2
    p = len(args.old)
    arrangement = minimize_cost_redistribution(
        np.arange(p), args.old, args.new, args.elements
    )
    old = partition_list(args.elements, args.old)
    ident = partition_list(args.elements, args.new)
    chosen = partition_list(args.elements, args.new, arrangement)
    print(f"MCR arrangement: {arrangement.tolist()}")
    print(
        f"identity: overlap {overlap_elements(old, ident)}/{args.elements}, "
        f"{message_count(old, ident)} messages"
    )
    print(
        f"MCR:      overlap {overlap_elements(old, chosen)}/{args.elements}, "
        f"{message_count(old, chosen)} messages"
    )
    return 0


def _load_scenario(spec: str):
    """Resolve ``--scenario FILE|JSON`` into a Scenario."""
    from pathlib import Path

    from repro.errors import ConfigurationError
    from repro.fuzz import Scenario

    text = spec.strip()
    if text.startswith("{"):
        return Scenario.from_json(text)
    path = Path(spec)
    if not path.is_file():
        raise ConfigurationError(
            f"scenario {spec!r} is neither an inline JSON object nor an "
            f"existing file; pass a path to a scenario JSON (e.g. one "
            f"from tests/fuzz_corpus/) or the JSON itself in quotes"
        )
    return Scenario.from_json(path.read_text(encoding="utf-8"))


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError, ReproError
    from repro.fuzz import (
        check_invariant_names,
        generate_scenarios,
        run_scenario,
        shrink_scenario,
    )

    try:
        invariants = check_invariant_names(args.invariant)

        if args.fuzz_command == "run":
            if args.scenario is not None:
                scenarios = [_load_scenario(args.scenario)]
            else:
                scenarios = generate_scenarios(args.seed, args.budget)
            failures = []
            for scenario in scenarios:
                report = run_scenario(scenario, invariants=invariants)
                print(report.summary())
                if not report.ok:
                    failures.append(report)
            print(f"\n{len(scenarios)} scenario(s), "
                  f"{len(failures)} failure(s); invariants: "
                  f"{', '.join(invariants)}")
            if not failures:
                return 0
            shrink = args.shrink_failures or args.shrink_dir
            for report in failures:
                for violation in report.violations:
                    print(f"  - {violation}")
                if shrink:
                    result = shrink_scenario(
                        report.scenario, invariants=invariants
                    )
                    print(f"reproducer ({result.reductions} reduction(s), "
                          f"{result.attempts} oracle run(s)):")
                    print(f"  {result.command}")
                    if args.shrink_dir:
                        from pathlib import Path

                        out_dir = Path(args.shrink_dir)
                        out_dir.mkdir(parents=True, exist_ok=True)
                        label = report.scenario.name or "scenario"
                        out = out_dir / f"shrunk-{label}.json"
                        out.write_text(
                            result.scenario.to_json(indent=2) + "\n",
                            encoding="utf-8",
                        )
                        print(f"  written to {out}")
                else:
                    print("reproducer:")
                    print(f"  {report.scenario.reproducer_command()}")
            return 1

        if args.fuzz_command == "shrink":
            if args.scenario is not None:
                scenario = _load_scenario(args.scenario)
            elif args.seed is not None:
                if args.index < 0:
                    raise ConfigurationError(
                        f"--index must be >= 0, got {args.index}"
                    )
                scenario = generate_scenarios(
                    args.seed, args.index + 1
                )[args.index]
            else:
                raise ConfigurationError(
                    "fuzz shrink needs a target: pass --scenario "
                    "FILE|JSON, or --seed S [--index I] to name a "
                    "generated scenario"
                )
            result = shrink_scenario(
                scenario,
                invariants=invariants,
                max_attempts=args.max_attempts,
            )
            for violation in result.report.violations:
                print(f"  - {violation}")
            print(f"shrunk after {result.reductions} reduction(s) "
                  f"({result.attempts} oracle run(s)); minimal reproducer:")
            print(f"  {result.command}")
            if args.output:
                from pathlib import Path

                out = Path(args.output)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(
                    result.scenario.to_json(indent=2) + "\n",
                    encoding="utf-8",
                )
                print(f"  written to {out}")
            return 1  # a successful shrink means the scenario still fails

        if args.fuzz_command == "corpus":
            from pathlib import Path

            corpus_dir = Path(args.dir)
            paths = sorted(corpus_dir.glob("*.json"))
            if not paths:
                raise ConfigurationError(
                    f"no scenario JSON files found in {corpus_dir}/ — "
                    f"pass --dir pointing at a corpus directory (the "
                    f"repository ships one at tests/fuzz_corpus/)"
                )
            failures = 0
            for path in paths:
                from repro.fuzz import Scenario

                scenario = Scenario.from_json(
                    path.read_text(encoding="utf-8")
                )
                report = run_scenario(scenario, invariants=invariants)
                print(f"{path.name}: {report.summary()}")
                if not report.ok:
                    failures += 1
                    for violation in report.violations:
                        print(f"  - {violation}")
                    print(f"  {report.scenario.reproducer_command()}")
            print(f"\n{len(paths)} corpus scenario(s), {failures} "
                  f"failure(s); invariants: {', '.join(invariants)}")
            return 1 if failures else 0
    except ReproError as exc:
        _log.error("error: %s", exc)
        return 2
    raise AssertionError(f"unhandled fuzz command {args.fuzz_command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.net import uniform_cluster
    from repro.serve import JobQueue, ServiceSession, generate_stream

    try:
        if args.jobs is not None:
            if args.jobs == "-":
                text = sys.stdin.read()
            else:
                from pathlib import Path

                text = Path(args.jobs).read_text(encoding="utf-8")
            queue = JobQueue.from_jsonl(text)
        else:
            queue = generate_stream(
                args.stream,
                args.n_jobs,
                max_ranks=args.cluster_size,
                seed=args.seed,
            )
        session = ServiceSession(
            uniform_cluster(args.cluster_size, name="service-pool"),
            queue,
            policy=args.policy,
            seed=args.seed,
            max_tenants=args.max_tenants,
            trace=args.trace_out is not None,
            trace_capacity=args.trace_capacity,
        )
        report = session.run()
    except OSError as exc:
        _log.error("error: cannot read job stream: %s", exc)
        return 2
    except ReproError as exc:
        _log.error("error: %s", exc)
        return 2
    print(report.to_text())
    if args.json_out:
        from pathlib import Path

        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nreport: {out}")
    if args.trace_out and report.trace is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            args.trace_out,
            report.trace,
            metadata={"command": "serve", "policy": args.policy},
        )
        print(f"trace: {args.trace_out} ({len(report.trace)} event(s))")
    return 0


def _parse_override(text: str) -> tuple[str, object]:
    """``KEY=VALUE`` with the value parsed as JSON when possible."""
    import json

    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise SystemExit(f"--set expects KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.utils import format_table

    try:
        if args.bench_command == "list":
            from repro.experiments import all_experiments

            rows = [
                [
                    e.name,
                    e.paper_anchor,
                    e.num_configs(),
                    e.num_configs(quick=True),
                    e.title,
                ]
                for e in all_experiments()
            ]
            print(
                format_table(
                    ["name", "anchor", "configs", "quick", "title"],
                    rows,
                    title="registered experiments (repro.experiments)",
                )
            )
            return 0

        if args.bench_command == "run":
            from fnmatch import fnmatchcase

            from repro.experiments import run_experiment
            from repro.experiments.registry import names

            overrides = dict(_parse_override(t) for t in args.overrides)
            if any(ch in args.name for ch in "*?["):
                matched = [n for n in names() if fnmatchcase(n, args.name)]
                if not matched:
                    _log.error("error: no experiment matches %r", args.name)
                    return 2
            else:
                matched = [args.name]
            if overrides:
                # Fail fast: validate the overrides against every matched
                # experiment *before* running any, so a glob run cannot
                # burn minutes and then die mid-loop on the first
                # experiment lacking an overridden axis.  Same check the
                # runner applies per experiment.
                from repro.experiments.runner import validate_overrides

                for name in matched:
                    validate_overrides(name, overrides, quick=args.quick)
            import cProfile
            import pstats
            from contextlib import ExitStack, nullcontext
            from pathlib import Path

            violated = False
            with ExitStack() as stack:
                window = None
                if args.trace_out:
                    from repro.obs import capture_traces

                    window = stack.enter_context(
                        capture_traces(capacity=args.trace_capacity)
                    )
                for name in matched:
                    prof = cProfile.Profile() if args.profile else nullcontext()
                    try:
                        with prof:
                            artifact, path = run_experiment(
                                name,
                                quick=args.quick,
                                overrides=overrides or None,
                                results_dir=args.results_dir,
                            )
                    finally:
                        if args.profile:
                            profile_dir = Path(args.results_dir) / "profiles"
                            profile_dir.mkdir(parents=True, exist_ok=True)
                            pstats_path = profile_dir / f"{name}.pstats"
                            prof.dump_stats(str(pstats_path))
                            stats = pstats.Stats(prof, stream=sys.stderr)
                            stats.sort_stats("cumulative").print_stats(20)
                            _log.info("profile: %s", pstats_path)
                    _print_artifact_summary(artifact)
                    for message in artifact.get("violations", ()):
                        violated = True
                        print(f"expectation violated: {name}: {message}")
                    print(f"\nartifact: {path}")
            if window is not None:
                from repro.obs import write_chrome_trace

                if not window.traces:
                    _log.warning(
                        "no program runs were captured; %s not written",
                        args.trace_out,
                    )
                else:
                    label, tr = window.traces[-1]
                    write_chrome_trace(
                        args.trace_out,
                        tr,
                        metadata={"command": "bench", "run": label},
                    )
                    print(f"trace: {args.trace_out} ({label}, "
                          f"{len(tr)} event(s))")
            return 1 if violated else 0

        if args.bench_command == "report":
            from repro.experiments import compare_files

            comparison = compare_files(
                args.old, args.new, threshold=args.threshold
            )
            text = comparison.to_markdown()
            print(text)
            if args.output:
                from pathlib import Path

                out = Path(args.output)
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(text, encoding="utf-8")
            if args.fail_on_regression and comparison.num_regressions:
                return 1
            return 0
    except ReproError as exc:
        _log.error("error: %s", exc)
        return 2
    raise AssertionError(f"unhandled bench command {args.bench_command!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs import load_chrome_trace, summarize, write_chrome_trace

    try:
        trace = load_chrome_trace(args.input)
        if args.trace_command == "summary":
            print(summarize(trace).to_text())
            return 0
        if args.trace_command == "export":
            write_chrome_trace(
                args.output,
                trace,
                timebase=args.timebase,
                include_wall=not args.no_wall,
                metadata={"command": "trace export", "source": args.input},
            )
            print(f"trace: {args.output} ({len(trace)} event(s))")
            return 0
    except BrokenPipeError:
        raise  # main() handles a consumer that closed early (e.g. head)
    except OSError as exc:
        _log.error("error: cannot read trace: %s", exc)
        return 2
    except ReproError as exc:
        _log.error("error: %s", exc)
        return 2
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _print_artifact_summary(artifact: dict) -> None:
    """One row per configuration: parameters, host wall time, metrics."""
    from repro.utils import format_table

    rows = []
    for run in artifact["runs"]:
        params = ", ".join(f"{k}={v}" for k, v in run["params"].items())
        metrics = ", ".join(
            f"{k}={v:.4g}" for k, v in run["metrics"].items()
        )
        rows.append([params, run["wall_s"], metrics])
    print(
        format_table(
            ["configuration", "wall (s)", "metrics"],
            rows,
            title=f"{artifact['experiment']} — {artifact['title']} "
                  f"({artifact['paper_anchor']})",
            float_fmt="{:.3g}",
        )
    )


def _configure_logging(args: argparse.Namespace) -> None:
    import os

    from repro.obs.logconf import LEVEL_ENV, configure_logging

    if args.log_level:
        # Real-world workers are separate processes; the env var is how
        # they inherit the chosen level.
        os.environ[LEVEL_ENV] = args.log_level
    configure_logging(args.log_level)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _configure_logging(args)
        return _dispatch(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. `head`);
        # that is not an error in us.  Detach stdout so interpreter teardown
        # does not print a second traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "orderings":
        return _cmd_orderings(args)
    if args.command == "mcr":
        return _cmd_mcr(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
