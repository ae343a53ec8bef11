"""The unified experiment harness: registry, runner, artifacts, CLI, report.

Exercises the acceptance surface end to end: discovery finds every
registered experiment, a quick run produces a schema-valid JSON artifact,
``repro bench run table4 --quick`` / ``repro bench run sweep_small``
work through the CLI, ``repro bench report`` detects an injected
regression, and every experiment's ``expect`` holds on its quick grid.
"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.experiments import (
    SCHEMA,
    SCHEMA_VERSION,
    Experiment,
    all_experiments,
    compare_artifacts,
    config_seed,
    expand_grid,
    get,
    load_artifact,
    names,
    run_experiment,
    save_artifact,
    validate_artifact,
)
from repro.experiments.spec import config_label, group_runs


def agree_across(runs, axis, ignore=()):
    """The differential claim over artifact runs: runs that differ only in
    *axis* agree, bit for bit, on every metric not in *ignore*.

    Yields one message per disagreement, naming the configuration, the
    metric and both values.  A partner that was not run is not compared.
    """
    for shared, by in group_runs(runs, axis):
        (first, expected), *others = by.items()
        for value, metrics in others:
            for name in sorted((expected.keys() | metrics.keys()) - set(ignore)):
                a, b = expected.get(name), metrics.get(name)
                if a != b:
                    yield (
                        f"{name} differs across {axis} at "
                        f"{config_label(shared)}: "
                        f"{a!r} ({axis}={first}) vs {b!r} ({axis}={value})"
                    )


PAPER_EXPERIMENTS = {
    "table1", "table2", "table3", "table4", "table5",
    "fig2_rcb_locality", "fig5_arrangement",
    "ablation_orderings", "ablation_check_frequency", "ablation_dedup",
    "ablation_mcr_optimality", "ablation_multicast",
    "ext_adaptive_application", "ext_distributed_lb",
    "ext_hpf_redistribution", "ext_prediction",
}


# --------------------------------------------------------------------------
# registry + spec


def test_registry_discovery_finds_all_registered_experiments():
    found = set(names())
    assert PAPER_EXPERIMENTS <= found
    assert {"sweep_small", "sweep_full"} <= found
    assert {"scale-epoch", "scale-generate", "scale-adaptive"} <= found


def test_every_experiment_has_anchor_and_grids():
    for name in names():
        exp = get(name)
        assert exp.paper_anchor
        assert exp.num_configs() >= 1
        assert exp.num_configs(quick=True) <= exp.num_configs()


def test_get_unknown_experiment_raises_with_known_names():
    with pytest.raises(ReproError, match="table4"):
        get("nope")


def test_expand_grid_is_cartesian_and_ordered():
    configs = expand_grid({"a": (1, 2), "b": ("x",)})
    assert configs == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
    with pytest.raises(ReproError):
        expand_grid({"a": 3})  # scalar axis is an error
    with pytest.raises(ReproError):
        expand_grid({"a": ()})


def test_seed_policy_is_deterministic_and_content_based():
    configs = [{"p": p, "n": 100} for p in range(10)]
    seeds = [config_seed(1995, c) for c in configs]
    assert seeds == [config_seed(1995, c) for c in configs]
    assert len(set(seeds)) == len(seeds)
    # Content-based: key order and grid position are irrelevant, so the same
    # configuration reached via --set or --quick gets the same seed.
    assert config_seed(1995, {"n": 100, "p": 3}) == config_seed(1995, {"p": 3, "n": 100})


# --------------------------------------------------------------------------
# runner + artifacts


def test_quick_run_produces_schema_valid_artifact(tmp_path):
    artifact, path = run_experiment("table1", quick=True, results_dir=tmp_path)
    assert path == tmp_path / "table1-quick.json"  # never clobbers a full run
    assert path.is_file()
    on_disk = json.loads(path.read_text())
    assert validate_artifact(on_disk) == []
    assert on_disk["schema"] == SCHEMA
    assert on_disk["schema_version"] == SCHEMA_VERSION
    assert on_disk["quick"] is True
    assert len(on_disk["runs"]) == get("table1").num_configs(quick=True)
    for run in on_disk["runs"]:
        assert run["metrics"]["mcr_seconds"] > 0
        assert run["wall_s"] > 0


def test_run_experiment_rejects_unknown_override_keys():
    with pytest.raises(ReproError, match="unknown parameter"):
        run_experiment("table1", quick=True,
                       overrides={"bogus_param": 7}, results_dir=None)


def test_run_experiment_same_params_same_seed_regardless_of_path():
    # Seed policy is content-based: a --set-restricted run of one
    # configuration matches the full-grid run of the same configuration.
    full, _ = run_experiment("table1", quick=True,
                             overrides={"repeats": 1}, results_dir=None)
    sub, _ = run_experiment("table1", quick=True,
                            overrides={"p": 5, "repeats": 1}, results_dir=None)
    by_params = {json.dumps(r["params"], sort_keys=True): r["seed"]
                 for r in full["runs"]}
    key = json.dumps(sub["runs"][0]["params"], sort_keys=True)
    assert by_params[key] == sub["runs"][0]["seed"]


def test_run_experiment_overrides_collapse_grid():
    artifact, _ = run_experiment(
        "table1",
        quick=True,
        overrides={"p": 3, "repeats": 1, "elements": 500},
        results_dir=None,
    )
    assert len(artifact["runs"]) == 1
    assert artifact["runs"][0]["params"]["p"] == 3


def test_validate_artifact_rejects_malformed():
    artifact, _ = run_experiment(
        "table1", quick=True,
        overrides={"p": 3, "repeats": 1, "elements": 500}, results_dir=None,
    )
    bad = copy.deepcopy(artifact)
    bad["schema_version"] = 99
    assert any("schema_version" in e for e in validate_artifact(bad))
    bad = copy.deepcopy(artifact)
    bad["runs"][0]["metrics"]["mcr_seconds"] = "fast"
    assert any("metrics" in e for e in validate_artifact(bad))
    assert validate_artifact([]) != []


def test_load_artifact_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": "other"}')
    with pytest.raises(ReproError, match="invalid artifact"):
        load_artifact(path)


# --------------------------------------------------------------------------
# expectations: the paper's shape, checked by the command that measures it


def test_every_experiment_carries_an_expectation():
    # The scenario sweeps claim no shape.
    unchecked = {e.name for e in all_experiments() if e.expect is None}
    assert unchecked == {"sweep_small", "sweep_full"}


def test_scale_generate_expectation_names_the_run():
    def run(tier, family, n, degree):
        return {"params": {"tier": tier, "family": family},
                "metrics": {"n_vertices": n, "mean_degree": degree}}

    expect = get("scale-generate").expect
    assert list(expect([run("100k", "grid", 99_856, 3.987),
                        run("1m", "geometric", 987_133, 6.04)])) == []
    (short,) = expect([run("100k", "geometric", 97_000, 6.0)])
    assert "n_vertices 97000 is not within 2% of 100000" in short
    assert "family=geometric" in short
    (sparse,) = expect([run("250k", "grid", 250_000, 3.9)])
    assert "mean_degree 3.9 is outside [3.95, 4.0]" in sparse


# Incidental to the scale tiers: scale-resilience fails ranks below its
# replication factor on purpose (the cap warning is an error under
# pytest.ini), and the 100k grid mesh is 316 x 316.
@pytest.mark.filterwarnings("ignore::repro.errors.ResilienceWarning")
@pytest.mark.filterwarnings("ignore:scale_mesh:RuntimeWarning")
@pytest.mark.parametrize(
    "name",
    [
        *sorted(PAPER_EXPERIMENTS),
        "scale-adaptive", "scale-elastic", "scale-epoch", "scale-generate",
        "scale-resilience", "scale-service",
        pytest.param("scale-real", marks=pytest.mark.real),
        # scale-huge's quick tier is 1M vertices (~30 s): CI's perf-smoke
        # job runs it, and `bench run` exits 1 there on a violation.
    ],
)
def test_quick_grid_meets_its_expectation(name):
    artifact, _ = run_experiment(name, quick=True, results_dir=None)
    assert artifact["violations"] == []


def test_expectation_sees_only_the_configurations_run():
    # Narrowed to one arm of each comparison, nothing is left to compare:
    # a missing partner is not a violation (and not a KeyError).
    for name, overrides in (
        ("table5", {"lb": True, "p": 2}),
        ("ablation_multicast", {"multicast": False}),
        ("fig5_arrangement", {"arrangement": "mcr"}),
    ):
        artifact, _ = run_experiment(
            name, quick=True, overrides=overrides, results_dir=None
        )
        assert artifact["violations"] == [], name


def test_violated_expectation_fails_the_cli_run(tmp_path, capsys):
    from repro.experiments import registry

    exp = Experiment(
        name="always-violated",
        title="throw-away",
        paper_anchor="none",
        fn=lambda params, seed: {"x": 1.0},
        grid={"a": (1, 2)},
        expect=lambda runs: [f"x is flat over {len(runs)} runs"],
    )
    registry.register(exp)
    try:
        rc = main(["bench", "run", exp.name, "--results-dir", str(tmp_path)])
    finally:
        del registry._REGISTRY[exp.name]
    assert rc == 1
    assert "always-violated: x is flat over 2 runs" in capsys.readouterr().out
    artifact = load_artifact(tmp_path / "always-violated.json")  # still written
    assert artifact["violations"] == ["x is flat over 2 runs"]
    assert len(artifact["runs"]) == 2


def test_passes_alternate_configurations_and_keep_each_best_metric():
    calls = []

    def fn(params, seed):
        calls.append(params["a"])
        k = len(calls)
        return {"host_s": 10.0 - k if k < 4 else 10.0 + k, "speedup": float(k)}

    exp = Experiment(
        name="two-pass", title="throw-away", paper_anchor="none", fn=fn,
        grid={"a": (1, 2)}, higher_is_better=("speedup",), passes=3,
    )
    artifact, _ = run_experiment(exp, results_dir=None)
    assert calls == [1, 2, 1, 2, 1, 2]
    # a=1 ran as calls 1, 3, 5; a=2 as calls 2, 4, 6.
    assert [run["metrics"] for run in artifact["runs"]] == [
        {"host_s": 7.0, "speedup": 5.0},
        {"host_s": 8.0, "speedup": 6.0},
    ]
    assert [run["seed"] for run in artifact["runs"]] == [
        config_seed(exp.seed, {"a": a}) for a in (1, 2)
    ]
    # Every pass is kept in order, so an expectation can pair them.
    assert [[m["host_s"] for m in run["passes"]] for run in artifact["runs"]] == [
        [9.0, 7.0, 15.0],
        [8.0, 14.0, 16.0],
    ]
    with pytest.raises(ReproError, match="passes"):
        Experiment(name="none", title="t", paper_anchor="none", fn=fn,
                   grid={"a": (1,)}, passes=0)


def test_table1_compares_p_pass_by_pass():
    """A slow spell over every pass of p=3 but the last of p=5 flips best
    against best; the paired ratios still see p=3 faster.  A genuinely
    slower p=3 is still reported."""
    expect = get("table1").expect

    def runs(p3, p5):
        return [
            {"params": {"p": p, "elements": 2_000}, "metrics": {"mcr_seconds": min(s)},
             "passes": [{"mcr_seconds": x} for x in s]}
            for p, s in ((3, p3), (5, p5))
        ]

    assert list(expect(runs([6e-4, 6e-4, 6e-4], [1e-3, 1e-3, 5.9e-4]))) == []
    (slower,) = expect(runs([1.1e-3, 1.1e-3, 5e-4], [1e-3, 1e-3, 1e-3]))
    assert slower.startswith("MCR seconds at p=3 / p=5, median over paired passes")


def test_agree_across_names_configuration_metric_and_both_values():
    def run(captured, tier, makespan, host):
        return {
            "params": {"tier": tier, "captured": captured, "p": 4},
            "metrics": {"makespan": makespan, "run_host_s": host},
        }

    runs = [
        run(False, "10k", 1.5, 0.1), run(True, "10k", 1.5, 0.9),
        run(False, "100k", 7.25, 0.2), run(True, "100k", 7.5, 2.0),
        run(False, "250k", 9.0, 0.3),  # partner not run: not compared
    ]
    assert list(agree_across(runs, "captured", ignore=("run_host_s",))) == [
        "makespan differs across captured at tier=100k, p=4: "
        "7.25 (captured=False) vs 7.5 (captured=True)"
    ]
    # Nothing ignored: the host-timed metric of every pair differs too.
    assert len(list(agree_across(runs, "captured"))) == 3


@pytest.mark.filterwarnings("ignore::repro.errors.ResilienceWarning")
def test_one_nudged_virtual_metric_fails_the_cli_run(tmp_path, capsys):
    # The acceptance drill: corrupt one virtual metric of a real scale
    # experiment and `repro bench run` must exit 1, name experiment,
    # configuration and metric, and still write the artifact.
    import dataclasses

    from repro.experiments import registry

    exp = get("scale-resilience")

    def nudged(params, *, seed):
        metrics = dict(exp.fn(params, seed=seed))
        if params["replication"] == 2:
            metrics["checkpoint_time"] = 0.0
        return metrics

    registry._REGISTRY[exp.name] = dataclasses.replace(exp, fn=nudged)
    try:
        rc = main([
            "bench", "run", exp.name, "--quick",
            "--set", 'scenario="fail-at-peak"', "--set", 'policy="interval:4"',
            "--results-dir", str(tmp_path),
        ])
    finally:
        registry._REGISTRY[exp.name] = exp
    assert rc == 1
    out = capsys.readouterr().out
    assert (
        "expectation violated: scale-resilience: checkpoint_time at r1 vs r2 "
        "(tier=10k, scenario=fail-at-peak, policy=interval:4, p=4"
    ) in out
    artifact = load_artifact(tmp_path / "scale-resilience-quick.json")
    assert len(artifact["runs"]) == 2
    [violation] = artifact["violations"]
    assert "is not below 1 x 0" in violation


def test_capture_window_is_neutral(tmp_path):
    # What CI's traced re-run used to assert across two artifacts: an open
    # capture window (bench run --trace-out) changes no metric but the
    # host-timed ones, and the captured trace has the program's spans.
    from repro.obs import capture_traces, write_chrome_trace

    plain, _ = run_experiment("scale-adaptive", quick=True, results_dir=None)
    with capture_traces() as window:
        traced, _ = run_experiment(
            "scale-adaptive", quick=True, results_dir=None
        )
    assert traced["violations"] == []
    assert len(plain["runs"]) == len(traced["runs"]) == len(window.traces)
    assert [run["params"] for run in plain["runs"]] == [
        run["params"] for run in traced["runs"]
    ]
    # The artifact-level rule, with "captured" as the neutral axis.
    runs = [
        {**run, "params": {**run["params"], "captured": captured}}
        for captured, artifact in ((False, plain), (True, traced))
        for run in artifact["runs"]
    ]
    assert list(agree_across(
        runs, "captured", ignore=("redistribute_host_s", "run_host_s")
    )) == []
    _, trace = window.traces[-1]
    out = tmp_path / "trace.json"
    write_chrome_trace(out, trace)
    slices = [
        e for e in json.loads(out.read_text())["traceEvents"]
        if e.get("ph") == "X"
    ]
    assert {"program", "epoch", "executor", "inspector"} <= {
        e["cat"] for e in slices
    }


def test_registry_and_docs_agree():
    # Every registered name has a "### `name` — ..." entry in
    # docs/benchmarks.md, and every such entry names a registered experiment.
    docs = Path(__file__).parent.parent / "docs" / "benchmarks.md"
    documented = set()
    for heading in re.findall(r"^### (`.*?) — ", docs.read_text("utf-8"), flags=re.M):
        documented.update(re.findall(r"`([^`]+)`", heading))
    assert documented == set(names())


# --------------------------------------------------------------------------
# report: regression detection


def _toy_artifact(makespan: float, efficiency: float) -> dict:
    from repro.experiments.artifacts import new_artifact

    return new_artifact(
        experiment="toy",
        title="toy",
        paper_anchor="Table 0",
        quick=True,
        base_seed=1,
        higher_is_better=["efficiency"],
        runs=[{
            "params": {"p": 2},
            "seed": 1,
            "wall_s": 0.1,
            "max_rss_kb": 1.0,
            "metrics": {"makespan": makespan, "efficiency": efficiency},
        }],
    )


def test_report_detects_injected_regression():
    old = _toy_artifact(1.0, 0.8)
    worse = _toy_artifact(1.5, 0.8)  # makespan +50% = regression
    comparison = compare_artifacts(old, worse)
    assert comparison.num_regressions == 1
    assert comparison.regressions[0].metric == "makespan"
    markdown = comparison.to_markdown()
    assert "**1 regression(s)**" in markdown
    assert "| p=2 | makespan |" in markdown


def test_report_respects_metric_direction_and_threshold():
    old = _toy_artifact(1.0, 0.8)
    better = _toy_artifact(0.5, 0.9)  # time down + efficiency up: improvements
    comparison = compare_artifacts(old, better)
    assert comparison.num_regressions == 0
    assert len(comparison.improvements) == 2
    # Efficiency DROPPING is a regression (higher_is_better).
    comparison = compare_artifacts(old, _toy_artifact(1.0, 0.4))
    assert [d.metric for d in comparison.regressions] == ["efficiency"]
    # Within-threshold jitter is noise.
    comparison = compare_artifacts(old, _toy_artifact(1.02, 0.8))
    assert comparison.num_regressions == 0


def test_report_flags_unmatched_configurations():
    old = _toy_artifact(1.0, 0.8)
    other = copy.deepcopy(old)
    other["runs"][0]["params"] = {"p": 4}
    comparison = compare_artifacts(old, other)
    assert comparison.deltas == []
    assert comparison.only_old and comparison.only_new


# --------------------------------------------------------------------------
# CLI acceptance: bench list / run / sweep / report


def test_cli_bench_list_exits_zero(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in PAPER_EXPERIMENTS:
        assert name in out


def test_cli_bench_run_table4_quick(tmp_path, capsys):
    rc = main(["bench", "run", "table4", "--quick",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    artifact = load_artifact(tmp_path / "table4-quick.json")
    assert artifact["schema_version"] == SCHEMA_VERSION
    assert artifact["violations"] == []  # Table 4's shape, checked by the run
    assert "artifact" in capsys.readouterr().out


def test_cli_bench_run_unknown_name_fails_cleanly(tmp_path, capsys):
    rc = main(["bench", "run", "nope", "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_bench_sweep_small(tmp_path):
    rc = main(["bench", "run", "sweep_small", "--results-dir", str(tmp_path)])
    assert rc == 0
    artifact = load_artifact(tmp_path / "sweep_small.json")
    assert artifact["schema_version"] == SCHEMA_VERSION
    assert len(artifact["runs"]) == 16  # 2 sizes x 2 loads x 2 orderings x 2 graphs
    # Adaptive scenarios actually adapted somewhere in the grid.
    assert any(r["metrics"]["num_remaps"] >= 1 for r in artifact["runs"]
               if r["params"]["load"] == "constant")
    # Every scenario finished with a positive makespan.
    assert all(r["metrics"]["makespan"] > 0 for r in artifact["runs"])


def _sweep_full_values():
    """(axis, value) for every value of every ``sweep_full`` input axis."""
    from repro.experiments.sweep import SCENARIO_GRIDS

    full = SCENARIO_GRIDS["full"]
    return [
        (axis, value)
        for axis in ("cluster", "load", "ordering", "graph")
        for value in full[axis]
    ]


@pytest.mark.parametrize(
    "axis, value", _sweep_full_values(), ids=lambda v: str(v)
)
def test_every_sweep_full_input_builds_and_runs(axis, value):
    """Each cluster, load, ordering and graph builder of ``sweep_full``
    (ramp and walk loads, hilbert, perturbed, 3 and 5 workstations are in
    no other grid) at ``sweep_small``'s first values and size."""
    from repro.experiments.sweep import SCENARIO_GRIDS, run_scenario

    params = {k: v[0] for k, v in SCENARIO_GRIDS["small"].items()}
    params[axis] = value
    metrics = run_scenario(params, seed=7)
    assert metrics and all(math.isfinite(v) for v in metrics.values())
    assert metrics["makespan"] > 0


def test_cli_bench_sweep_unknown_grid_fails_cleanly(tmp_path, capsys):
    # A sweep grid is an experiment name now; an unknown one fails like any.
    rc = main(["bench", "run", "sweep_gigantic", "--results-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown experiment 'sweep_gigantic'" in capsys.readouterr().err


def test_cli_bench_has_no_sweep_subcommand():
    with pytest.raises(SystemExit):
        main(["bench", "sweep", "--grid", "small"])


def test_cli_bench_report_end_to_end(tmp_path, capsys):
    old_path = save_artifact(_toy_artifact(1.0, 0.8), tmp_path / "old.json")
    new_path = save_artifact(_toy_artifact(1.5, 0.8), tmp_path / "new.json")
    out_md = tmp_path / "deep" / "dir" / "report.md"  # parents auto-created
    rc = main(["bench", "report", str(old_path), str(new_path),
               "-o", str(out_md)])
    assert rc == 0  # regressions reported, but exit 0 without the flag
    printed = capsys.readouterr().out
    assert "regression" in printed
    assert "**1 regression(s)**" in out_md.read_text()
    rc = main(["bench", "report", str(old_path), str(new_path),
               "--fail-on-regression"])
    assert rc == 1
    # Identical artifacts: no regression, exit 0 even with the flag.
    rc = main(["bench", "report", str(old_path), str(old_path),
               "--fail-on-regression"])
    assert rc == 0


def test_cli_bench_run_set_override(tmp_path):
    rc = main(["bench", "run", "table1", "--quick",
               "--set", "p=3", "--set", "elements=500",
               "--results-dir", str(tmp_path)])
    assert rc == 0
    artifact = load_artifact(tmp_path / "table1-quick.json")
    assert len(artifact["runs"]) == 1
    assert artifact["runs"][0]["params"]["elements"] == 500
