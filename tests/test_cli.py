"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.vertices == 4000
        assert args.strategy == "sort2"
        assert args.load_balance == "off"

    def test_run_load_balance_forms(self):
        # Bare flag means the paper's centralized protocol.
        args = build_parser().parse_args(["run", "--load-balance"])
        assert args.load_balance == "centralized"
        args = build_parser().parse_args(
            ["run", "--load-balance", "distributed"]
        )
        assert args.load_balance == "distributed"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--load-balance", "magic"])

    def test_run_rejects_bad_workstations(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workstations", "9"])

    def test_run_rejects_bad_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "magic"])

    def test_mcr_requires_vectors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mcr"])

    def test_run_inspector_mode_forms(self):
        args = build_parser().parse_args(["run"])
        assert args.inspector_mode == "full"
        args = build_parser().parse_args(
            ["run", "--inspector-mode", "incremental"]
        )
        assert args.inspector_mode == "incremental"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--inspector-mode", "magic"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "STANCE" in out

    def test_run_verified(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "8",
            "--workstations", "2", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified against sequential oracle" in out
        assert "efficiency" in out

    def test_run_with_load_balance(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "20",
            "--workstations", "3", "--load-balance",
            "--competing-load", "2.0", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy: centralized" in out
        assert "remaps:" in out

    def test_run_with_distributed_load_balance(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "20",
            "--workstations", "3", "--load-balance", "distributed",
            "--competing-load", "2.0", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy: distributed" in out
        assert "remaps:" in out

    def test_run_with_membership(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "12",
            "--workstations", "3", "--load-balance",
            "--membership", "leave:1@0.02", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "membership: 1 event(s) applied" in out
        assert "final data on ranks [0, 2]" in out
        assert "verified against sequential oracle" in out

    def test_run_with_standby_join_membership(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "12",
            "--workstations", "3", "--load-balance",
            "--membership", "standby:2, join:2@0.001", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "membership: 1 event(s) applied" in out
        assert "final data on ranks [0, 1, 2]" in out

    def test_run_rejects_bad_membership_spec(self, capsys):
        rc = main([
            "run", "--vertices", "200", "--iterations", "4",
            "--workstations", "2", "--membership", "explode:0@1",
        ])
        assert rc == 2
        assert "bad membership spec" in capsys.readouterr().err

    def test_orderings(self, capsys):
        rc = main(["orderings", "--vertices", "300", "--parts", "2", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rcb" in out and "cut@4" in out

    def test_mcr_paper_example(self, capsys):
        rc = main([
            "mcr",
            "--old", "0.27", "0.18", "0.34", "0.07", "0.14",
            "--new", "0.10", "0.13", "0.29", "0.24", "0.24",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[0, 3, 1, 2, 4]" in out

    def test_mcr_length_mismatch(self, capsys):
        rc = main(["mcr", "--old", "0.5", "0.5", "--new", "1.0"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "serve"])
    def test_backend_flag_is_gone(self, capsys, command):
        # The runtime has one implementation: there is nothing to select.
        with pytest.raises(SystemExit) as exc:
            main([command, "--backend", "reference"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_run_incremental_inspector_mode(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "25",
            "--workstations", "3", "--load-balance",
            "--inspector-mode", "incremental", "--verify",
        ])
        assert rc == 0
        assert "verified against sequential oracle" in capsys.readouterr().out


class TestBenchGlobs:
    def test_bench_run_glob(self, capsys, tmp_path):
        rc = main([
            "bench", "run", "table1*", "--quick",
            "--results-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert (tmp_path / "table1-quick.json").exists()

    def test_bench_run_glob_no_match(self, capsys, tmp_path):
        rc = main([
            "bench", "run", "no-such-*", "--results-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "no experiment matches" in capsys.readouterr().err

    def test_bench_run_scale_quick(self, capsys, tmp_path):
        rc = main([
            "bench", "run", "scale-epoch", "--quick",
            "--set", 'tier="10k"',
            "--results-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tier=10k" in out and "backend" not in out
        assert (tmp_path / "scale-epoch-quick.json").exists()

    def test_bench_run_profile(self, capsys, tmp_path):
        rc = main([
            "bench", "run", "table1", "--quick", "--profile",
            "--results-dir", str(tmp_path),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        pstats_path = tmp_path / "profiles" / "table1.pstats"
        assert pstats_path.exists() and pstats_path.stat().st_size > 0
        assert "cumulative" in err  # top-20 summary printed to stderr
        assert str(pstats_path) in err
        # The dump is a loadable pstats file.
        import pstats

        stats = pstats.Stats(str(pstats_path))
        assert stats.total_calls > 0


class TestRunReplicationSuffix:
    def test_replication_rejects_zero(self, capsys):
        rc = main([
            "run", "--vertices", "200", "--iterations", "4",
            "--workstations", "3", "--checkpoint", "interval:2:r0",
        ])
        assert rc == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_replication_suffix_reaches_the_run(self, capsys):
        rc = main([
            "run", "--vertices", "400", "--iterations", "8",
            "--workstations", "3", "--load-balance",
            "--checkpoint", "interval:2:r2", "--verify",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoint: interval:2:r2" in out


class TestFuzzCLI:
    # A quiet inline scenario: no churn, no failures, tiny graph.
    QUIET = (
        '{"schema_version": 1, "seed": 1, "vertices": 64, '
        '"workstations": 2, "iterations": 2}'
    )
    # k=1 ring-edge double failure mislabeled "recovered": the oracle
    # must flag it, and the shrinker has something real to chew on.
    FAILING = (
        '{"schema_version": 1, "seed": 5, "vertices": 96, '
        '"workstations": 3, "iterations": 6, '
        '"membership": "fail:1@0.005, fail:2@0.005", '
        '"checkpoint": "interval:2", "expect": "recovered"}'
    )

    def test_rejects_negative_seed(self, capsys):
        rc = main(["fuzz", "run", "--seed", "-3", "--budget", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "non-negative" in err

    def test_rejects_zero_budget(self, capsys):
        rc = main(["fuzz", "run", "--seed", "0", "--budget", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "budget" in err and ">= 1" in err

    def test_rejects_unknown_invariant(self, capsys):
        rc = main([
            "fuzz", "run", "--seed", "0", "--budget", "1",
            "--invariant", "no-desink",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        # The message must name the valid choices, not just complain.
        assert "known invariants" in err
        assert "no-desync" in err

    def test_invariant_help_names_every_invariant(self, capsys):
        # The parser may not import repro.fuzz (0.5 s of every CLI start),
        # so the help text restates the names: keep it honest.
        from repro.fuzz import INVARIANTS

        with pytest.raises(SystemExit):
            main(["fuzz", "run", "--help"])
        text = "".join(capsys.readouterr().out.split())  # undo the wrapping
        assert all(name in text for name in INVARIANTS)

    def test_rejects_bad_scenario_spec(self, capsys):
        rc = main(["fuzz", "run", "--scenario", "no/such/file.json"])
        assert rc == 2
        assert "neither an inline JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "loads, message",
        [
            ([{"steps": [[0, 1]]}], "loads[0] is missing ['rank']"),
            ([{"rank": 0}], "loads[0] is missing ['steps']"),
            ([{"rank": 0, "steps": [[0, 1]]}, {"rank": 1, "steps": [[0]]}],
             "loads[1] step [0] is not a [time, load] pair"),
            ([{"rank": 0, "steps": 3}], "loads[0] steps must be a list"),
            ([{"rank": 0, "steps": [[1, 1], [0, 1]]}], "loads[0] is invalid"),
            ([[0, [[0, 1]]]], "loads[0] must be an object"),
            ({"rank": 0}, "loads must be a list"),
        ],
    )
    def test_malformed_loads_are_configuration_errors(
        self, capsys, loads, message
    ):
        scenario = json.dumps({"seed": 1, "vertices": 96, "workstations": 2,
                               "iterations": 3, "loads": loads})
        rc = main(["fuzz", "run", "--scenario", scenario])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_shrink_without_target_is_an_error(self, capsys):
        rc = main(["fuzz", "shrink"])
        assert rc == 2
        assert "needs a target" in capsys.readouterr().err

    def test_corpus_rejects_empty_dir(self, capsys, tmp_path):
        rc = main(["fuzz", "corpus", "--dir", str(tmp_path)])
        assert rc == 2
        assert "no scenario JSON files" in capsys.readouterr().err

    @pytest.mark.real  # the default walks the whole lattice, real world included
    def test_run_inline_scenario_passes(self, capsys):
        rc = main(["fuzz", "run", "--scenario", self.QUIET])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "1 scenario(s), 0 failure(s)" in out
        assert "inspector-differential, world-differential" in out

    def test_failing_scenario_prints_reproducer(self, capsys):
        rc = main([
            "fuzz", "run", "--scenario", self.FAILING,
            "--invariant", "recoverable",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "expects a recovery" in out
        assert "python -m repro fuzz run --scenario '" in out

    def test_reproducer_smoke_shrink_then_replay(self, capsys, tmp_path):
        # End-to-end: shrink the failing scenario, then replay the
        # written reproducer through the same CLI and get the same
        # verdict (exit 1, still failing).
        out_file = tmp_path / "shrunk.json"
        rc = main([
            "fuzz", "shrink", "--scenario", self.FAILING,
            "--invariant", "recoverable", "--max-attempts", "40",
            "-o", str(out_file),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "minimal reproducer:" in out
        assert out_file.exists()
        rc = main([
            "fuzz", "run", "--scenario", str(out_file),
            "--invariant", "recoverable",
        ])
        assert rc == 1
        assert "1 failure(s)" in capsys.readouterr().out


class TestBenchGlobOverrideValidation:
    def test_glob_override_fails_fast_before_running(self, capsys, tmp_path):
        # "family" is an axis of scale-epoch/scale-generate but not of
        # scale-adaptive: the whole glob run must refuse up front, before
        # any experiment burns time or writes an artifact.
        rc = main([
            "bench", "run", "scale-*", "--set", 'family="grid"',
            "--results-dir", str(tmp_path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scale-adaptive" in err and "family" in err
        assert list(tmp_path.iterdir()) == []
