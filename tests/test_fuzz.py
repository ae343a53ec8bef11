"""Tests for repro.fuzz: generator, oracle, shrinker, and corpus replay.

The committed corpus in ``tests/fuzz_corpus/`` always runs (it is small,
deterministic, and each entry pins an edge case by name).  The
open-ended randomized sweep is behind the ``fuzz`` marker and deselected
by default (see pytest.ini).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ResilienceError
from repro.fuzz import (
    INVARIANTS,
    LATTICE,
    LoadSpec,
    Scenario,
    check_invariant_names,
    generate_scenarios,
    run_scenario,
    shrink_scenario,
)

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

#: Everything but the axis that spawns OS processes: that one runs under
#: the `real` marker, so `pytest -m "not real and not fuzz"` stays in-process.
SIM_INVARIANTS = tuple(i for i in INVARIANTS if i != "world-differential")


# ----------------------------------------------------------------------
# scenario model


class TestScenario:
    def test_json_round_trip(self):
        s = Scenario(
            seed=7, vertices=160, workstations=3, iterations=8,
            membership="standby:2, join:2@0.01, fail:1@0.02",
            checkpoint="interval:2:r2",
            loads=(LoadSpec(rank=0, steps=((0.0, 0.0), (0.01, 1.5))),),
            expect="any", name="rt",
        )
        assert Scenario.from_json(s.to_json()) == s

    def test_rejects_unknown_field(self):
        data = Scenario(
            seed=1, vertices=64, workstations=2, iterations=2
        ).to_dict()
        data["surprise"] = True
        with pytest.raises(ConfigurationError, match="unknown field"):
            Scenario.from_dict(data)

    def test_rejects_unsupported_schema_version(self):
        data = Scenario(
            seed=1, vertices=64, workstations=2, iterations=2
        ).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            Scenario.from_dict(data)

    def test_rejects_fail_without_checkpoint(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            Scenario(seed=1, vertices=64, workstations=3, iterations=4,
                     membership="fail:1@0.01")

    def test_rejects_invalid_membership_dsl(self):
        with pytest.raises(ConfigurationError, match="membership DSL"):
            Scenario(seed=1, vertices=64, workstations=2, iterations=4,
                     membership="explode:0@1")

    def test_rejects_load_rank_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            Scenario(seed=1, vertices=64, workstations=2, iterations=4,
                     loads=(LoadSpec(rank=5, steps=((0.0, 1.0),)),))

    def test_rejects_bad_expectation(self):
        with pytest.raises(ConfigurationError, match="expectation"):
            Scenario(seed=1, vertices=64, workstations=2, iterations=4,
                     expect="hopeful")

    def test_baseline_strips_adversity(self):
        s = Scenario(seed=3, vertices=96, workstations=3, iterations=5,
                     membership="leave:1@0.01", checkpoint="interval:2",
                     loads=(LoadSpec(rank=0, steps=((0.0, 1.0),)),))
        b = s.baseline()
        assert b.membership is None
        assert b.checkpoint is None
        assert b.loads == ()
        assert (b.seed, b.vertices, b.iterations) == (3, 96, 5)

    def test_reproducer_command_is_replayable(self):
        s = Scenario(seed=2, vertices=64, workstations=2, iterations=3)
        cmd = s.reproducer_command()
        assert cmd.startswith("python -m repro fuzz run --scenario '")
        payload = cmd.split("--scenario '", 1)[1].rstrip("'")
        assert Scenario.from_json(payload) == s


# ----------------------------------------------------------------------
# generator determinism


class TestGenerator:
    def test_same_seed_same_scenarios(self):
        a = [s.to_json() for s in generate_scenarios(123, 6)]
        b = [s.to_json() for s in generate_scenarios(123, 6)]
        assert a == b

    def test_budget_growth_is_a_prefix_extension(self):
        small = [s.to_json() for s in generate_scenarios(9, 3)]
        large = [s.to_json() for s in generate_scenarios(9, 8)]
        assert large[:3] == small

    def test_generated_scenarios_are_valid_and_diverse(self):
        scens = generate_scenarios(0, 12)
        # Validity is enforced by the constructor; diversity spot-checks.
        assert len({s.workstations for s in scens}) > 1
        assert len({s.vertices for s in scens}) > 1
        assert any(s.membership for s in scens)
        assert any(s.checkpoint for s in scens)

    def test_fail_events_always_come_with_a_checkpoint(self):
        for s in generate_scenarios(5, 20):
            trace = s.membership_trace()
            if trace is not None and trace.has_failures:
                assert s.checkpoint is not None

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            generate_scenarios(-4, 2)

    def test_rejects_zero_budget(self):
        with pytest.raises(ConfigurationError, match="budget"):
            generate_scenarios(0, 0)


# ----------------------------------------------------------------------
# oracle


class TestOracle:
    def test_invariant_name_validation(self):
        assert check_invariant_names([]) == INVARIANTS
        assert check_invariant_names(["no-desync"]) == ("no-desync",)
        with pytest.raises(ConfigurationError, match="known invariants"):
            check_invariant_names(["no-desink"])

    def test_quiet_scenario_recovers(self):
        rep = run_scenario(
            Scenario(seed=1, vertices=96, workstations=2, iterations=4),
            invariants=SIM_INVARIANTS,
        )
        assert rep.outcome == "recovered"
        assert rep.ok
        assert rep.checked == SIM_INVARIANTS
        assert rep.makespan is not None and rep.makespan > 0

    def test_expectation_mismatch_is_a_violation(self):
        # A correlated k=1 ring-edge double failure marked "recovered"
        # must be reported, and the diagnosis carried along.
        s = Scenario(seed=5, vertices=96, workstations=3, iterations=6,
                     membership="fail:1@0.005, fail:2@0.005",
                     checkpoint="interval:2", expect="recovered")
        rep = run_scenario(s, invariants=["recoverable"])
        assert rep.outcome == "diagnosed"
        assert not rep.ok
        assert any("expects a recovery" in v for v in rep.violations)
        assert "replica" in rep.diagnosis

    def test_diagnosed_expectation_accepts_resilience_error(self):
        s = Scenario(seed=5, vertices=96, workstations=3, iterations=6,
                     membership="fail:1@0.005, fail:2@0.005",
                     checkpoint="interval:2", expect="diagnosed")
        rep = run_scenario(s, invariants=["recoverable"])
        assert rep.ok

    def test_selected_invariants_limit_the_work(self):
        s = Scenario(seed=2, vertices=96, workstations=2, iterations=3)
        rep = run_scenario(s, invariants=["no-desync"])
        assert rep.checked == ("no-desync",)
        assert rep.ok


class TestOracleDetects:
    """The gate itself: with ``run_program`` replaced by a stub whose
    report is tampered on one side of one lattice axis, that axis's
    invariant — and only it — reports the divergence."""

    SCENARIO = Scenario(seed=1, vertices=96, workstations=2, iterations=4)

    @pytest.fixture
    def planted(self, monkeypatch, stub_report):
        def plant(tamper):
            """Every run returns a stub report after ``tamper(config,
            report)``; returns the list of configs that ran."""
            seen = []

            def fake_run_program(graph, cluster, config, y0=None):
                seen.append(config)
                report = stub_report()
                tamper(config, report)
                return report

            monkeypatch.setattr(
                "repro.fuzz.oracle.run_program", fake_run_program
            )
            return seen

        return plant

    def test_invariants_are_the_three_checks_plus_the_lattice(self):
        assert len(INVARIANTS) == 7
        assert INVARIANTS[3:] == tuple(axis.invariant for axis in LATTICE)

    def test_agreeing_runs_pass_and_walk_the_whole_lattice(self, planted):
        seen = planted(lambda config, report: None)
        assert run_scenario(self.SCENARIO).ok
        moved = [
            (c.backend, c.trace, c.inspector_mode, c.world) for c in seen
        ]
        assert moved == [
            ("vectorized", False, "full", "sim"),
            ("reference", False, "full", "sim"),
            ("vectorized", True, "full", "sim"),
            ("vectorized", False, "incremental", "sim"),
            ("vectorized", False, "full", "real"),
            ("vectorized", False, "full", "sim"),  # the quiet baseline
        ]

    @pytest.mark.parametrize(
        "invariant, on, field",
        [
            ("backend-differential", lambda c: c.backend == "reference", "clocks"),
            ("backend-differential", lambda c: c.backend == "reference", "values"),
            ("obs-neutral", lambda c: c.trace, "remap_time"),
            ("obs-neutral", lambda c: c.trace, "num_checkpoints"),
            ("inspector-differential",
             lambda c: c.inspector_mode == "incremental", "values"),
            ("world-differential", lambda c: c.world == "real", "values"),
        ],
    )
    def test_a_planted_divergence_is_reported_by_its_axis(
        self, planted, nudge_report, invariant, on, field
    ):
        planted(lambda c, report: on(c) and nudge_report(report, field))
        rep = run_scenario(self.SCENARIO)
        [violation] = rep.violations
        assert violation.startswith(f"{invariant}: ")
        assert field in violation

    @pytest.mark.parametrize(
        "on",
        [lambda c: c.inspector_mode == "incremental", lambda c: c.world == "real"],
    )
    def test_values_only_axes_ignore_clocks_times_and_counters(
        self, planted, nudge_report, on
    ):
        def tamper(config, report):
            if on(config):
                for field in ("clocks", "makespan", "remap_time", "num_remaps"):
                    nudge_report(report, field)

        planted(tamper)
        assert run_scenario(self.SCENARIO).ok

    def test_a_desync_is_reported_once_by_no_desync(self, planted):
        def tamper(config, report):
            if config.backend == "reference":
                report.metrics_by_rank[0]["counters"]["lb.remaps"] += 1

        planted(tamper)
        [violation] = run_scenario(self.SCENARIO).violations
        assert violation.startswith("no-desync[backend='reference']")

    def test_a_crashing_variant_is_a_violation_on_every_axis(self, planted):
        def tamper(config, report):
            if config.world == "real":
                raise RuntimeError("worker died")

        planted(tamper)
        [violation] = run_scenario(self.SCENARIO).violations
        assert violation.startswith("world-differential: ")
        assert "crashed: RuntimeError: worker died" in violation

    def test_outcome_agreement_is_a_contract_only_inside_the_sim_world(
        self, planted
    ):
        # Membership events fire on wall time in the real world, so a
        # diagnosed real run beside a recovered sim run is legitimate...
        def late_failure(on):
            def tamper(config, report):
                if on(config):
                    raise ResilienceError("unrecoverable")
            return tamper

        planted(late_failure(lambda c: c.world == "real"))
        assert run_scenario(self.SCENARIO).ok
        # ...while tracing may never change what happens.
        planted(late_failure(lambda c: c.trace))
        [violation] = run_scenario(self.SCENARIO).violations
        assert violation.startswith("obs-neutral: ")
        assert "diagnosed" in violation and "recovered" in violation

    def test_unpatchable_strategy_skips_the_inspector_axis(self, planted):
        seen = planted(lambda config, report: None)
        simple = Scenario(seed=1, vertices=96, workstations=2, iterations=4,
                          strategy="simple")
        assert run_scenario(simple).ok
        assert all(c.inspector_mode == "full" for c in seen)

    @pytest.mark.parametrize(
        "invariant, moved",
        [("backend-differential", {"backend": "reference"}),
         ("obs-neutral", {"trace": True})],
    )
    def test_one_selected_differential_runs_one_variant(
        self, planted, invariant, moved
    ):
        seen = planted(lambda config, report: None)
        rep = run_scenario(self.SCENARIO, invariants=[invariant])
        assert rep.checked == (invariant,)
        base, variant = seen
        for name, value in moved.items():
            assert getattr(base, name) != value
            assert getattr(variant, name) == value


# ----------------------------------------------------------------------
# shrinker


class TestShrinker:
    def _failing(self) -> Scenario:
        return Scenario(seed=5, vertices=320, workstations=4, iterations=12,
                        membership="fail:1@0.005, fail:2@0.005",
                        checkpoint="interval:2", expect="recovered",
                        name="shrink-me")

    def test_shrinks_and_still_fails(self):
        result = shrink_scenario(
            self._failing(), invariants=["recoverable"], max_attempts=60
        )
        assert not result.report.ok
        assert result.reductions > 0
        small = result.scenario
        assert small.vertices < 320
        assert small.iterations < 12
        # The reproducer replays to the same failure.
        replay = run_scenario(small, invariants=["recoverable"])
        assert not replay.ok

    def test_reproducer_command_round_trips(self):
        result = shrink_scenario(
            self._failing(), invariants=["recoverable"], max_attempts=40
        )
        payload = result.command.split("--scenario '", 1)[1].rstrip("'")
        assert Scenario.from_json(payload) == result.scenario

    def test_refuses_a_passing_scenario(self):
        s = Scenario(seed=1, vertices=96, workstations=2, iterations=3)
        with pytest.raises(ConfigurationError, match="nothing to shrink"):
            shrink_scenario(s, invariants=["no-desync"])

    def test_rejects_zero_attempt_budget(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            shrink_scenario(self._failing(), max_attempts=0)


# ----------------------------------------------------------------------
# corpus replay (always on; each entry pins a named edge case)


def test_corpus_exists_and_is_big_enough():
    assert len(CORPUS) >= 20, (
        f"tests/fuzz_corpus/ holds {len(CORPUS)} scenarios; the corpus "
        f"contract is >= 20"
    )
    names = {p.stem for p in CORPUS}
    for required in (
        "shrink-to-one-rank",
        "join-before-first-epoch",
        "failure-during-remap-window",
        "ring-edge-double-failure-k1",
        "ring-edge-double-failure-k2",
    ):
        assert required in names, f"corpus is missing {required}"


# Corpus scenarios fail ranks below their replication factor on purpose;
# the cap warning (an error under pytest.ini) is incidental to the replay.
# The replay walks the whole lattice; the world axis spawns OS processes,
# so it is its own test id under the `real` marker.
@pytest.mark.filterwarnings("ignore::repro.errors.ResilienceWarning")
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scenario_passes_oracle(path):
    scenario = Scenario.from_json(path.read_text(encoding="utf-8"))
    report = run_scenario(scenario, invariants=SIM_INVARIANTS)
    assert report.ok, f"{path.stem}: {report.violations}"
    # The file's expectation must be meaningful, not a blanket "any",
    # for the handcrafted entries that pin a specific outcome.
    if scenario.expect != "any":
        assert report.outcome == scenario.expect


@pytest.mark.real
@pytest.mark.filterwarnings("ignore::repro.errors.ResilienceWarning")
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scenario_world_differential(path):
    scenario = Scenario.from_json(path.read_text(encoding="utf-8"))
    report = run_scenario(scenario, invariants=["world-differential"])
    assert report.ok, f"{path.stem}: {report.violations}"


def test_corpus_exercises_every_axis():
    scenarios = [
        Scenario.from_json(p.read_text(encoding="utf-8")) for p in CORPUS
    ]
    applicable = {
        axis.invariant: sum(axis.applies(s) for s in scenarios)
        for axis in LATTICE
    }
    assert applicable == {
        "backend-differential": 22,
        "obs-neutral": 22,
        "inspector-differential": 17,
        "world-differential": 22,
    }


def test_corpus_files_are_normalized():
    # Each file is the canonical serialization of its own parse: corpus
    # diffs stay reviewable and shrunk replacements stay comparable.
    for path in CORPUS:
        text = path.read_text(encoding="utf-8")
        scenario = Scenario.from_json(text)
        assert json.loads(text) == scenario.to_dict(), path.stem


# ----------------------------------------------------------------------
# the open-ended randomized sweep (opt-in: pytest -m fuzz)


@pytest.mark.fuzz
@pytest.mark.parametrize("master_seed", [0, 1, 2, 3])
def test_randomized_sweep(master_seed):
    for scenario in generate_scenarios(master_seed, 25):
        report = run_scenario(scenario)
        assert report.ok, (
            f"{scenario.name}: {report.violations}\n"
            f"reproduce: {scenario.reproducer_command()}"
        )


@pytest.mark.fuzz
def test_randomized_sweep_is_replayable():
    first = [run_scenario(s).outcome for s in generate_scenarios(11, 10)]
    second = [run_scenario(s).outcome for s in generate_scenarios(11, 10)]
    assert first == second
