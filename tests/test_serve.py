"""Tests for the multi-tenant job service (:mod:`repro.serve`).

Covers the JSONL job schema, the canonical seeded streams, admission
ordering and gang placement, the :class:`ServiceLoad` interval algebra,
the service session's event loop (head-of-line blocking, co-tenant
coupling), bit-identical service metrics across reruns, and a
hypothesis test that admission-policy permutations conserve total work —
no job lost, duplicated, or numerically altered by reordering.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigurationError
from repro.net.cluster import uniform_cluster
from repro.net.loadmodel import (
    ConstantLoad, MembershipEvent, MembershipTrace, ServiceLoad, work_done_in,
)
from repro.serve import (
    ADMISSION_POLICIES,
    JobQueue,
    JobSpec,
    ServiceSession,
    admission_order,
    generate_stream,
    place_job,
)


def _job(job_id: str, *, ranks: int = 1, vertices: int = 48,
         iterations: int = 2, **kw) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        vertices=vertices,
        iterations=iterations,
        ranks=ranks,
        **kw,
    )


def _jsonl(queue: JobQueue) -> str:
    """A stream file's text: one ``JobSpec.to_json`` line per job."""
    return "".join(job.to_json() + "\n" for job in queue)


# --------------------------------------------------------------------- #
# ServiceLoad interval algebra
# --------------------------------------------------------------------- #


class TestServiceLoad:
    def test_single_interval(self):
        load = ServiceLoad([(1.0, 3.0, 1.0)])
        assert load.load_at(0.5) == 0.0
        assert load.load_at(1.0) == 1.0
        assert load.load_at(2.9) == 1.0
        assert load.load_at(3.0) == 0.0

    def test_overlapping_intervals_sum(self):
        load = ServiceLoad([(0.0, 4.0, 1.0), (2.0, 6.0, 2.0)])
        assert load.load_at(1.0) == 1.0
        assert load.load_at(3.0) == 3.0
        assert load.load_at(5.0) == 2.0
        assert load.load_at(7.0) == 0.0

    def test_origin_shifts_and_clips(self):
        # Interval (1, 5) seen from origin 2: already running at local 0,
        # ends at local 3.  Interval (0, 2) is over by the origin: gone.
        load = ServiceLoad([(1.0, 5.0, 1.0), (0.0, 2.0, 1.0)], origin=2.0)
        assert load.load_at(0.0) == 1.0
        assert load.load_at(2.9) == 1.0
        assert load.load_at(3.0) == 0.0

    def test_empty_intervals_is_no_load(self):
        load = ServiceLoad([])
        assert load.load_at(0.0) == 0.0
        assert load.load_at(100.0) == 0.0

    def test_zero_length_or_zero_load_dropped(self):
        load = ServiceLoad([(1.0, 1.0, 5.0), (2.0, 3.0, 0.0)])
        assert load.load_at(1.0) == 0.0
        assert load.load_at(2.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="end >= start"):
            ServiceLoad([(2.0, 1.0, 1.0)])
        with pytest.raises(ValueError, match="load"):
            ServiceLoad([(0.0, 1.0, -1.0)])
        with pytest.raises(ValueError, match="origin"):
            ServiceLoad([(0.0, 1.0, 1.0)], origin=-0.5)

    def test_work_done_integrates_the_load(self):
        load = ServiceLoad([(0.0, 2.0, 1.0)])
        # Half speed for 2 s, then full speed for 2 s.
        assert work_done_in(0.0, 4.0, 1.0, load) == pytest.approx(3.0)


# --------------------------------------------------------------------- #
# JobSpec / JobQueue schema
# --------------------------------------------------------------------- #


class TestJobSpec:
    def test_round_trip(self):
        job = _job("alpha", ranks=3, priority=2, strategy="sort1",
                   load_balance="distributed", check_interval=2)
        again = JobSpec.from_json(job.to_json())
        assert again == job

    def test_dict_includes_schema_version(self):
        assert _job("a").to_dict()["schema_version"] == 1

    def test_unsupported_schema_version(self):
        data = _job("a").to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version 99"):
            JobSpec.from_dict(data)

    def test_unknown_field_rejected(self):
        data = _job("a").to_dict()
        data["colour"] = "blue"
        with pytest.raises(ConfigurationError, match="colour"):
            JobSpec.from_dict(data)

    def test_invalid_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            JobSpec.from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            JobSpec.from_dict([1, 2, 3])  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"job_id": ""}, "non-empty"),
            ({"vertices": 8}, "16 vertices"),
            ({"iterations": 0}, "1 iteration"),
            ({"ranks": 0}, "1 rank"),
            ({"strategy": "magic"}, "strategy"),
            ({"load_balance": "psychic"}, "load-balance"),
            ({"check_interval": 0}, "check_interval"),
        ],
    )
    def test_validation(self, kwargs, match):
        base = dict(job_id="a", vertices=48, iterations=2, ranks=1)
        base.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            JobSpec(**base)

    def test_work_estimate(self):
        assert _job("a", vertices=100, iterations=3).work_estimate() == 300.0


class TestJobQueue:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate job_id"):
            JobQueue([_job("x"), _job("x")])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            JobQueue([])

    def test_jsonl_round_trip_with_comments(self):
        queue = JobQueue([_job("a", ranks=2), _job("b")])
        text = "# stream header\n\n" + _jsonl(queue)
        again = JobQueue.from_jsonl(text)
        assert again.jobs == queue.jobs

    def test_jsonl_error_names_line(self):
        text = _job("a").to_json() + "\n{broken\n"
        with pytest.raises(ConfigurationError, match="line 2"):
            JobQueue.from_jsonl(text)

    def test_jsonl_all_comments_rejected(self):
        with pytest.raises(ConfigurationError, match="no jobs"):
            JobQueue.from_jsonl("# nothing\n\n# here\n")

    def test_aggregates(self):
        queue = JobQueue([
            _job("a", ranks=3, vertices=48, iterations=2),
            _job("b", ranks=1, vertices=32, iterations=3),
        ])
        assert queue.max_width() == 3
        assert queue.total_work() == 48 * 2 + 32 * 3
        assert len(queue) == 2


class TestGenerateStream:
    def test_deterministic_per_seed(self):
        a = generate_stream("uniform", 6, max_ranks=4, seed=7)
        b = generate_stream("uniform", 6, max_ranks=4, seed=7)
        assert _jsonl(a) == _jsonl(b)
        c = generate_stream("uniform", 6, max_ranks=4, seed=8)
        assert _jsonl(a) != _jsonl(c)

    def test_unknown_shape(self):
        with pytest.raises(ConfigurationError, match="stream shape"):
            generate_stream("spiral", 4, max_ranks=4)

    @pytest.mark.parametrize("shape", ["uniform", "descending", "mixed"])
    def test_widths_bounded_and_ids_unique(self, shape):
        queue = generate_stream(shape, 12, max_ranks=5, seed=3)
        assert len(queue) == 12
        assert all(1 <= job.ranks <= 5 for job in queue)
        assert len({job.job_id for job in queue}) == 12

    def test_descending_is_the_fifo_worst_case(self):
        queue = generate_stream("descending", 12, max_ranks=8)
        widths = [job.ranks for job in queue]
        works = [job.work_estimate() for job in queue]
        assert widths == sorted(widths, reverse=True)
        assert works == sorted(works, reverse=True)
        # Consecutive wide jobs cannot co-run: head-of-line blocking
        # idles the remainder ranks, which is the whole point.
        assert widths[0] + widths[1] > 8

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            generate_stream("uniform", 0, max_ranks=4)
        with pytest.raises(ConfigurationError, match="max_ranks"):
            generate_stream("uniform", 4, max_ranks=0)


# --------------------------------------------------------------------- #
# Admission order and placement
# --------------------------------------------------------------------- #


class TestAdmissionOrder:
    def _jobs(self):
        return [
            _job("big", vertices=96, iterations=4),
            _job("small", vertices=32, iterations=2),
            _job("mid", vertices=64, iterations=2),
        ]

    def test_fifo_keeps_submission_order(self):
        order = admission_order(self._jobs(), "fifo")
        assert [j.job_id for j in order] == ["big", "small", "mid"]

    def test_sjf_sorts_by_work(self):
        order = admission_order(self._jobs(), "sjf")
        assert [j.job_id for j in order] == ["small", "mid", "big"]

    def test_sjf_ties_break_by_submission(self):
        jobs = [_job("a"), _job("b"), _job("c")]
        order = admission_order(jobs, "sjf")
        assert [j.job_id for j in order] == ["a", "b", "c"]

    def test_random_is_a_deterministic_permutation(self):
        jobs = self._jobs()
        once = admission_order(jobs, "random", seed=5)
        again = admission_order(jobs, "random", seed=5)
        assert [j.job_id for j in once] == [j.job_id for j in again]
        assert sorted(j.job_id for j in once) == ["big", "mid", "small"]

    def test_random_seeds_differ(self):
        jobs = [_job(f"j{i}") for i in range(8)]
        orders = {
            tuple(j.job_id for j in admission_order(jobs, "random", seed=s))
            for s in range(6)
        }
        assert len(orders) > 1

    def test_priority_classes_dominate_every_policy(self):
        jobs = [
            _job("steerage", vertices=32),
            _job("first-class", vertices=96, priority=1),
        ]
        for policy in ADMISSION_POLICIES:
            order = admission_order(jobs, policy, seed=0)
            assert order[0].job_id == "first-class"

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="admission policy"):
            admission_order(self._jobs(), "psychic")


class TestPlaceJob:
    def test_prefers_least_loaded_ranks(self):
        placement = place_job(_job("a", ranks=2), [1, 0, 0, 1], 2)
        assert placement == (1, 2)

    def test_gang_or_nothing(self):
        # Three ranks wanted, only two free slots: refuse, don't shrink.
        assert place_job(_job("a", ranks=3), [0, 0, 1], 1) is None

    def test_full_cluster_refuses(self):
        assert place_job(_job("a"), [1, 1], 1) is None

    def test_time_sharing_stacks_tenants(self):
        assert place_job(_job("a"), [1, 1], 2) == (0,)

    def test_wider_than_cluster_raises(self):
        with pytest.raises(ConfigurationError, match="requests 4 ranks"):
            place_job(_job("a", ranks=4), [0, 0], 1)


# --------------------------------------------------------------------- #
# Service session behavior
# --------------------------------------------------------------------- #


def _run(jobs, *, size=2, policy="fifo", seed=0, max_tenants=1):
    session = ServiceSession(
        uniform_cluster(size, name="test-pool"),
        JobQueue(jobs),
        policy=policy,
        seed=seed,
        max_tenants=max_tenants,
    )
    return session.run()


class TestServiceSession:
    def test_bad_policy(self):
        with pytest.raises(ConfigurationError, match="admission policy"):
            ServiceSession(
                uniform_cluster(2), JobQueue([_job("a")]), policy="psychic"
            )

    def test_bad_max_tenants(self):
        with pytest.raises(ConfigurationError, match="max_tenants"):
            ServiceSession(
                uniform_cluster(2), JobQueue([_job("a")]), max_tenants=0
            )

    def test_job_wider_than_cluster(self):
        with pytest.raises(ConfigurationError, match="wide"):
            ServiceSession(uniform_cluster(2), JobQueue([_job("wide", ranks=3)]))

    def test_membership_cluster_rejected(self):
        trace = MembershipTrace(2, [MembershipEvent(1.0, "leave", 1)])
        cluster = uniform_cluster(2).with_membership(trace)
        with pytest.raises(ConfigurationError, match="membership"):
            ServiceSession(cluster, JobQueue([_job("a")]))

    def test_every_job_served_exactly_once(self):
        jobs = [_job(f"j{i}", ranks=1 + i % 2) for i in range(5)]
        report = _run(jobs, size=3, max_tenants=2)
        served = [r.job.job_id for r in report.records]
        assert sorted(served) == sorted(j.job_id for j in jobs)
        assert all(r.finished > r.admitted for r in report.records)
        assert all(r.queue_wait >= 0.0 for r in report.records)

    def test_head_of_line_blocking_on_dedicated_ranks(self):
        # A two-rank job owns the whole pool; both narrow jobs behind it
        # must wait for its completion even though rank 1 alone could
        # have hosted one of them the whole time.
        jobs = [
            _job("wide", ranks=2, vertices=96, iterations=3),
            _job("n1"),
            _job("n2"),
        ]
        report = _run(jobs, size=2, max_tenants=1)
        by_id = {r.job.job_id: r for r in report.records}
        assert by_id["wide"].admitted == 0.0
        assert by_id["n1"].admitted == by_id["wide"].finished
        assert by_id["n2"].admitted == by_id["wide"].finished
        assert by_id["n1"].queue_wait > 0.0

    def test_sjf_reorders_the_same_stream(self):
        jobs = [
            _job("wide", ranks=2, vertices=96, iterations=3),
            _job("n1"),
            _job("n2"),
        ]
        report = _run(jobs, size=2, policy="sjf", max_tenants=1)
        by_id = {r.job.job_id: r for r in report.records}
        assert by_id["n1"].admitted == 0.0
        assert by_id["n2"].admitted == 0.0
        assert by_id["wide"].queue_wait > 0.0

    def test_co_tenant_slows_execution(self):
        # Alone, the job runs at full speed; sharing its single rank
        # with an earlier tenant, its ServiceLoad halves the rate.
        solo = _run([_job("only", vertices=64, iterations=3)], size=1)
        both = _run(
            [
                _job("first", vertices=96, iterations=4),
                _job("only", vertices=64, iterations=3),
            ],
            size=1,
            max_tenants=2,
        )
        solo_exec = solo.records[0].exec_makespan
        shared = {r.job.job_id: r for r in both.records}
        assert shared["only"].admitted == 0.0  # co-admitted, not queued
        assert shared["only"].exec_makespan > solo_exec

    def test_checksums_invariant_under_policy(self):
        jobs = [_job(f"j{i}", vertices=32 + 16 * i, ranks=1 + i % 2)
                for i in range(4)]
        sums = {}
        for policy in ADMISSION_POLICIES:
            report = _run(jobs, size=3, policy=policy, seed=3, max_tenants=2)
            sums[policy] = {r.job.job_id: r.checksum for r in report.records}
        assert sums["fifo"] == sums["random"] == sums["sjf"]

    def test_report_metrics_shape(self):
        report = _run([_job("a"), _job("b")], size=2, max_tenants=1)
        metrics = report.metrics()
        assert metrics["n_jobs"] == 2.0
        assert metrics["throughput"] > 0.0
        assert 0.0 < metrics["jain_fairness"] <= 1.0
        assert metrics["p99_makespan"] >= metrics["p50_makespan"]
        payload = report.to_dict()
        assert {j["job_id"] for j in payload["jobs"]} == {"a", "b"}
        text = report.to_text()
        assert "throughput" in text and "Jain fairness" in text

    def test_preloaded_cluster_slows_service(self):
        cluster = uniform_cluster(1).with_load(0, ConstantLoad(1.0))
        slow = ServiceSession(cluster, JobQueue([_job("a")])).run()
        fast = _run([_job("a")], size=1)
        assert slow.service_makespan > fast.service_makespan


# --------------------------------------------------------------------- #
# Backend differential contract on service metrics
# --------------------------------------------------------------------- #


class TestServeDeterminism:
    @pytest.mark.parametrize("shape", ["uniform", "descending"])
    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_metrics_bit_identical_across_reruns(self, shape, policy):
        queue = generate_stream(shape, 5, max_ranks=4, seed=11)
        max_tenants = 1 if shape == "descending" else 2
        ref, vec = (
            ServiceSession(
                uniform_cluster(4, name="diff-pool"),
                queue,
                policy=policy,
                seed=1,
                max_tenants=max_tenants,
            ).run()
            for _ in range(2)
        )
        assert ref.metrics() == vec.metrics()
        for a, b in zip(ref.records, vec.records):
            assert a.job.job_id == b.job.job_id
            assert a.ranks == b.ranks
            assert a.admitted == b.admitted
            assert a.finished == b.finished
            assert a.checksum == b.checksum


# --------------------------------------------------------------------- #
# Conservation under admission permutations (hypothesis)
# --------------------------------------------------------------------- #


class TestConservation:
    @given(
        stream_seed=st.integers(0, 100),
        admission_seed=st.integers(0, 100),
    )
    @settings(max_examples=8, deadline=None)
    def test_permutations_conserve_total_work(self, stream_seed,
                                              admission_seed):
        # Whatever order the policy admits in, the same jobs run to
        # completion with the same numerical results: no job is lost,
        # duplicated, or silently altered by the reordering.
        queue = generate_stream("mixed", 4, max_ranks=3, seed=stream_seed)
        outcomes = {}
        for policy in ADMISSION_POLICIES:
            session = ServiceSession(
                uniform_cluster(3, name="conserve-pool"),
                queue,
                policy=policy,
                seed=admission_seed,
                max_tenants=2,
            )
            report = session.run()
            assert report.n_jobs == len(queue)
            outcomes[policy] = sorted(
                (r.job.job_id, r.checksum) for r in report.records
            )
        assert outcomes["fifo"] == outcomes["random"] == outcomes["sjf"]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestServeCli:
    def test_generated_stream_with_json(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        rc = main([
            "serve", "--stream", "uniform", "--n-jobs", "4",
            "--cluster-size", "4", "--policy", "random", "--seed", "2",
            "--max-tenants", "2", "--json", str(out),
        ])
        assert rc == 0
        assert "throughput" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["policy"] == "random"
        assert len(payload["jobs"]) == 4

    def test_jobs_file(self, tmp_path, capsys):
        stream = tmp_path / "jobs.jsonl"
        stream.write_text(
            "# two tiny jobs\n"
            + _jsonl(JobQueue([_job("a"), _job("b", ranks=2)]))
        )
        rc = main(["serve", "--jobs", str(stream), "--cluster-size", "2"])
        assert rc == 0
        assert "service: 2 jobs" in capsys.readouterr().out

    def test_missing_jobs_file(self, tmp_path, capsys):
        rc = main(["serve", "--jobs", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_stream_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["serve", "--stream", "spiral"])
