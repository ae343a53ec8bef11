"""Smoke test of the repo benchmark (``bench/``), collected by tier-1.

Runs all four workloads at ``--scale smoke`` (10k-vertex meshes, 12 jobs,
k = 2) and pins what later issues rely on: the names in ``BENCHMARK.json``
are the names the benchmark prints, virtual makespans and exact counts
repeat bit-for-bit between runs, no operation fails, the traced
re-enactment is faithful, and span self-time arithmetic is right.  It
asserts no timing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import cli, worker
from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from bench.spans import Span, layer_seconds, self_times
from bench.workloads import make_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(cli.ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


def test_manifest_names_are_the_benchmarks_names():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == make_workload(entry["name"]).why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == PER_LAYER
    for name in (*WORKLOADS, *END_TO_END, *PER_LAYER):
        assert NAME.fullmatch(name), name
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "-m", "bench", "run"]
    assert MANIFEST["run_seconds"] == cli.RUN_SECONDS


@pytest.fixture(scope="module")
def smoke_runs():
    """Two in-process smoke runs of every workload."""
    return {
        name: [worker.measure(name, 1995, "smoke", 0.0) for _ in range(2)]
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_repeats(smoke_runs, name, capsys):
    first, second = smoke_runs[name]
    for doc in (first, second):
        assert doc["failures"] == [] and doc["ops_failed"] == 0
        assert doc["ops_attempted"] == 3  # warm-up + k = 2
        assert doc["virtual_repeatable"]
        assert {n: m["unit"] for n, m in doc["metrics"].items()} == END_TO_END
        assert all(m["value"] > 0 for m in doc["metrics"].values())
    # The simulator's clock and every exact count repeat bit-for-bit.
    assert (
        first["metrics"]["virtual_makespan_s"]
        == second["metrics"]["virtual_makespan_s"]
    )
    assert first["counts"] == second["counts"]
    assert first["virtual"] == second["virtual"]

    cli.print_document(first)
    print(cli.result_line(first))
    *report, last = capsys.readouterr().out.splitlines()
    assert report[0].startswith(f"== {name} ")
    printed = {
        line.split()[0]: line.split()[-1]
        for line in report
        if line.split()[0] in END_TO_END
    }
    assert printed == END_TO_END  # every metric by name, with its unit
    assert "ops_attempted=3 ops_failed=0" in report[-1]
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(END_TO_END)


@pytest.mark.parametrize("name", ["adaptive-sfc", "serve-stream"])
def test_traced_smoke_run_is_faithful(name):
    doc = worker.trace(name, 1995, "smoke")
    assert doc["ops_failed"] == 0
    assert doc["trace_faithful"] is True
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == PER_LAYER
    with open(os.path.join(cli.ROOT, doc["trace_file"])) as fh:
        spans = json.load(fh)["spans"]
    assert {"partition.order", "executor.gather", "rank"} <= {
        s["name"] for s in spans
    }


def test_command_line_contract():
    """The command of BENCHMARK.json, as a driver would run it."""
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--scale", "smoke",
         "--workload", "serve-stream", "--seed", "7", "--seconds", "0",
         "--trace", "0"],
        cwd=cli.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 3
    assert list(result["metrics"]) == list(END_TO_END)


# ---------------------------------------------------------------------- #
# span self-time arithmetic
# ---------------------------------------------------------------------- #


def _span(name, start, end, parent=-1, rank=-1, rep=0):
    return Span(name, rank, rep, start, end, parent)


def test_self_time_nested():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 6.0, parent=0),
        _span("c", 2.0, 4.0, parent=1),
    ]
    assert self_times(spans) == [5.0, 3.0, 2.0]


def test_self_time_overlapping_children_count_once():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("x", 1.0, 5.0, parent=0),
        _span("y", 3.0, 8.0, parent=0),  # overlaps x on [3, 5]
        _span("z", 4.0, 4.5, parent=0),  # inside both
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)  # [0,1] + [8,10]


def test_self_time_zero_width_and_clipping():
    spans = [
        _span("parent", 2.0, 2.0),
        _span("child", 2.0, 2.0, parent=0),
        _span("other", 0.0, 4.0),
        _span("late", 3.0, 9.0, parent=2),  # runs past its parent's end
    ]
    assert self_times(spans) == [0.0, 0.0, 3.0, 6.0]


def test_layer_seconds_averages_ranks_and_charges_launch_the_mean_body():
    spans = [
        _span("spmd", 0.0, 10.0),
        _span("rank", 1.0, 9.0, parent=0, rank=0),
        _span("sweep", 1.0, 5.0, parent=1, rank=0),
        _span("rank", 3.0, 9.0, parent=0, rank=1),
        _span("sweep", 3.0, 5.0, parent=3, rank=1),
    ]
    seconds = layer_seconds(spans)
    assert seconds["sweep"] == pytest.approx(3.0)  # mean of 4 and 2
    assert seconds["rank"] == pytest.approx(4.0)  # mean of 4 and 4
    assert seconds["spmd"] == pytest.approx(3.0)  # 10 - mean body of 7
    assert sum(seconds.values()) == pytest.approx(10.0)  # layers add up
