"""tools/bench_record.py: bench/out documents -> one record of the trajectory."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import bench_record  # noqa: E402

HOST = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "platform": "test"}


def _document(workload, mode, *, seed=1995, scale="full", failed=0, **metrics):
    doc = {
        "workload": workload, "seed": seed, "scale": scale, "mode": mode,
        "host": HOST, "ops_attempted": 5, "ops_failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    if mode == "run":
        doc["loadavg"] = {"start": [0.5, 0.4, 0.3], "end": [0.9, 0.5, 0.3]}
        doc["run_host_s"] = {"k": 5, "q1": 1.3, "q3": 1.5, "host_speed": 1.1}
    else:
        doc.update(traced_total_s=2.0, untraced_median_s=1.9, trace_faithful=True)
    return doc


def _write(out_dir, doc):
    kind = "run" if doc["mode"] == "run" else "layers"
    path = out_dir / f"{doc['workload']}.{kind}.json"
    path.write_text(json.dumps(doc))


@pytest.fixture
def out_dir(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    _write(out, _document("adaptive-sfc", "run", run_host_s=1.4, setup_s=9.0,
                          peak_rss_mb=700.0, virtual_makespan_s=44.7))
    _write(out, _document("adaptive-sfc", "trace", **{"adaptive.rebalance_s": 0.3}))
    _write(out, _document("static-rcb", "run", run_host_s=0.4, setup_s=4.0,
                          peak_rss_mb=300.0, virtual_makespan_s=1.2))
    return out


def _record(out_dir, trajectory, *extra):
    return bench_record.main([
        "--out-dir", str(out_dir), "--trajectory", str(trajectory),
        "--commit", "abc1234", *extra,
    ])


def test_one_record_per_run_and_idempotent(out_dir, tmp_path):
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory, "--label", "first") == 0
    once = trajectory.read_text()
    (record,) = json.loads(once)["records"]
    assert (record["commit"], record["seed"], record["scale"]) == ("abc1234", 1995, "full")
    assert record["label"] == "first" and record["host"] == HOST
    sfc = record["workloads"]["adaptive-sfc"]
    assert sfc["end_to_end"] == {
        "run_host_s": 1.4, "setup_s": 9.0, "peak_rss_mb": 700.0,
        "virtual_makespan_s": 44.7,
    }
    assert sfc["layers"] == {"adaptive.rebalance_s": 0.3}
    assert sfc["loadavg"]["end"] == [0.9, 0.5, 0.3]
    assert "layers" not in record["workloads"]["static-rcb"]
    # The same out/ again: nothing is added, nothing is rewritten.
    assert _record(out_dir, trajectory, "--label", "second") == 0
    assert trajectory.read_text() == once


def test_append_only_across_commits(out_dir, tmp_path):
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory) == 0
    first = json.loads(trajectory.read_text())["records"][0]
    assert bench_record.main([
        "--out-dir", str(out_dir), "--trajectory", str(trajectory),
        "--commit", "def5678",
    ]) == 0
    records = json.loads(trajectory.read_text())["records"]
    assert [r["commit"] for r in records] == ["abc1234", "def5678"]
    assert records[0] == first


def test_refuses_failed_operations(out_dir, tmp_path, capsys):
    _write(out_dir, _document("serve-stream", "run", failed=1, run_host_s=2.0))
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory) == 2
    assert not trajectory.exists()
    assert "serve-stream" in capsys.readouterr().err


def test_stale_documents_of_another_run_need_a_selector(out_dir, tmp_path, capsys):
    _write(out_dir, _document("serve-stream", "run", seed=7, scale="smoke",
                              run_host_s=2.0))
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory) == 2
    assert "--seed" in capsys.readouterr().err
    assert _record(out_dir, trajectory, "--seed", "1995") == 0
    (record,) = json.loads(trajectory.read_text())["records"]
    assert sorted(record["workloads"]) == ["adaptive-sfc", "static-rcb"]


def test_paired_with_names_a_recorded_parent(out_dir, tmp_path, capsys):
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory) == 0
    change = ["--out-dir", str(out_dir), "--trajectory", str(trajectory),
              "--commit", "def5678"]
    # Not in the trajectory, or only itself: refused, nothing written.
    for parent in ("0badc0d", "def5678"):
        before = trajectory.read_text()
        assert bench_record.main([*change, "--paired-with", parent]) == 2
        assert f"--paired-with {parent}" in capsys.readouterr().err
        assert trajectory.read_text() == before
    assert bench_record.main([*change, "--paired-with", "abc1234"]) == 0
    parent, child = json.loads(trajectory.read_text())["records"]
    assert "paired_with" not in parent
    assert child["paired_with"] == "abc1234"


def test_paired_with_refuses_a_parent_at_another_seed(out_dir, tmp_path, capsys):
    trajectory = tmp_path / "BENCH_trajectory.json"
    assert _record(out_dir, trajectory) == 0
    for path in out_dir.iterdir():
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "seed": 7}))
    assert bench_record.main([
        "--out-dir", str(out_dir), "--trajectory", str(trajectory),
        "--commit", "def5678", "--paired-with", "abc1234",
    ]) == 2
    assert "seed=7" in capsys.readouterr().err


def test_committed_trajectory_is_valid():
    document = json.loads((REPO_ROOT / "BENCH_trajectory.json").read_text())
    assert document["schema"] == bench_record.SCHEMA
    identities = [bench_record.identity(r) for r in document["records"]]
    assert len(set(identities)) == len(identities) >= 3
    for record in document["records"]:
        assert record["workloads"]
        if "paired_with" in record:
            # The parent was recorded before its child.
            parent = (record["paired_with"], record["seed"], record["scale"])
            earlier = identities[: identities.index(bench_record.identity(record))]
            assert parent in earlier


def _synthetic(commit, run_host_s, *, paired_with=None, seed=1995, scale="full"):
    record = {
        "commit": commit, "seed": seed, "scale": scale,
        "workloads": {"static-rcb": {
            "end_to_end": {"run_host_s": run_host_s},
            "layers": {"executor.sweep_s": 2 * run_host_s,
                       "obs.trace_overhead_frac": -0.1},
        }},
    }
    if paired_with is not None:
        record["paired_with"] = paired_with
    return record


def test_chain_multiplies_the_pair_ratios_in_order():
    records = [
        _synthetic("p1", 2.0), _synthetic("c1", 1.0, paired_with="p1"),
        # Another session: slower host, so c1 -> p2 is never divided.
        _synthetic("p2", 4.0), _synthetic("c2", 3.0, paired_with="p2"),
    ]
    links = bench_record.chain(records)
    assert links[("static-rcb", "run_host_s")] == [
        ("p1", "c1", 0.5, 0.5), ("p2", "c2", 0.75, 0.375),
    ]
    assert [link[3] for link in links[("static-rcb", "executor.sweep_s")]] \
        == [0.5, 0.375]
    # A signed fraction has no meaningful ratio.
    assert ("static-rcb", "obs.trace_overhead_frac") not in links


@pytest.mark.parametrize("moved", [{"seed": 7}, {"scale": "smoke"}])
def test_chain_refuses_a_pair_across_seeds_or_scales(moved, tmp_path, capsys):
    records = [
        _synthetic("p1", 2.0),
        _synthetic("c1", 1.0, paired_with="p1", **moved),
    ]
    with pytest.raises(bench_record.Refused, match="do not compare"):
        bench_record.chain(records)
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(json.dumps({"schema": 1, "records": records}))
    assert bench_record.main(["chain", "--trajectory", str(trajectory)]) == 2
    assert "c1 is paired with p1" in capsys.readouterr().err


def test_chain_on_the_committed_trajectory(capsys):
    document = json.loads((REPO_ROOT / "BENCH_trajectory.json").read_text())
    links = bench_record.chain(document["records"])

    def ratio(workload, change):
        (found,) = [
            r for _, c, r, _ in links[(workload, "run_host_s")] if c == change
        ]
        return found

    assert ratio("adaptive-sfc", "a8d5fe6") < 1  # PR 22: MCR in one batch
    assert ratio("real-2rank", "b79bc88") < 1  # PR 25: column-layout sweep
    assert bench_record.main(["chain"]) == 0
    assert "740ee16 -> a8d5fe6" in capsys.readouterr().out
