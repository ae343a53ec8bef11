#!/usr/bin/env python
"""Append one benchmark run to the committed perf trajectory.

``python3 -m bench run`` (and ``bench trace``) leave one document per
workload in the git-ignored ``bench/out/``: ``<workload>.run.json`` with
the four end-to-end metrics, ``<workload>.layers.json`` with the layer
table.  This tool folds what it finds there into ONE record — commit,
date, host, load average, seed, scale, and per workload the end-to-end
metrics and the layer table — and appends it to ``BENCH_trajectory.json``
at the repository root, so that "how does that differ from last week" is
answered by a file and not by CHANGES.md prose.

    python3 -m bench run && python3 -m bench trace
    python tools/bench_record.py --label "what this run measured"

Host speed drifts between sessions, so two records compare soundly only
when they were measured in one session, alternating.  ``--paired-with
<commit>`` stores, as ``paired_with``, the commit of the parent record
this run was co-measured with; that record must already be in the
trajectory at the same seed and scale, or the run is refused:

    python tools/bench_record.py --out-dir <parent>/bench/out --commit <parent>
    python tools/bench_record.py --paired-with <parent> --label "..."

``chain`` reads the trajectory back across sessions without comparing two
sessions: for each workload and each end-to-end or layer metric it prints
the change/parent ratio of every paired record, in trajectory order, and
their running product.  A pairing whose parent is not recorded at the
same seed and scale is refused:

    python tools/bench_record.py chain

The trajectory is append-only: a record is identified by (commit, seed,
scale), and recording an identity that is already there changes nothing
(so the tool may be run twice on the same ``out/``).  A run with a failed
operation is refused — its timings are not timings of the work.  Files
left in ``out/`` by runs at another seed or scale are ignored when
``--seed`` / ``--scale`` say which run is meant, and rejected otherwise.

It reads the documents as plain JSON: nothing is imported from ``bench/``.
Exit status: 0 recorded, already present or chained; 2 refused (reason
on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1


class Refused(Exception):
    """The run in ``out/`` must not enter the trajectory."""


def git_commit(root: Path) -> str:
    """Short hash of HEAD, ``-dirty`` when tracked files differ from it."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True
        )

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        raise Refused(f"cannot name the commit: {head.stderr.strip()}")
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("-dirty" if dirty else "")


def load_documents(
    out_dir: Path, seed: int | None, scale: str | None
) -> dict[str, dict[str, dict[str, Any]]]:
    """``{workload: {"run": doc, "layers": doc}}`` for the selected run.

    Each document gains ``measured``: its file's modification time.
    """
    found: dict[str, dict[str, dict[str, Any]]] = {}
    for kind in ("run", "layers"):
        for path in sorted(out_dir.glob(f"*.{kind}.json")):
            doc = json.loads(path.read_text())
            if seed is not None and doc["seed"] != seed:
                continue
            if scale is not None and doc["scale"] != scale:
                continue
            doc["measured"] = path.stat().st_mtime
            found.setdefault(doc["workload"], {})[kind] = doc
    if not found:
        raise Refused(f"no matching *.run.json / *.layers.json in {out_dir}")
    return found


def build_record(
    found: dict[str, dict[str, dict[str, Any]]],
    commit: str,
    label: str,
    paired_with: str | None = None,
) -> dict[str, Any]:
    docs = [doc for kinds in found.values() for doc in kinds.values()]
    runs = {(doc["seed"], doc["scale"]) for doc in docs}
    if len(runs) > 1:
        raise Refused(
            f"out/ mixes runs at (seed, scale) {sorted(runs)}; "
            "say which with --seed / --scale"
        )
    for doc in docs:
        if doc["ops_failed"] > 0:
            raise Refused(
                f"{doc['workload']} ({doc['mode']}): {doc['ops_failed']} of "
                f"{doc['ops_attempted']} operations failed"
            )
    ((seed, scale),) = runs
    workloads: dict[str, Any] = {}
    for name, kinds in sorted(found.items()):
        entry: dict[str, Any] = {}
        if run := kinds.get("run"):
            reps = run["run_host_s"]
            entry["end_to_end"] = {
                metric: value["value"] for metric, value in run["metrics"].items()
            }
            entry["run_host_s_spread"] = {
                "k": reps["k"], "q1": reps["q1"], "q3": reps["q3"],
                "host_speed": reps["host_speed"],
            }
            entry["loadavg"] = run["loadavg"]
            entry["ops_attempted"] = run["ops_attempted"]
        if layers := kinds.get("layers"):
            entry["layers"] = {
                metric: value["value"] for metric, value in layers["metrics"].items()
            }
            entry["traced_total_s"] = layers["traced_total_s"]
            entry["untraced_median_s"] = layers["untraced_median_s"]
            entry["trace_faithful"] = layers["trace_faithful"]
        workloads[name] = entry
    measured = max(doc["measured"] for doc in docs)
    record = {
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(measured)),
        "label": label,
        "seed": seed,
        "scale": scale,
        "host": docs[0]["host"],
        "workloads": workloads,
    }
    if paired_with is not None:
        record["paired_with"] = paired_with
    return record


def identity(record: dict[str, Any]) -> tuple[str, int, str]:
    return record["commit"], record["seed"], record["scale"]


def append_record(trajectory: Path, record: dict[str, Any]) -> bool:
    """Append *record* unless its identity is present; True if appended."""
    if trajectory.exists():
        document = json.loads(trajectory.read_text())
        if document.get("schema") != SCHEMA:
            raise Refused(f"{trajectory} is not a schema-{SCHEMA} trajectory")
    else:
        document = {"schema": SCHEMA, "records": []}
    if (parent := record.get("paired_with")) is not None:
        wanted = (parent, record["seed"], record["scale"])
        if parent == record["commit"] or not any(
            identity(old) == wanted for old in document["records"]
        ):
            raise Refused(
                f"--paired-with {parent}: no other record of that commit at "
                f"seed={record['seed']} scale={record['scale']} in {trajectory}"
            )
    if any(identity(old) == identity(record) for old in document["records"]):
        return False
    document["records"].append(record)
    scratch = trajectory.with_suffix(".json.tmp")
    scratch.write_text(json.dumps(document, indent=1) + "\n")
    os.replace(scratch, trajectory)
    return True


def chain(
    records: list[dict[str, Any]],
) -> dict[tuple[str, str], list[tuple[str, str, float, float]]]:
    """``{(workload, metric): [(parent, change, ratio, running product)]}``.

    Only a record's ratio to the parent it was co-measured with is taken;
    a metric missing, or not positive, on either side of a pair adds no
    link (a ratio of a difference or a signed fraction means nothing).
    """
    by_identity = {identity(record): record for record in records}
    links: dict[tuple[str, str], list[tuple[str, str, float, float]]] = {}
    for record in records:
        if (parent_commit := record.get("paired_with")) is None:
            continue
        parent = by_identity.get(
            (parent_commit, record["seed"], record["scale"])
        )
        if parent is None or parent_commit == record["commit"]:
            raise Refused(
                f"{record['commit']} is paired with {parent_commit}, which "
                f"has no other record at seed={record['seed']} "
                f"scale={record['scale']}: the two sessions do not compare"
            )
        for workload, entry in record["workloads"].items():
            before = parent["workloads"].get(workload, {})
            for part in ("end_to_end", "layers"):
                old = before.get(part, {})
                for metric, value in entry.get(part, {}).items():
                    base = old.get(metric)
                    if base is None or not (base > 0 and value > 0):
                        continue
                    ratio = value / base
                    chained = links.setdefault((workload, metric), [])
                    product = (chained[-1][3] if chained else 1.0) * ratio
                    chained.append(
                        (parent_commit, record["commit"], ratio, product)
                    )
    return links


def chain_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_record.py chain",
        description="Chain the within-session pair ratios of the trajectory.",
    )
    parser.add_argument(
        "--trajectory", type=Path, default=ROOT / "BENCH_trajectory.json"
    )
    args = parser.parse_args(argv)
    records = json.loads(args.trajectory.read_text())["records"]
    try:
        links = chain(records)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for (workload, metric), chained in sorted(links.items()):
        print(f"{workload} {metric}")
        for parent, change, ratio, product in chained:
            print(f"  {parent} -> {change}  ratio {ratio:.3f}  "
                  f"product {product:.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["chain"]:
        return chain_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=ROOT / "bench" / "out")
    parser.add_argument(
        "--trajectory", type=Path, default=ROOT / "BENCH_trajectory.json"
    )
    parser.add_argument(
        "--commit", help="the commit that was measured (default: HEAD of this checkout)"
    )
    parser.add_argument("--label", default="", help="one line: what this run is")
    parser.add_argument(
        "--paired-with",
        metavar="COMMIT",
        help="the recorded parent commit this run alternated with in one session",
    )
    parser.add_argument("--seed", type=int, help="only documents of this seed")
    parser.add_argument("--scale", help="only documents of this scale")
    args = parser.parse_args(argv)
    try:
        record = build_record(
            load_documents(args.out_dir, args.seed, args.scale),
            args.commit or git_commit(ROOT),
            args.label,
            args.paired_with,
        )
        appended = append_record(args.trajectory, record)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    commit, seed, scale = identity(record)
    verb = "recorded" if appended else "already recorded:"
    print(f"{verb} {commit} seed={seed} scale={scale} "
          f"({', '.join(record['workloads'])}) in {args.trajectory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
