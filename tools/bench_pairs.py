#!/usr/bin/env python3
"""Alternating benchmark pairs of a base revision and the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --seeds 1,7919,2,3,4,5 --workloads paper_sweep,fit_requests \
        --out BENCH.json

The committed files of ``--base`` (default HEAD) are exported with
``git archive``, and the working tree's files (tracked and untracked, minus
what .gitignore excludes) are copied, each into a fresh directory; so both
sides start from cold caches and neither run touches the checkout.
``perfbench/run.py`` of each side then runs once per seed and workload,
alternating which side goes first from pair to pair, with ``--trace 0`` and
the ``run_seconds`` that BENCHMARK.json sets.
Host speed drifts between sessions by more than most effects, so the file
written compares only within itself: for every end-to-end metric that
BENCHMARK.json declares it holds each pair's two values, per side the median
and quartiles, and the number of pairs in which the working tree did better.
A workload that writes tables also gets ``same_tables_pairs``, the number
of pairs whose two sides wrote tables of equal SHA-256, so a change that
keeps the output bytes shows it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export_base(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a deleted but still tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its last stdout line is the JSON summary."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, check=True, capture_output=True, text=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((tree / "perfbench" / "out" / f"{workload}.trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in summary["metrics"].items()},
            "attempted": summary["attempted"], "failed": summary["failed"],
            "table_sha256": report["table_sha256"], "machine": report["machine"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        name = m["name"]
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "base": spread(base), "change": spread(change),
                     "change_better_pairs": sum(sign * (c - b) > 0.0
                                                for b, c in zip(base, change)),
                     "median_ratio": statistics.median(change) / statistics.median(base)}
    for side in ("base", "change"):
        out[f"failed_share.{side}"] = (sum(p[side]["failed"] for p in pairs)
                                       / sum(p[side]["attempted"] for p in pairs))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    p.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    p.add_argument("--workloads", default="paper_sweep,fit_requests")
    p.add_argument("--out", required=True, help="JSON file to write")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        raise SystemExit("need at least two seeds for quartiles")
    workloads = args.workloads.split(",")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base).strip()
    record = {"base": base_rev, "change": "working tree", "seconds": seconds,
              "seeds": seeds, "order": "base first in even pairs (0, 2, ...), change first "
                                       "in odd ones", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        export_base(base_rev, trees["base"])
        export_working_tree(trees["change"])
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                sides = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    pair[side] = run_side(trees[side], workload, seed, seconds)
                    record.setdefault("machine", pair[side].pop("machine"))
                    print(f"{workload} seed {seed} {side}: "
                          + "  ".join(f"{k} {v:.6g}" for k, v in pair[side]["metrics"].items()),
                          flush=True)
                pairs.append(pair)
            entry = {"pairs": pairs, "summary": summarize(pairs, spec["end_to_end"])}
            same = [p["base"]["table_sha256"] == p["change"]["table_sha256"]
                    for p in pairs if p["base"]["table_sha256"]]
            if same:
                entry["same_tables_pairs"] = sum(same)
            record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
