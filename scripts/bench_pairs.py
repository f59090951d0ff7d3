#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs and write a BENCH file.

The committed files of both commits are exported with `git archive` into a
temporary directory.  For every workload and seed, `perfbench/run.py
--trace 0` runs once in each copy, one right after the other; which side
goes first alternates from pair to pair, so drift on the host falls on both
sides alike.  The output file records, per workload, the seeds and each
side's final JSON line for every pair; per metric, each side's median and
the distance between its quartiles, the median paired difference (change
minus parent) and the pairs the change won; and the line count of
src/modinv on each side.  Only the standard library is used.

Every workload in BENCHMARK.json runs for its `run_seconds`, in 10
pairs, comparing REV against HEAD.

Usage: python3 scripts/bench_pairs.py --parent REV [--first-seed 1]
       [--tmp DIR] [--out BENCH.json]
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                           capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Extract the committed files of REV into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def src_lines(checkout: Path) -> int:
    return sum(len(f.read_text().splitlines())
               for f in sorted((checkout / "src" / "modinv").glob("*.py")))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one timed benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values) -> float:
    """Distance between the first and third quartiles (statistics.quantiles,
    exclusive method)."""
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def summarize(runs, better) -> dict:
    """Per end-to-end metric: each side's median and quartile distance, the
    median over the pairs of change minus parent, and the pairs won by the
    change (ties count for neither side).  The paired difference shows a
    steady change that drift of the host across pairs hides in the medians."""
    out = {}
    for name, direction in better.items():
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        won = sum((c < p) if direction == "lower" else (c > p)
                  for p, c in zip(parent, change))
        out[name] = {"parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_iqr": iqr(parent),
                     "change_iqr": iqr(change),
                     "median_paired_difference": statistics.median(
                         c - p for p, c in zip(parent, change)),
                     "pairs_won": won}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="baseline revision")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--tmp", help="directory for the temporary copies")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revs = {side: git("rev-parse", rev)
            for side, rev in (("parent", args.parent), ("change", "HEAD"))}
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.tmp))
    checkouts = {side: tmp / side for side in revs}
    try:
        for side, rev in revs.items():
            export(rev, checkouts[side])
        result = {
            "revisions": revs,
            "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
            "seconds": seconds,
            "src_modinv_lines": {side: src_lines(path)
                                 for side, path in checkouts.items()},
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{k} {v['value']:.3f}" for k, v in pair[side]["metrics"].items()),
                        file=sys.stderr, flush=True)
                runs.append(pair)
            result["workloads"][workload] = {
                "seeds": seeds,
                "pairs": len(runs),
                "summary": summarize(runs, better),
                "runs": runs,
            }
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
