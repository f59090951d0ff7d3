"""Benchmark of the modinv CLI: construct, verify and export end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout holding `src/modinv`.  With `--trace 0` it
times passes over the workload's command list for at least S seconds, one
fresh interpreter per command, one command at a time, and reports the
end-to-end metrics.  With `--trace 1` it reports the per-layer metrics
instead (see trace_run.py); the tracing code is not imported otherwise.
Every output is checked (checks.py).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from execute import Executor
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent

# set-up is repeated at least this often, and on cheap workloads until this
# much time is spent, and its median reported
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_TARGET_S = 2.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class Tally:
    """Operations attempted and failed, and what was wrong with any output."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.faults = {}      # failure text -> count, for failed commands
        self.wrong = {}       # problem -> count, for outputs that failed a check

    def add(self, result):
        for outcome in result.outcomes:
            self.attempted += 1
            failed, problem = self.checker.judge(outcome)
            if problem is None:
                continue
            line = f"{outcome.command.text}: {problem}"
            if failed:
                self.failed += 1
                self.faults[line] = self.faults.get(line, 0) + 1
            else:
                self.wrong[line] = self.wrong.get(line, 0) + 1


def setup_code(workload) -> str:
    return ("import modinv\n"
            "from modinv import GF, RepresentationSpec\n"
            f"for p, blocks in {list(workload.specs)!r}:\n"
            "    RepresentationSpec(p, blocks)\n"
            f"for p, k in {list(workload.fields)!r}:\n"
            "    field = GF(p, k)\n"
            "    field.mul(field.one(), field.one())\n")


def measure_setup(executor, workload) -> float:
    """Median wall time of a fresh interpreter importing modinv and building
    the workload's specs and fields, lazy tables included."""
    code = setup_code(workload)
    times = []
    while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_TARGET_S and len(times) < SETUP_MAX_REPS):
        times.append(executor.python(code))
    return statistics.median(times)


def timed_run(executor, tally, workload, seed, seconds) -> dict:
    setup = measure_setup(executor, workload)
    rng = random.Random(seed)
    passes = []
    while not passes or sum(p.wall for p in passes) < seconds:
        order = rng.sample(workload.commands, len(workload.commands))
        passes.append(executor.run_pass(order))
        tally.add(passes[-1])
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
        "setup_s": setup,
    }


def run_info() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    lines = sum(len(f.read_text().splitlines())
                for f in sorted((ROOT / "src" / "modinv").glob("*.py")))
    return {"commit": commit, "cpus": os.cpu_count(),
            "python": platform.python_version(), "src_modinv_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "modinv" / "__init__.py").is_file():
        print(f"error: no modinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    executor = Executor(ROOT, work)
    try:
        executor.python("import modinv")     # fails early; warms bytecode
        from checks import Checker           # sympy: only after the spawner

        def fetch_suite(p, blocks):
            spec = ["--p", str(p), "--blocks", ",".join(map(str, blocks))]
            out = executor.run(Command(("construct", *spec, "--format", "json")))
            if out.returncode:
                raise RuntimeError(f"construct {spec} failed: {out.stderr[-200:]}")
            return out.stdout

        tally = Tally(Checker(fetch_suite))
        if args.trace:
            import trace_run
            metrics, units = trace_run.traced_run(
                executor, tally, workload, args.seed, args.seconds), trace_run.UNITS
        else:
            metrics, units = timed_run(
                executor, tally, workload, args.seed, args.seconds), END_TO_END_UNITS
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        executor.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("info " + json.dumps(run_info(), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6f} {units[name]}")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    for line, count in sorted(tally.faults.items()):
        print(f"FAILED x{count} {line}")
    for line, count in sorted(tally.wrong.items()):
        print(f"WRONG x{count} {line}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
