#!/usr/bin/env python3
"""Check that HEAD gives the same output as REV on the benchmark's commands.

The committed files of both commits are exported with `git archive` into a
temporary directory, by scripts/bench_pairs.py's `export`.  Every distinct
command of perfbench/workloads.py (read from this checkout), followed by any
extra command lines given, runs once as `python -m modinv ...` in each copy.
For each command the script compares the sha256 of stdout, the stderr text
and the exit code, and exits 0 only if every command agrees.  Stdout goes
to a file that is hashed in pieces, so outputs of hundreds of MB are never
held.  The line printed for each command also gives each side's wall time
and peak RSS, from os.wait4 in perfbench/spawner.py, so the same run backs
both "output unchanged" and a memory figure.  At the end, one line per
workload (and one for the extra command lines) gives each side's largest
peak RSS over its commands, the figure the benchmark's `peak_rss_mib` takes
for one pass; a command two workloads share counts for both.  Only the
standard library is used.

Usage: python3 scripts/compare_outputs.py --parent REV
       ["construct --p 101 --blocks 101" ...]
"""

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Stands in for the workloads' missing directory: a relative path that the
# commands' working directory lacks, so the error text is the same on both
# sides.
MISSING = "missing-directory"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load(ROOT / "perfbench" / "workloads.py")
export = _load(ROOT / "scripts" / "bench_pairs.py").export


def _runnable(c):
    """A workload command with MISSING for the missing directory."""
    return workloads.Command(tuple(a.replace(workloads.MISSING_DIR, MISSING)
                                   for a in c.args), c.env)


def workload_commands() -> list:
    """Distinct commands of every workload, in first-seen order."""
    out = []
    for workload in workloads.WORKLOADS.values():
        for command in map(_runnable, workload.commands):
            if command not in out:
                out.append(command)
    return out


# No command may run longer; p = 149 takes under a minute.
DEADLINE_S = 3600.0

Result = namedtuple("Result", "stdout stderr code wall_s rss_mib")


class Runner:
    """Runs commands through perfbench/spawner.py, a process as small as the
    benchmark's: a child's peak RSS as wait4 reports it is never below that
    of the process that started it.  A command's output goes to files in
    `work`, and its stdout is hashed from there in 64 KiB reads."""

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ)
        env.pop("MODINV_THREADS", None)
        self._spawner = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawner.py")], env=env, cwd=work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self):
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, checkout: Path, command) -> Result:
        """Stdout sha256, stderr, exit code, wall seconds and peak RSS in
        MiB of one command in one checkout."""
        out, err = self.work / "stdout", self.work / "stderr"
        env = {"PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1",
               **dict(command.env)}
        request = {"commands": [{"argv": [sys.executable, "-m", "modinv", *command.args],
                                 "env": env, "stdout": str(out), "stderr": str(err)}],
                   "deadline": DEADLINE_S}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        result = json.loads(self._spawner.stdout.readline())["results"][0]
        if result["killed"]:
            raise TimeoutError(f"{command.text} ran longer than {DEADLINE_S:.0f} s")
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        out.unlink()
        return Result(digest.hexdigest(), err.read_text(errors="replace"),
                      result["status"], result["wall"], result["rss_kib"] / 1024)


def differences(parent: tuple, change: tuple) -> list:
    """Names of the parts of two run results that differ."""
    return [name for name, a, b in zip(("stdout", "stderr", "exit code"), parent, change)
            if a != b]


def cost(result: Result) -> str:
    return f"{result.wall_s:.2f} s {result.rss_mib:.1f} MiB"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="baseline revision")
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="extra modinv command line, e.g. 'construct --p 5 --blocks 5'")
    args = parser.parse_args(argv)

    commands = workload_commands()
    extra = [workloads.Command(tuple(c.split())) for c in args.commands]
    commands += extra
    groups = {name: set(map(_runnable, w.commands)) for name, w in workloads.WORKLOADS.items()}
    groups["command line"] = set(extra)
    peaks = {}      # group -> [parent, change]: the largest peak RSS of its commands
    tmp = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    runner = Runner(tmp)
    try:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            sides[side] = tmp / side
            export(rev, sides[side])
        differing = 0
        for command in commands:
            parent = runner.run(sides["parent"], command)
            change = runner.run(sides["change"], command)
            diff = differences(parent, change)
            differing += bool(diff)
            for name, members in groups.items():
                if command in members:
                    peak = peaks.setdefault(name, [0.0, 0.0])
                    peak[:] = max(peak[0], parent.rss_mib), max(peak[1], change.rss_mib)
            print(f"{'DIFFERS (' + ', '.join(diff) + ')' if diff else 'identical'}: "
                  f"{command.text} (parent {cost(parent)}, change {cost(change)})",
                  flush=True)
        for name, (parent, change) in peaks.items():
            print(f"largest peak RSS, {name}: parent {parent:.3f} MiB, change {change:.3f} MiB")
        print(f"{len(commands) - differing} of {len(commands)} commands identical")
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
