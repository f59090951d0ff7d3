#!/usr/bin/env python3
"""Check that HEAD gives the same output as REV on the benchmark's commands.

The committed files of both commits are exported with `git archive` into a
temporary directory, by scripts/bench_pairs.py's `export`.  Every distinct
command of perfbench/workloads.py (read from this checkout), followed by any
extra command lines given, runs once as `python -m modinv ...` in each copy.
For each command the script compares the sha256 of stdout, the stderr text
and the exit code, prints one line per command, and exits 0 only if every
command agrees.  Only the standard library is used.

Usage: python3 scripts/compare_outputs.py --parent REV
       ["construct --p 101 --blocks 101" ...]
"""

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Stands in for the workloads' missing directory: a relative path that no
# checkout has, so the error text is the same on both sides.
MISSING = "missing-directory"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load(ROOT / "perfbench" / "workloads.py")
export = _load(ROOT / "scripts" / "bench_pairs.py").export


def workload_commands() -> list:
    """Distinct commands of every workload, in first-seen order."""
    out = []
    for workload in workloads.WORKLOADS.values():
        for c in workload.commands:
            args = tuple(a.replace(workloads.MISSING_DIR, MISSING) for a in c.args)
            command = workloads.Command(args, c.env)
            if command not in out:
                out.append(command)
    return out


def run(checkout: Path, command) -> tuple:
    """(stdout sha256, stderr, exit code) of one command in one checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("MODINV_THREADS", None)
    env.update(command.env)
    proc = subprocess.run([sys.executable, "-m", "modinv", *command.args],
                          cwd=checkout, env=env, capture_output=True)
    return (hashlib.sha256(proc.stdout).hexdigest(),
            proc.stderr.decode(errors="replace"), proc.returncode)


def differences(parent: tuple, change: tuple) -> list:
    """Names of the parts of two run results that differ."""
    return [name for name, a, b in zip(("stdout", "stderr", "exit code"), parent, change)
            if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="baseline revision")
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="extra modinv command line, e.g. 'construct --p 5 --blocks 5'")
    args = parser.parse_args(argv)

    commands = workload_commands()
    commands += [workloads.Command(tuple(c.split())) for c in args.commands]
    tmp = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    try:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", "HEAD")):
            sides[side] = tmp / side
            export(rev, sides[side])
        differing = 0
        for command in commands:
            diff = differences(run(sides["parent"], command),
                               run(sides["change"], command))
            differing += bool(diff)
            print(f"{'DIFFERS (' + ', '.join(diff) + ')' if diff else 'identical'}: "
                  f"{command.text}", flush=True)
        print(f"{len(commands) - differing} of {len(commands)} commands identical")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
