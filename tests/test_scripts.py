"""The scripts under scripts/ run against the library as it stands."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from modinv.builder import build_suite
from modinv.poly import Polynomial

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_decomposable_witnesses_script():
    blockwise, augmented = run_script("decomposable_witnesses.py").split(
        "augmented with D")
    assert "  fiberCount     16\n" in blockwise
    assert "  separated      no\n" in blockwise
    assert "  separated      yes" in augmented


def test_separation_survey_script():
    out = run_script("separation_survey.py", "--primes", "5", "--max-n", "3")
    assert out.splitlines()[-1] == "separated 2, with witnesses 2, skipped 0"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separation_survey_reports_a_varying_entry(monkeypatch, capsys):
    # f3 + x2 varies along orbits; the survey prints the witness as verify does
    survey = load_script("separation_survey")

    def doctored(spec, ring):
        suite = build_suite(spec, ring)
        entries = list(suite.entries)
        f = entries[-1].polynomial
        entries[-1] = entries[-1]._replace(
            polynomial=f + Polynomial.variable(f.ring, f.table, 1))
        return suite._replace(entries=tuple(entries))

    monkeypatch.setattr(survey, "build_suite", doctored)
    monkeypatch.setattr(sys, "argv", ["separation_survey.py", "--primes", "5",
                                      "--max-n", "3", "--skip-decomposable"])
    assert survey.main() == 1
    out = capsys.readouterr().out
    assert "constancy   FAILED: f3 at (1,0,0)\n" in out
    assert out.splitlines()[-1] == "separated 2, with witnesses 0, skipped 0"


def test_bench_pairs_summary_records_quartile_distances():
    bench_pairs = load_script("bench_pairs")

    def run(wall, rss):
        return {"metrics": {"wall_s": {"value": wall}, "peak_rss_mib": {"value": rss}}}

    parent_wall = [1.0, 1.2, 1.1, 1.4, 1.3, 1.0, 1.5, 1.2, 1.1, 1.3]
    change_wall = [0.9, 1.2, 1.0, 1.5, 1.1, 1.0, 1.4, 1.0, 1.0, 1.2]
    runs = [{"parent": run(p, 100.0), "change": run(c, 100.0 + i)}
            for i, (p, c) in enumerate(zip(parent_wall, change_wall))]
    summary = bench_pairs.summarize(runs, {"wall_s": "lower", "peak_rss_mib": "lower"})
    wall = summary["wall_s"]
    assert wall["parent_median"] == 1.2 and wall["change_median"] == 1.05
    # exclusive quartiles of ten values sit at positions 2.75 and 8.25
    assert abs(wall["parent_iqr"] - (1.325 - 1.075)) < 1e-12
    assert abs(wall["change_iqr"] - (1.25 - 1.0)) < 1e-12
    assert wall["pairs_won"] == 7       # two ties count for neither side
    rss = summary["peak_rss_mib"]
    assert (rss["parent_iqr"], rss["change_iqr"], rss["pairs_won"]) == (0.0, 5.5, 0)


def test_compare_outputs_runs_two_commands(monkeypatch, capsys):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("needs a git checkout with a HEAD commit")
    compare = load_script("compare_outputs")
    monkeypatch.setattr(compare, "workload_commands", lambda: [])
    assert compare.main(["--parent", "HEAD", "construct --p 3 --blocks 3",
                         "verify --p 2 --blocks 1 --k 2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cost = r"\d+\.\d\d s \d+\.\d MiB"
    for line, command in zip(lines, ["construct --p 3 --blocks 3",
                                     "verify --p 2 --blocks 1 --k 2"]):
        assert re.fullmatch(rf"identical: {command} \(parent {cost}, change {cost}\)", line)
    peak = r"\d+\.\d\d\d MiB"
    assert re.fullmatch(rf"largest peak RSS, command line: parent {peak}, change {peak}",
                        lines[2])
    assert lines[3:] == ["2 of 2 commands identical"]


def test_compare_outputs_hashes_stdout_in_pieces(tmp_path):
    # an output of many 64 KiB reads, an exit code and stderr come back as a
    # whole run gives them, with the command's own time and peak
    compare = load_script("compare_outputs")
    command = compare.workloads.Command(tuple("export --p 17 --blocks 17".split()))
    whole = subprocess.run([sys.executable, "-m", "modinv", *command.args], cwd=ROOT,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                           capture_output=True)
    assert len(whole.stdout) > 4 << 16
    runner = compare.Runner(tmp_path)
    try:
        result = runner.run(ROOT, command)
        failed = runner.run(ROOT, compare.workloads.Command(("verify", "--p", "6",
                                                             "--blocks", "2")))
    finally:
        runner.close()
    assert result[:3] == (hashlib.sha256(whole.stdout).hexdigest(), "", 0)
    assert result.wall_s > 0 and result.rss_mib > 1
    assert failed[1:3] == ("error: p must be prime, got 6\n", 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stderr"]


def test_compare_outputs_names_what_differs():
    compare = load_script("compare_outputs")
    same = ("ab", "", 0)
    assert compare.differences(same, same) == []
    assert compare.differences(same, ("cd", "", 1)) == ["stdout", "exit code"]
    assert compare.differences(same, ("ab", "error: x\n", 0)) == ["stderr"]
    commands = compare.workload_commands()
    assert len(commands) == len(set(commands))
    assert compare.workloads.Command(("construct", "--p", "29", "--blocks", "29",
                                      "--ring", "q", "--format", "json")) in commands
    assert not any("{missing}" in a for c in commands for a in c.args)
