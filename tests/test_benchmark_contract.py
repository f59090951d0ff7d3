"""What the benchmark under perfbench/ needs from the package.

perfbench/tracer.py replaces module attributes of modinv (act_raw,
Polynomial.substitute, builder._delta_matrix, the oracle functions the CLI
calls, ...) with recording wrappers and then runs the CLI, so renaming or
deleting one of them breaks traced benchmark runs, and fusing or renaming
an oracle stage would silently empty its per-layer metric.  These tests run
the tracer on two small commands, check that each records its stages' spans,
and check that every exported name resolves.  They also run
perfbench/perop.py, whose failure fails a traced benchmark run, and check
that the set-up probe of perfbench/run.py (field.mul(one, one)) still builds
a field's tables, so that setup_s measures the build.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modinv
from modinv import GF, builder, oracle

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,expected", [
    (("verify", "--p", "3", "--blocks", "3"),
     {"oracle.constancy", "oracle.separation", "oracle.lifting", "builder.connecting"}),
    (("export", "--p", "5", "--blocks", "5"), {"builder.connecting", "builder.delta_matrix"}),
    (("construct", "--p", "7", "--blocks", "7", "--ring", "q", "--format", "json"),
     {"builder.build_suite", "builder.connecting", "builder.delta_matrix", "poly.render"}),
], ids=["verify", "export", "construct-json"])
def test_tracer_runs_cli(tmp_path, argv, expected):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert expected <= names


@pytest.mark.parametrize("module", [modinv, builder, oracle],
                         ids=["modinv", "builder", "oracle"])
def test_exported_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_setup_probe_builds_the_field_tables():
    field = GF(2, 4)
    assert field._log is None
    field.mul(field.one(), field.one())
    assert field._log is not None


def test_perop_prints_positive_figures():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "perop.py"),
         "--workload", "sweep-small", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    figures = json.loads(proc.stdout)
    assert figures
    assert {name: v for name, v in figures.items()
            if not (type(v) in (int, float) and math.isfinite(v) and v > 0)} == {}
