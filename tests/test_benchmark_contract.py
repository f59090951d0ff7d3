"""What the benchmark under perfbench/ needs from the package.

perfbench/tracer.py replaces module attributes of modinv (act_raw,
Polynomial.substitute, builder._delta_matrix, the oracle functions the CLI
calls, ...) with recording wrappers and then runs the CLI, so renaming or
deleting one of them breaks traced benchmark runs, and fusing or renaming
an oracle stage would silently empty its per-layer metric.  These tests run
the tracer on two small commands, check that each records its stages' spans,
and check that every exported name resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modinv
from modinv import builder, oracle

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,expected", [
    (("verify", "--p", "3", "--blocks", "3"),
     {"oracle.constancy", "oracle.separation", "oracle.lifting", "builder.connecting"}),
    (("export", "--p", "5", "--blocks", "5"), {"builder.connecting"}),
], ids=["verify", "export"])
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
