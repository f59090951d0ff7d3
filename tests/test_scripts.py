"""The scripts under scripts/ run against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

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
