"""Every golden CLI output is the same bytes on every supported CPython.

The five `cli_digest` cases of golden_outputs.json are the `construct` and
`export` outputs whose coefficients and JSON text are rendered straight
from the builder's integers, which is where interpreters could differ: in
str() of a Fraction, repr() of an int or pow(x, -1, p).  The 46 `cli`
cases are the `verify` reports, with their lifting lines, and small
`construct` and `export` runs, each under its MODINV_THREADS.  Each other
CPython 3.10-3.13 that pyenv has installed (under $PYENV_ROOT, by default
~/.pyenv) runs all of them through cli.main in one child process, under
PYTHONHASHSEED 0 or 12345 in turn, and reports each output's sha256, byte
length and exit code.  An interpreter that is not installed is skipped;
test_golden.py checks the running one.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = json.loads((TESTS / "golden_outputs.json").read_text())
# (argv, MODINV_THREADS, [exit code, stdout sha256, stdout bytes])
CASES = [(c["argv"], "1", [c["exit"], c["sha256"], c["bytes"]])
         for c in GOLDEN["cli_digest"]]
CASES += [(c["argv"], str(c["threads"]),
           [c["exit"], hashlib.sha256(c["stdout"].encode()).hexdigest(),
            len(c["stdout"].encode())])
          for c in GOLDEN["cli"]]
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
OTHERS = [minor for minor in range(10, 14) if minor != sys.version_info.minor]

CHILD = """\
import hashlib, json, os, sys
from modinv import cli

class Digest:
    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0
    def write(self, text):
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
    def flush(self):
        pass

results, stdout = [], sys.stdout
for argv, threads in json.loads(sys.argv[1]):
    os.environ["MODINV_THREADS"] = threads
    sys.stdout = out = Digest()
    code = cli.main(argv)
    sys.stdout = stdout
    results.append([code, out.sha.hexdigest(), out.size])
print(json.dumps(results))
"""


def interpreter(minor: int):
    """The newest installed CPython 3.<minor>, or None."""
    found = sorted(VERSIONS.glob(f"3.{minor}.*/bin/python3"),
                   key=lambda p: [int(x) for x in p.parts[-3].split(".") if x.isdigit()])
    return found[-1] if found else None


@pytest.mark.parametrize("minor", OTHERS, ids=lambda m: f"3.{m}")
def test_golden_digests_on_other_interpreters(minor):
    python = interpreter(minor)
    if python is None:
        pytest.skip(f"CPython 3.{minor} is not installed")
    seed = ("0", "12345")[OTHERS.index(minor) % 2]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed,
               PYTHONDONTWRITEBYTECODE="1")
    argv = json.dumps([[argv, threads] for argv, threads, _ in CASES])
    proc = subprocess.run([str(python), "-c", CHILD, argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [expected for _, _, expected in CASES]
