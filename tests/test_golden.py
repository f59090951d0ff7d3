"""Byte-for-byte regression against outputs captured before the separation
scan chose orbit representatives in closed form, and before the constancy
check walked each orbit once.

golden_outputs.json holds, for each case, the command line, the value of
MODINV_THREADS, the exit code and the exact stdout of `modinv`; and the
separation report's text and JSON, as `verify` prints them, for the [2,2]
spec over F_5 (twice) and F_25; a full `verify` over F_25^4 (390625
points) still takes about 8 s.  A separation case's `workers` field is the
pool size it was captured with; the scan no longer forks, so the field only
names the case.  The CLI cases include the benchmark's `verify` commands
over F_7 and F_9.  For the large builder runs (`construct` at p = 29 and
41, `export` at p = 19), captured before delta was computed in closed form,
it holds the sha256 and byte length of stdout instead of the 0.1-1.7 MB
text.
"""

import hashlib
import json
from pathlib import Path

import pytest

from modinv.action import RepresentationSpec
from modinv.builder import build_suite
from modinv.cli import main
from modinv.oracle import separation_report
from modinv.rings import GF

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cli"],
    ids=lambda c: f"{' '.join(c['argv'])} threads={c['threads']}")
def test_cli_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("MODINV_THREADS", str(case["threads"]))
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize(
    "case", GOLDEN["separation"],
    ids=lambda c: f"p={c['p']} blocks={c['blocks']} k={c['k']} workers={c['workers']}")
def test_separation_report_matches_golden(case):
    suite = build_suite(RepresentationSpec(case["p"], tuple(case["blocks"])), "fp")
    report = separation_report(suite, GF(case["p"], case["k"]))
    assert report.render() + "\n" == case["text"]
    assert (json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
            == case["json"])


@pytest.mark.parametrize("case", GOLDEN["cli_digest"], ids=lambda c: " ".join(c["argv"]))
def test_large_builder_output_matches_golden_digest(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out.encode("utf-8")
    assert code == case["exit"]
    assert len(out) == case["bytes"]
    assert hashlib.sha256(out).hexdigest() == case["sha256"]
