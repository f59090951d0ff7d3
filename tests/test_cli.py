import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modinv.action import RepresentationSpec
from modinv.builder import build_suite, suite_from_json
from modinv.cli import _json_text, main
from modinv.oracle import separation_report, verify_orbit_constancy
from modinv.rings import GF

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:       # argument-parser errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- construct -----------------------------------------------------------------


def test_construct_text_fp(capsys):
    code, out, err = run_cli(capsys, "construct", "--p", "5", "--blocks", "3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "x1 = x1"
    assert lines[-1] == "f3 = x1*x3 + 2*x2^2 + 3*x1*x2"
    assert out.endswith("\n")


def test_construct_text_q(capsys):
    code, out, _ = run_cli(capsys, "construct", "--p", "5", "--blocks", "3",
                           "--ring", "q")
    assert code == 0
    assert out.splitlines()[-1] == "f3 = x1*x3 - 1/2*x2^2 + 1/2*x1*x2"


def test_construct_text_z(capsys):
    code, out, _ = run_cli(capsys, "construct", "--p", "5", "--blocks", "3",
                           "--ring", "z")
    assert code == 0
    assert out.splitlines()[-1] == "f3 = 2*x1*x3 - x2^2 + x1*x2"


def test_construct_json_round_trips_into_oracle(capsys):
    code, out, _ = run_cli(capsys, "construct", "--p", "5", "--blocks", "2,2",
                           "--format", "json")
    assert code == 0
    suite = suite_from_json(json.loads(out))
    assert suite.names() == ("x1_1", "N(x1_2)", "x2_1", "N(x2_2)")
    assert verify_orbit_constancy(suite, GF(5)) is None
    assert separation_report(suite, GF(5)).separated is False


def test_construct_is_byte_deterministic(capsys):
    args = ("construct", "--p", "7", "--blocks", "5", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert json.loads(first)["spec"] == {"p": 7, "blocks": [5]}


def test_construct_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "suite.json"
    args = ("construct", "--p", "5", "--blocks", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    code2, out2, _ = run_cli(capsys, *args, "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text(encoding="utf-8") == out


# -- configuration errors --------------------------------------------------------


def test_block_exceeding_p_is_config_error(capsys):
    code, out, err = run_cli(capsys, "construct", "--p", "5", "--blocks", "7")
    assert code == 1 and out == ""
    assert err == "error: block size exceeds p\n"


def test_composite_p_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "6", "--blocks", "2")
    assert code == 1
    assert err == "error: p must be prime, got 6\n"


def test_malformed_blocks_is_config_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--p", "5", "--blocks", "2,x")
    assert code == 1
    assert "comma-separated integers" in err


def test_strict_needs_single_block(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "5", "--blocks", "2,2",
                           "--strict")
    assert code == 1
    assert err == "error: --strict requires a single block\n"


def test_bad_k_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "5", "--blocks", "2",
                           "--k", "0")
    assert code == 1
    assert err == "error: k must be at least 1\n"


@pytest.mark.parametrize("env,argv,code", [
    ({}, "construct --p 5 --blocks 7", 1),
    ({}, "construct --p 5 --blocks 2,x", 1),
    ({}, "verify --p 6 --blocks 2", 1),
    ({}, "construct --p 1000000000000000000000000000057 --blocks 2", 1),
    ({}, "verify --p 5 --blocks 2,2 --strict", 1),
    ({}, "verify --p 5 --blocks 2 --k 0", 1),
    ({}, "verify --p 2 --blocks 2 --k 21", 1),
    ({"MODINV_THREADS": "abc"}, "verify --p 3 --blocks 2", 1),
    ({}, "construct --p 5 --blocks 3 --out {missing}/x.json", 1),
    ({}, "export --p 5 --blocks 3 --out {missing}/x.json", 1),
    ({}, "verify --p 7 --blocks 7 --budget 1000", 3),
    ({}, "construct --p abc --blocks 2", 1),
    ({}, "verify --p 5 --blocks 2 --k x", 1),
    ({}, "construct --p 5 --blocks 2 --bogus", 1),
    ({}, "", 1),
])
def test_malformed_input_gives_one_error_line(capsys, monkeypatch, tmp_path,
                                              env, argv, code):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    args = argv.format(missing=tmp_path / "missing").split()
    got, out, err = run_cli(capsys, *args)
    assert got == code and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_construct_large_prime_is_fast(capsys):
    p = 1_000_000_000_000_000_003
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "construct", "--p", str(p), "--blocks", "2")
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert out.splitlines()[-1] == f"N(x2) = {p - 1}*x2^{p} + x1^{p - 1}*x2"


# -- verify ------------------------------------------------------------------------


def test_verify_single_block_strict_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "5", "--blocks", "3",
                             "--strict")
    assert code == 0 and err == ""
    assert "separation  20/20 orbits separated" in out
    assert "constancy   ok" in out
    assert "lifting     n=3 ok" in out
    assert "separated      yes" in out


def test_verify_decomposable_reports_witnesses(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "2,2")
    assert code == 0  # informational without --strict
    assert "separated      no" in out
    assert "separation  16/80 orbits separated" in out
    assert "(1,0,1,0) ~ (1,0,1,1)" in out


def test_verify_json_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "3",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["constancy"] == {"ok": True, "witness": None}
    assert data["separation"]["separated"] is True
    assert data["separation"]["orbitCountInB"] == 20
    assert data["lifting"] == [{"n": 3, "ok": True, "witness": None}]
    assert data["strict"] is False
    assert "elapsedSeconds" not in data["separation"]


def test_verify_json_is_byte_deterministic(capsys):
    args = ("verify", "--p", "5", "--blocks", "2,2", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    pairs = json.loads(first)["separation"]["witnessPairs"]
    assert pairs[0] == [["1", "0", "1", "0"], ["1", "0", "1", "1"]]
    assert len(pairs) == 10


def test_verify_extension_field(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "2",
                           "--k", "2")
    assert code == 0
    assert "field=F_5^2" in out
    assert "separation  120/120 orbits separated" in out


def test_verify_budget_exit(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "7", "--blocks", "7",
                             "--budget", "1000")
    assert code == 3 and out == ""
    assert err == "error: 7^7 points exceed budget 1000\n"


def test_verify_strict_exit_two_on_failure(capsys, monkeypatch):
    # single blocks genuinely separate, so force a failing report through the
    # same code path to pin the strict exit code
    real = separation_report(build_suite(RepresentationSpec(5, (3,)), "fp"), GF(5))
    failing = real._replace(separated=False,
                                  witness_pairs=(((1, 0, 0), (1, 0, 1)),))
    monkeypatch.setattr("modinv.cli.separation_report",
                        lambda *args, **kwargs: failing)
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "3",
                           "--strict")
    assert code == 2
    assert "separated      no" in out
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "3")
    assert code == 0  # same failure without --strict only reports


# -- export -------------------------------------------------------------------------


def test_export_bundle_block_3(capsys):
    code, out, _ = run_cli(capsys, "export", "--p", "5", "--blocks", "3")
    assert code == 0
    data = json.loads(out)
    assert data["config"] == {"p": 5, "blocks": [3], "ring": "fp"}
    assert data["suite"]["entries"][2]["name"] == "f3"
    steps = data["construction"][0]["steps"]
    assert [(s["family"], s["weight"], s["det"]) for s in steps] == [
        ("Wprime", 4, 2), ("W", 3, 1)]
    assert steps[0]["matrix"] == [[2]]
    assert steps[0]["source"] == ["x2^2"]
    assert steps[0]["target"] == ["x1*x2"]
    assert steps[0]["solution"] == ["1/2"]


def test_export_bundle_block_5(capsys):
    code, out, _ = run_cli(capsys, "export", "--p", "7", "--blocks", "5")
    assert code == 0
    data = json.loads(out)
    names = [item["name"] for item in data["construction"]]
    assert names == ["f3", "f4", "f5"]
    f4_steps = data["construction"][1]["steps"]
    assert f4_steps[0]["family"] == "Sprime" and f4_steps[0]["det"] == 3
    assert f4_steps[0]["matrix"] == [[1, 0], [1, 3]]


def test_export_trivial_block_has_no_construction(capsys):
    code, out, _ = run_cli(capsys, "export", "--p", "5", "--blocks", "1")
    assert code == 0
    data = json.loads(out)
    assert data["construction"] == []
    assert [e["name"] for e in data["suite"]["entries"]] == ["x1"]


def test_export_is_byte_deterministic(capsys):
    args = ("export", "--p", "5", "--blocks", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- process-level smoke --------------------------------------------------------------


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "modinv", "construct", "--p", "5", "--blocks", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "f3 = x1*x3 + 2*x2^2 + 3*x1*x2"


def test_module_invocation_verify_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "modinv", "verify", "--p", "5", "--blocks", "3",
         "--strict"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "20/20 orbits separated" in proc.stdout


@pytest.mark.parametrize("threads", [None, "2", " 3 ", "-2", "0"],
                         ids=["unset", "2", "padded-3", "-2", "0"])
def test_verify_never_imports_multiprocessing(threads):
    # any integer MODINV_THREADS is accepted, and the scan runs in-process
    env = {k: v for k, v in os.environ.items() if k != "MODINV_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if threads is not None:
        env["MODINV_THREADS"] = threads
    code = ("import sys; from modinv.cli import main; "
            "code = main(['verify', '--p', '3', '--blocks', '3,2', '--k', '2']); "
            "print(code, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    env["MODINV_THREADS"] = "abc"
    proc = subprocess.run([sys.executable, "-m", "modinv", "verify", "--p", "3",
                           "--blocks", "2"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: MODINV_THREADS must be an integer, got 'abc'\n"


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    assert "--blocks" in capsys.readouterr().out


# -- JSON writer and start-up ----------------------------------------------------

TRICKY_TEXT = st.text(st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f \u00e9\u20ac\U0001f600\ud800aZ'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 300, 2 ** 300)
    | st.text() | TRICKY_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text() | TRICKY_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"b": [], "a": {}, "": [[], {}, ()], "t": (True, False, None, -0, -10 ** 40)})
@example(["quote \" back \\ nl \n nul \x00 del \x7f \u00e9 \U0001f600", {"\u00e9": 1}])
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_text_refuses_what_json_cannot_write():
    with pytest.raises(TypeError):
        _json_text({"x": object()})


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import modinv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
