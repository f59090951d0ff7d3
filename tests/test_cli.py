import functools
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modinv.action import RepresentationSpec
from modinv.builder import build_suite, suite_construction_steps
from modinv.cli import _json_chunks, main
from modinv.oracle import separation_report
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


@pytest.mark.parametrize("ring,blocks", [("q", "5"), ("z", "5"), ("fp", "5"),
                                         ("q", "5,3,1")])
def test_construct_json_is_the_suite_json_dict(capsys, ring, blocks):
    code, out, _ = run_cli(capsys, "construct", "--p", "7", "--blocks", blocks,
                           "--ring", ring, "--format", "json")
    assert code == 0
    spec = RepresentationSpec(7, tuple(int(s) for s in blocks.split(",")))
    assert json.loads(out) == build_suite(spec, ring).to_json_dict()


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


# -- streamed output -------------------------------------------------------------


def whole_document(command, fmt, p, blocks, ring):
    """The output as the commands built it before they streamed it: the
    joined text, or json.dumps of the whole data."""
    spec = RepresentationSpec(p, tuple(int(s) for s in blocks.split(",")))
    suite = build_suite(spec, ring)
    if command == "construct" and fmt == "text":
        return "\n".join(f"{e.name} = {e.polynomial.render_text()}"
                         for e in suite.entries) + "\n"
    data = suite.to_json_dict()
    if command == "export":
        data = {
            "config": {"p": p, "blocks": list(spec.blocks), "ring": ring},
            "suite": data,
            "construction": [{**item, "steps": [s._asdict() for s in item["steps"]]}
                             for item in suite_construction_steps(spec)],
        }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("blocks", ["5", "4,3,1", "1"])
@pytest.mark.parametrize("ring", ["q", "z", "fp"])
@pytest.mark.parametrize("command,fmt", [("construct", "text"), ("construct", "json"),
                                         ("export", None)])
def test_streamed_output_is_the_whole_document(capsys, tmp_path, command, fmt,
                                               ring, blocks):
    args = [command, "--p", "7", "--blocks", blocks, "--ring", ring]
    if fmt:
        args += ["--format", fmt]
    expected = whole_document(command, fmt, 7, blocks, ring)
    assert run_cli(capsys, *args) == (0, expected, "")
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *args, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode("utf-8")


def test_json_is_written_without_holding_the_document(tmp_path):
    args = ["construct", "--p", "29", "--blocks", "29", "--ring", "q", "--format",
            "json", "--out", str(tmp_path / "suite.json")]
    assert main(args) == 0          # builds the cached construction
    size = (tmp_path / "suite.json").stat().st_size
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "suite.json").stat().st_size == size > 10 ** 6
    assert peak < size / 2


def test_output_goes_to_the_current_sys_stdout(monkeypatch):
    stream = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["construct", "--p", "5", "--blocks", "3"]) == 0
    assert stream.getvalue().splitlines()[-1] == "f3 = x1*x3 + 2*x2^2 + 3*x1*x2"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reader_leaving_early_ends_output_quietly(fmt):
    # as `| head` does: the command stops writing and still exits 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "modinv", "construct", "--p", "41",
                             "--blocks", "41", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) in (b"x1 = x1\nN(", b'{\n  "entri')
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", [["construct", "--p", "7", "--blocks", "5"],
                                     ["export", "--p", "7", "--blocks", "5"],
                                     ["verify", "--p", "3", "--blocks", "2"]])
def test_full_standard_output_is_config_error(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "modinv", *command], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write standard output: No space left on device\n"


@pytest.mark.parametrize("command", [["construct", "--p", "7", "--blocks", "5"],
                                     ["export", "--p", "7", "--blocks", "5"],
                                     ["verify", "--p", "3", "--blocks", "2"]])
def test_closed_standard_output_is_config_error(command):
    # with fd 1 closed at start-up, Python sets sys.stdout to None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "modinv", *command],
                          preexec_fn=functools.partial(os.close, 1),
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        "error: cannot write standard output: it is closed"]


def test_out_file_is_opened_after_the_build(capsys, monkeypatch, tmp_path):
    target = tmp_path / "suite.json"
    existed = []

    def build(spec, ring):
        existed.append(target.exists())
        return build_suite(spec, ring)

    monkeypatch.setattr("modinv.cli.build_suite", build)
    assert run_cli(capsys, "construct", "--p", "5", "--blocks", "3",
                   "--out", str(target)) == (0, "", "")
    assert existed == [False] and target.exists()
    # the build runs, and only then does opening the file fail
    missing = tmp_path / "missing" / "x.json"
    for command in ("construct", "export"):
        assert run_cli(capsys, command, "--p", "5", "--blocks", "3", "--out",
                       str(missing)) == (
            1, "", f"error: cannot write {missing}: No such file or directory\n")
    assert len(existed) == 3


@pytest.mark.parametrize("command", [["construct", "--p", "3", "--blocks", "3"],
                                     ["export", "--p", "3", "--blocks", "3"],
                                     ["verify", "--p", "3", "--blocks", "2"]])
def test_empty_out_path_is_config_error(capsys, command):
    # only a missing --out means standard output; "" names no file
    assert run_cli(capsys, *command, "--out", "") == (
        1, "", "error: cannot write : No such file or directory\n")


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


def test_verify_budget_is_checked_before_the_suite_is_built(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("suite built although the budget is exceeded")

    monkeypatch.setattr("modinv.cli.build_suite", refuse)
    code, out, err = run_cli(capsys, "verify", "--p", "7", "--blocks", "7",
                             "--budget", "1000")
    assert code == 3 and out == ""
    assert err == "error: 7^7 points exceed budget 1000\n"


@pytest.mark.parametrize("argv,code,err", [
    ("verify --p 2 --blocks 1 --k 1000000000", 1,
     "error: modulus search over 2^1000000000 elements exceeds bound 1048576\n"),
    ("verify --p 2 --blocks 1 --k 100000000000000", 1,
     "error: modulus search over 2^100000000000000 elements exceeds bound 1048576\n"),
    ("verify --p 1000003 --blocks 1000003", 3,
     "error: 1000003^1000003 points exceed budget 10000000\n"),
    ("verify --p 3 --blocks 3,3,3 --budget 0", 3,
     "error: 3^9 points exceed budget 0\n"),
], ids=["k-1e9", "k-1e14", "n-1e6", "budget-0"])
def test_bound_checks_compare_exponents_first(argv, code, err):
    # a bound check that computes the power itself hangs on these
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "modinv", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=5)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def test_verify_strict_exit_two_on_failure(capsys, monkeypatch):
    # single blocks genuinely separate, so force a failing report through the
    # same code path to pin the strict exit code
    real = separation_report(build_suite(RepresentationSpec(5, (3,)), "fp"), GF(5))
    failing = real._replace(separated=False,
                                  witness_pairs=(((1, 0, 0), (1, 0, 1)),))
    monkeypatch.setattr("modinv.cli.separation_report",
                        lambda *args, **kwargs: failing, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "3",
                           "--strict")
    assert code == 2
    assert "separated      no" in out
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--blocks", "3")
    assert code == 0  # same failure without --strict only reports


# a witness over F_5 and one over F_25, whose values render with a comma
_WITNESSES = {
    1: ((1, 0, 2), (1, 4, 0), (1, 4, 3), "1,0,2", "1,4,0", "1,4,3"),
    2: (((1, 0), (0, 0), (2, 1)), ((1, 0), (4, 4), (0, 0)), ((1, 0), (4, 4), (3, 2)),
        "(1,0),(0,0),(2,1)", "(1,0),(4,4),(0,0)", "(1,0),(4,4),(3,2)"),
}


def _verify_with(capsys, monkeypatch, k, constancy, lifting, *extra):
    monkeypatch.setattr("modinv.cli.verify_orbit_constancy",
                        lambda *args, **kwargs: constancy, raising=False)
    monkeypatch.setattr("modinv.cli.verify_lifting",
                        lambda *args, **kwargs: lifting, raising=False)
    return run_cli(capsys, "verify", "--p", "5", "--blocks", "3", "--k", str(k),
                   *extra)


@pytest.mark.parametrize("k", [1, 2])
def test_verify_reports_a_constancy_failure(capsys, monkeypatch, k):
    point, _, _, text, _, _ = _WITNESSES[k]
    failure = ("f3", point)
    code, out, err = _verify_with(capsys, monkeypatch, k, failure, None)
    assert (code, err) == (0, "")
    assert f"constancy   FAILED: f3 at ({text})\n" in out
    assert "lifting     n=3 ok\n" in out
    code, out, _ = _verify_with(capsys, monkeypatch, k, failure, None,
                                "--format", "json")
    data = json.loads(out)
    assert data["constancy"] == {"ok": False, "witness": {
        "entry": "f3", "point": [GF(5, k).render(c) for c in point]}}
    assert data["lifting"] == [{"n": 3, "ok": True, "witness": None}]
    code, _, _ = _verify_with(capsys, monkeypatch, k, failure, None, "--strict")
    assert code == 2


@pytest.mark.parametrize("k", [1, 2])
def test_verify_reports_a_lifting_failure(capsys, monkeypatch, k):
    _, a, b, _, text_a, text_b = _WITNESSES[k]
    code, out, err = _verify_with(capsys, monkeypatch, k, None, (a, b))
    assert (code, err) == (0, "")
    assert "constancy   ok\n" in out
    assert f"lifting     n=3 FAILED: ({text_a}) ~ ({text_b})\n" in out
    code, out, _ = _verify_with(capsys, monkeypatch, k, None, (a, b),
                                "--format", "json")
    field = GF(5, k)
    data = json.loads(out)
    assert data["constancy"] == {"ok": True, "witness": None}
    assert data["lifting"] == [{"n": 3, "ok": False, "witness": [
        [field.render(c) for c in a], [field.render(c) for c in b]]}]
    code, _, _ = _verify_with(capsys, monkeypatch, k, None, (a, b), "--strict")
    assert code == 2


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


def test_out_of_memory_is_one_error_line():
    # 80 MiB of address space holds the interpreter and the imports, but not
    # the p = 149 construction (about 120 MiB resident without a limit)
    resource = pytest.importorskip("resource")
    limit = 80 << 20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "modinv", "construct", "--p", "149", "--blocks", "149"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_construction_fits_without_step_records():
    # construct --p 101 --blocks 101 needs about 52 MiB of address space
    # (48 MiB resident) when it makes no step record, and about 69 MiB
    # (65 MiB resident) when it renders every record and keeps dense rows
    resource = pytest.importorskip("resource")
    limit = 60 << 20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "modinv", "construct", "--p", "101", "--blocks", "101"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 101 and lines[-1].startswith("f101 = x1*x101 ")


def test_largest_field_verifies_in_bounded_memory():
    # GF(2^20)'s tables take 24 bytes per element, 24 MiB, built beside one
    # temporary of q logs: the command needs 48 MiB of address space, and
    # 55 MiB when the tables' second cycle and the Zech table were built
    # from slices (bisected in 1 MiB steps, text and JSON alike)
    resource = pytest.importorskip("resource")
    limit = 52 << 20
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "modinv", "verify", "--p", "2", "--blocks", "1", "--k", "20",
         "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    separation = report["separation"]
    assert separation["totalPoints"] == 2 ** 20
    assert separation["fiberCount"] == separation["orbitCountInB"]
    assert separation["separated"] and report["lifting"] == []


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
    assert "".join(_json_chunks(value)) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_text_refuses_what_json_cannot_write():
    with pytest.raises(TypeError):
        "".join(_json_chunks({"x": object()}))


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import modinv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_array_loads_only_with_field_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys; import modinv.cli; from modinv import GF; "
            "print('array' in sys.modules); GF(29).mul(1, 1); print('array' in sys.modules); "
            "field = GF(3, 2); field.mul(field.one(), field.one()); "
            "print('array' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_only_verify_imports_the_verifier(tmp_path):
    # construct and export never compile oracle.py; verify binds its checks.
    # Only verify --k 2 and up compiles the F_{p^k} code, extension.py.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = str(tmp_path / "out")
    commands = [f"construct --p 5 --blocks 5,2 --ring {ring} --format {fmt} --out {out}"
                for ring in ("q", "z", "fp") for fmt in ("text", "json")]
    commands += [f"export --p 5 --blocks 5,2 --ring {ring} --out {out}"
                 for ring in ("q", "z", "fp")]
    commands.append(f"verify --p 3 --blocks 3 --out {out}")
    commands.append(f"verify --p 3 --blocks 2,2 --k 2 --out {out}")
    # a wrapper bound before the first verify is the one verify calls, as
    # perfbench/tracer.py needs
    code = ("import sys; from modinv import cli\n"
            "calls = []\n"
            "def recording(*args):\n"
            "    from modinv.oracle import separation_report\n"
            "    calls.append(args)\n"
            "    return separation_report(*args)\n"
            "cli.separation_report = recording\n"
            "for argv in sys.argv[1:]:\n"
            "    print(cli.main(argv.split()), 'modinv.oracle' in sys.modules,\n"
            "          'modinv.extension' in sys.modules)\n"
            "print(len(calls), cli.separation_report is recording)")
    proc = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == (["0 False False"] * 9
                                        + ["0 True False", "0 True True", "2 True"])


# Peak traced memory while compiling each modinv module, in a child that
# compiles every module from source: CPython holds a module's tokens and
# syntax tree until its compile ends, on top of all that is already loaded.
COMPILE_PEAKS = """\
import sys, tracemalloc
from importlib.machinery import SourceFileLoader
tracemalloc.start()
peaks = [0]
source_to_code = SourceFileLoader.source_to_code
def measured(self, data, path, *args, **kwargs):
    tracemalloc.reset_peak()
    code = source_to_code(self, data, path, *args, **kwargs)
    if "modinv" in path:
        peaks.append(tracemalloc.get_traced_memory()[1])
    return code
SourceFileLoader.source_to_code = measured
from modinv.cli import main
code = main(sys.argv[1:])
print(code, max(peaks) // 1024)
"""


@pytest.mark.parametrize("argv,bound_kib", [
    ("verify --p 3 --blocks 2,2 --k 2", 2300),
    ("construct --p 29 --blocks 29 --ring q --format json", 1550),
], ids=["verify-k2", "construct-29"])
def test_no_module_compile_peaks_above_its_bound(tmp_path, argv, bound_kib):
    # Before oracle.py, builder.py and rings.py were split, the largest peaks
    # were about 2455 KiB (oracle.py) and 1660 KiB (builder.py); after it,
    # 2110 KiB (extension.py) and 1415 KiB (cli.py), on CPython 3.11.
    cache = tmp_path / "pycache"
    cache.mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [*argv.split(), "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", COMPILE_PEAKS, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0 and peak_kib < bound_kib
    assert list(cache.iterdir()) == []
