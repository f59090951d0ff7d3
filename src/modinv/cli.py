"""Command-line interface.

Three subcommands:

  construct   build the invariant suite for p and a block list
  verify      re-check a suite by exhaustive enumeration over F_{p^k}
  export      dump the suite plus the construction's linear algebra as JSON

Exit codes: 0 success, 1 configuration error, 2 separation witnesses found
under --strict, 3 enumeration budget exceeded.  All output is byte
deterministic for a fixed command line.  verify checks that MODINV_THREADS,
when set, is an integer (exit 1 otherwise); its value changes nothing, as
the separation scan runs in this process.

JSON is written by _json_text, as json.dumps(sort_keys=True, indent=2) would.
Every command imports the verifier too: perfbench/tracer.py wraps the library
calls below through this module's names.
"""

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .action import BlockExceedsP, RepresentationSpec, point_texts, render_point
from .builder import build_suite, suite_construction_steps
from .oracle import (DEFAULT_BUDGET, BudgetExceeded, separation_report,
                     verify_lifting, verify_orbit_constancy)
from .rings import GF, BoundExceeded


class ConfigError(Exception):
    pass


def _parse_blocks(text: str) -> tuple:
    try:
        blocks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"blocks must be comma-separated integers, got {text!r}")
    return blocks


def _spec_for(ns) -> RepresentationSpec:
    blocks = _parse_blocks(ns.blocks)
    try:
        return RepresentationSpec(ns.p, blocks)
    except (BlockExceedsP, ValueError) as exc:
        raise ConfigError(str(exc))


def _emit(text: str, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _json_text(data) -> str:
    """json.dumps(data, sort_keys=True, indent=2) plus a newline, byte for byte.

    json.dumps has a C encoder only for indent=None; this writer takes about
    half the pure-Python encoder's time.  It accepts exactly what the
    commands write: dicts with string keys, lists, tuples, strings, ints,
    bools and None (exact types, not subclasses).
    """
    return _json_value(data, "\n") + "\n"


def _json_value(v, newline: str) -> str:
    t = type(v)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _json_str(v)
    inner = newline + "  "
    sep = "," + inner
    if t is dict and v:
        return ("{" + inner + sep.join([_json_str(k) + ": " + _json_value(v[k], inner)
                                        for k in sorted(v)]) + newline + "}")
    if (t is list or t is tuple) and v:
        if all(type(x) is int for x in v):      # exponents and matrix rows
            items = map(int.__repr__, v)
        else:
            items = [_json_value(x, inner) for x in v]
        return "[" + inner + sep.join(items) + newline + "]"
    if t is dict or t is list or t is tuple:        # empty
        return "{}" if t is dict else "[]"
    if v is None or t is bool:
        return "null" if v is None else "true" if v else "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _cmd_construct(ns) -> int:
    spec = _spec_for(ns)
    suite = build_suite(spec, ns.ring)
    if ns.fmt == "json":
        _emit(_json_text(suite.to_json_dict()), ns.out)
    else:
        lines = [f"{e.name} = {e.polynomial.render_text()}" for e in suite.entries]
        _emit("\n".join(lines) + "\n", ns.out)
    return 0


def _cmd_verify(ns) -> int:
    spec = _spec_for(ns)
    if ns.strict and len(spec.blocks) != 1:
        raise ConfigError("--strict requires a single block")
    if ns.k < 1:
        raise ConfigError("k must be at least 1")
    threads = os.environ.get("MODINV_THREADS", "1")
    try:
        int(threads)
    except ValueError:
        raise ConfigError(f"MODINV_THREADS must be an integer, got {threads!r}")
    try:
        field = GF(spec.p, ns.k)
    except (ValueError, BoundExceeded) as exc:
        raise ConfigError(str(exc))
    suite = build_suite(spec, "fp")
    constancy = verify_orbit_constancy(suite, field, ns.budget)
    report = separation_report(suite, field, ns.budget)
    lift_sizes = sorted({s for s in spec.blocks if s >= 3})
    lifting = [(n, verify_lifting(n, field, ns.budget)) for n in lift_sizes]
    failed = (constancy is not None or not report.separated
              or any(w is not None for _, w in lifting))
    if ns.fmt == "json":
        data = {
            "constancy": {
                "ok": constancy is None,
                "witness": None if constancy is None else {
                    "entry": constancy[0],
                    "point": point_texts(field, constancy[1]),
                },
            },
            "separation": report.to_json_dict(),
            "lifting": [
                {
                    "n": n,
                    "ok": w is None,
                    "witness": None if w is None else [
                        point_texts(field, w[0]), point_texts(field, w[1])],
                }
                for n, w in lifting
            ],
            "strict": ns.strict,
        }
        _emit(_json_text(data), ns.out)
    else:
        lines = [report.render()]
        if constancy is None:
            lines.append("constancy   ok")
        else:
            lines.append(f"constancy   FAILED: {constancy[0]} at "
                         f"({render_point(field, constancy[1])})")
        lines.append(f"separation  {report.fiber_count}/{report.orbit_count_in_b}"
                     " orbits separated")
        for n, w in lifting:
            if w is None:
                lines.append(f"lifting     n={n} ok")
            else:
                lines.append(f"lifting     n={n} FAILED: "
                             f"({render_point(field, w[0])}) ~ "
                             f"({render_point(field, w[1])})")
        _emit("\n".join(lines) + "\n", ns.out)
    if ns.strict and failed:
        return 2
    return 0


def _cmd_export(ns) -> int:
    spec = _spec_for(ns)
    suite = build_suite(spec, ns.ring)
    construction = [{**item, "steps": [s._asdict() for s in item["steps"]]}
                    for item in suite_construction_steps(spec)]
    bundle = {
        "config": {"p": spec.p, "blocks": list(spec.blocks), "ring": ns.ring},
        "suite": suite.to_json_dict(),
        "construction": construction,
    }
    _emit(_json_text(bundle), ns.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors follow the exit-code contract: one
    `error:` line on stderr and exit 1 (argparse's own default is 2, the
    code reserved for separation witnesses under --strict)."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modinv",
        description="Construct and verify separating invariant suites for "
                    "unipotent Jordan-block actions in prime characteristic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, required=True, help="prime characteristic")
        p.add_argument("--blocks", type=str, required=True,
                       help="comma-separated Jordan block sizes, e.g. 3 or 2,2")
        p.add_argument("--out", type=str, default=None,
                       help="write output to this file instead of stdout")

    c = sub.add_parser("construct", help="build the invariant suite")
    c.set_defaults(handler=_cmd_construct)
    common(c)
    c.add_argument("--ring", choices=("q", "z", "fp"), default="fp",
                   help="coefficient ring of the output")
    c.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    v = sub.add_parser("verify", help="brute-force check over F_{p^k}")
    v.set_defaults(handler=_cmd_verify)
    common(v)
    v.add_argument("--k", type=int, default=1, help="field extension degree")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="maximum number of field points to enumerate")
    v.add_argument("--strict", action="store_true",
                   help="exit 2 when the suite fails to separate (single block only)")
    v.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    e = sub.add_parser("export", help="dump suite and construction data as JSON")
    e.set_defaults(handler=_cmd_export)
    common(e)
    e.add_argument("--ring", choices=("q", "z", "fp"), default="fp",
                   help="coefficient ring of the exported suite")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.handler(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
