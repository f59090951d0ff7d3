"""Command-line interface.

Three subcommands:

  construct   build the invariant suite for p and a block list
  verify      re-check a suite by exhaustive enumeration over F_{p^k}
  export      dump the suite plus the construction's linear algebra as JSON

Exit codes: 0 success, 1 configuration error (a failed write to --out or
to standard output among them, except a reader that leaves early) or out
of memory (after any output already written), 2 a failed check under
--strict, 3 enumeration budget exceeded (decided before the suite is
built).  All output is byte deterministic for a fixed command line.
verify checks that MODINV_THREADS, when set, is an integer (exit 1
otherwise); its value changes nothing, as the separation scan runs in this
process.

Output is written as it is rendered: construct and export write each suite
entry, and each construction record, as soon as it is made, so no command
holds its whole document.  JSON comes from _json_chunks, which gives the
text json.dumps(sort_keys=True, indent=2) would, in pieces.  Only verify
imports the verifier: its first run binds the three checks it calls into
this module's names, unless they are bound already, so construct and export
never compile it, and perfbench/tracer.py can still wrap the library calls
below through this module's names.
"""

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .action import BlockExceedsP, RepresentationSpec, join_point, point_texts
from .builder import SuiteEntry, build_suite, suite_construction_steps
from .rings import DEFAULT_BUDGET, GF, BoundExceeded, BudgetExceeded, check_budget


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


def _emit(chunks, out):
    """Write each chunk of text as it comes: to the file `out`, opened only
    now, or else to sys.stdout (looked up here, so a replaced stream gets
    the output).  A reader that leaves early, as `| head` does, ends the
    output quietly, and the exit code stays that of the command; any other
    failure to write, such as a full disk, is a configuration error."""
    if out is None:
        if sys.stdout is None:      # fd 1 was closed when Python started
            raise ConfigError("cannot write standard output: it is closed")
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except OSError as exc:
            # the flush at exit would fail again on what is still buffered
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise ConfigError(f"cannot write standard output: {exc.strerror}")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}")


def _json_chunks(data):
    """json.dumps(data, sort_keys=True, indent=2) plus a newline, byte for
    byte, in pieces.

    Dicts and maps are walked item by item, and a map is written as a list
    whose items are made only when they are reached.  A list of dicts, such
    as a polynomial's terms, is written one item at a time, each whole.
    json.dumps has a C encoder only for indent=None; this writer takes
    about half the pure-Python encoder's time.  It accepts exactly what the
    commands write: dicts with string keys, maps, lists, tuples, strings,
    ints, bools and None (exact types, not subclasses).
    """
    yield from _json_parts(data, "\n")
    yield "\n"


def _json_parts(v, newline: str):
    t = type(v)
    if t is dict and v:
        opening, closing, walk = "{", "}", True
        items = ((_json_str(k) + ": ", v[k]) for k in sorted(v))
    elif t is map or ((t is list or t is tuple) and v and type(v[0]) is dict):
        opening, closing, walk = "[", "]", t is map
        items = (("", x) for x in v)
    else:
        yield _json_value(v, newline)
        return
    inner = newline + "  "
    head = opening + inner
    for prefix, x in items:
        if walk:
            yield head + prefix
            yield from _json_parts(x, inner)
        else:
            yield head + prefix + _json_value(x, inner)
        head = "," + inner
    yield opening + closing if head[0] == opening else newline + closing


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


def _suite_json(suite) -> dict:
    """suite.to_json_dict(), with each entry's data made only when the
    writer reaches it."""
    return {**suite._replace(entries=()).to_json_dict(),
            "entries": map(SuiteEntry.to_json_dict, suite.entries)}


def _cmd_construct(ns) -> int:
    spec = _spec_for(ns)
    suite = build_suite(spec, ns.ring)
    if ns.fmt == "json":
        _emit(_json_chunks(_suite_json(suite)), ns.out)
    else:
        _emit((f"{e.name} = {e.polynomial.render_text()}\n" for e in suite.entries),
              ns.out)
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
    check_budget(field.order, spec.n, ns.budget)
    from . import oracle
    for name in ("verify_orbit_constancy", "separation_report", "verify_lifting"):
        globals().setdefault(name, getattr(oracle, name))
    suite = build_suite(spec, "fp")
    constancy = verify_orbit_constancy(suite, field, ns.budget)
    report = separation_report(suite, field, ns.budget)
    lifting = {n: verify_lifting(n, field, ns.budget)
               for n in sorted({s for s in spec.blocks if s >= 3})}
    data = {
        "constancy": {"ok": constancy is None, "witness": constancy and {
            "entry": constancy[0], "point": point_texts(field, constancy[1])}},
        "separation": report.to_json_dict(),
        "lifting": [{"n": n, "ok": w is None,
                     "witness": w and [point_texts(field, v) for v in w]}
                    for n, w in lifting.items()],
        "strict": ns.strict,
    }
    _emit(_json_chunks(data) if ns.fmt == "json" else (_verify_text(data),), ns.out)
    failed = not (data["constancy"]["ok"] and data["separation"]["separated"]
                  and all(item["ok"] for item in data["lifting"]))
    return 2 if ns.strict and failed else 0


def _verify_text(data: dict) -> str:
    """verify's text report, rendered from its JSON record."""
    from .oracle import render_separation
    separation, witness = data["separation"], data["constancy"]["witness"]
    lines = [
        render_separation(separation),
        "constancy   " + (f"FAILED: {witness['entry']} at ({join_point(witness['point'])})"
                          if witness else "ok"),
        f"separation  {separation['fiberCount']}/{separation['orbitCountInB']}"
        " orbits separated",
    ]
    for item in data["lifting"]:
        status = "ok" if item["ok"] else "FAILED: " + " ~ ".join(
            f"({join_point(texts)})" for texts in item["witness"])
        lines.append(f"lifting     n={item['n']} {status}")
    return "\n".join(lines) + "\n"


def _cmd_export(ns) -> int:
    spec = _spec_for(ns)
    suite = build_suite(spec, ns.ring)
    construction = map(lambda item: {**item, "steps": [s._asdict() for s in item["steps"]]},
                       suite_construction_steps(spec))
    bundle = {
        "config": {"p": spec.p, "blocks": list(spec.blocks), "ring": ns.ring},
        "suite": _suite_json(suite),
        "construction": construction,
    }
    _emit(_json_chunks(bundle), ns.out)
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
    except MemoryError:
        pass    # reported below, once the frames the exception holds are freed
    print("error: out of memory", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
