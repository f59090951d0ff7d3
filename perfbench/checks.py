"""Checks of modinv CLI output against facts computed apart from the program.

Nothing here compares against a saved copy of earlier output:

- point and orbit counts come from closed formulas in q, n and the number m
  of nontrivial blocks;
- invariance of every suite entry and every elimination determinant are
  recomputed with sympy;
- witness pairs are re-evaluated with finite-field arithmetic written here,
  over the modulus that the canonical rule documented in
  `modinv.rings.find_irreducible` selects (irreducibility decided by sympy),
  and told apart as orbits through the closed form of the action,
  sigma^t = sum_r C(t, r) N^r with N the shift inside each block.

A suite used to re-evaluate witness pairs is itself taken from `construct`
and passes the suite checks first.
"""

import hashlib
import json
import re
from fractions import Fraction
from math import comb

from sympy import Poly, Symbol
from sympy.polys.domains import GF as SympyGF
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring as poly_ring


class CheckFailed(Exception):
    """An output contradicts an independently computed fact."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Suites.


def variable_names(blocks) -> list:
    if len(blocks) == 1:
        return [f"x{j}" for j in range(1, blocks[0] + 1)]
    return [f"x{b}_{j}" for b, s in enumerate(blocks, 1) for j in range(1, s + 1)]


def expected_entries(p, blocks) -> list:
    """(name, block index, kind, degree, block offset, position) in suite order."""
    single = len(blocks) == 1
    out = []
    offset = 0
    for b, s in enumerate(blocks, 1):
        var = f"x{{}}" if single else f"x{b}_{{}}"
        out.append((var.format(1), b, "linear", 1, offset, 1))
        if s >= 2:
            out.append((f"N({var.format(2)})", b, "norm", p, offset, 2))
        for j in range(3, s + 1):
            name = f"f{j}" if single else f"f{b}_{j}"
            out.append((name, b, "connecting", 2 if j % 2 else 3, offset, j))
        offset += s
    return out


def parse_poly_text(text, blocks) -> dict:
    """Parse the CLI's text rendering into {exponents: Fraction}."""
    index = {name: i for i, name in enumerate(variable_names(blocks))}
    n = len(index)
    tokens = text.split(" ")
    pieces = [("-", tokens[0][1:]) if tokens[0].startswith("-") else ("+", tokens[0])]
    _require(len(tokens) % 2 == 1, f"cannot parse polynomial {text!r}")
    pieces += [(tokens[i], tokens[i + 1]) for i in range(1, len(tokens), 2)]
    terms = {}
    for sign, body in pieces:
        _require(sign in "+-" and body, f"cannot parse polynomial {text!r}")
        coeff = Fraction(1 if sign == "+" else -1)
        exps = [0] * n
        for factor in body.split("*"):
            if factor.startswith("x"):
                name, _, power = factor.partition("^")
                _require(name in index, f"unknown variable {name!r}")
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return {e: c for e, c in terms.items() if c}


def parse_poly_json(data, p, blocks, ring_code) -> dict:
    _require(data["ring"] == ring_code
             and data["p"] == (None if ring_code == "q" else p)
             and tuple(data["blocks"]) == tuple(blocks),
             f"polynomial header {data['ring']}/{data['p']}/{data['blocks']}")
    terms = {}
    for t in data["terms"]:
        exps = tuple(t["exps"])
        _require(len(exps) == sum(blocks) and exps not in terms,
                 f"bad exponent tuple {exps}")
        terms[exps] = Fraction(t["coeff"])
    return terms


def _mod_p(c: Fraction, p: int) -> int:
    _require(c.denominator % p, f"coefficient {c} has no image mod {p}")
    return c.numerator * pow(c.denominator, -1, p) % p


class SuiteChecker:
    """Checks suites and elimination records with sympy."""

    def __init__(self):
        self._rings = {}
        self._dets = {}

    def _ring(self, blocks, p):
        key = (tuple(blocks), p)
        if key not in self._rings:
            domain = QQ if p is None else SympyGF(p)
            ring, *gens = poly_ring(",".join(variable_names(blocks)), domain)
            pairs = []
            i = 0
            for s in blocks:
                for j in range(1, s):
                    pairs.append((gens[i + j], gens[i + j] + gens[i + j - 1]))
                i += s
            self._rings[key] = (ring, domain, pairs)
        return self._rings[key]

    def is_invariant(self, terms, blocks, p=None) -> bool:
        """f(sigma x) - f(x) == 0 over Q (p None) or over F_p."""
        ring, domain, pairs = self._ring(blocks, p)
        if p is None:
            coeffs = {e: QQ(c.numerator, c.denominator) for e, c in terms.items()}
        else:
            coeffs = {e: domain(_mod_p(c, p)) for e, c in terms.items()}
        f = ring.from_dict(coeffs)
        return f.compose(pairs) == f

    def check_entry(self, expected, terms, p, blocks, ring_code):
        name, b, kind, degree, offset, m = expected
        n = sum(blocks)

        def mono(*positions):
            exps = [0] * n
            for j in positions:
                exps[offset + j - 1] += 1
            return tuple(exps)

        if kind == "linear":
            _require(terms == {mono(1): 1}, f"{name} is not the first variable")
            return
        if kind == "norm":
            reduced = {e: _mod_p(c, p) for e, c in terms.items()}
            expected_norm = {mono(*[1] * (p - 1), 2): 1, mono(*[2] * p): p - 1}
            _require(reduced == expected_norm, f"{name} is not x1^(p-1)*x2 - x2^p")
            _require(self.is_invariant(terms, blocks, p), f"{name} not invariant mod {p}")
            return
        lead = mono(1, m) if m % 2 else mono(1, 1, m)
        _require(terms.get(lead) == 1, f"{name}: lead term coefficient is not 1")
        for e in terms:
            _require(sum(e) == degree, f"{name}: term of degree {sum(e)} != {degree}")
            outside = e[:offset] + e[offset + m:]
            _require(not any(outside), f"{name}: term outside x_1..x_{m} of its block")
            _require(e == lead or e[offset + m - 1] == 0, f"{name}: tail uses x_{m}")
        over = None if ring_code == "q" else p
        _require(self.is_invariant(terms, blocks, over),
                 f"{name}: f(sigma x) - f(x) != 0 over {'Q' if over is None else f'F_{p}'}")

    def check_suite_entries(self, p, blocks, ring_code, entries):
        """entries: (name, terms, json metadata or None) in output order."""
        _require(ring_code in ("q", "fp"), f"unchecked ring {ring_code!r}")
        expected = expected_entries(p, blocks)
        _require([e[0] for e in entries] == [e[0] for e in expected],
                 f"entry names {[e[0] for e in entries]}")
        for exp, (name, terms, meta) in zip(expected, entries):
            if meta is not None:
                _require(meta == (exp[1], exp[2], exp[3]),
                         f"{name}: blockIndex/kind/degree {meta}")
            self.check_entry(exp, terms, p, blocks, ring_code)

    def check_suite_json(self, data, p, blocks, ring_code):
        _require(data["spec"] == {"p": p, "blocks": list(blocks)}
                 and data["ring"] == ring_code, "suite header")
        entries = [(e["name"], parse_poly_json(e["polynomial"], p, blocks, ring_code),
                    (e["blockIndex"], e["kind"], e["degree"]))
                   for e in data["entries"]]
        self.check_suite_entries(p, blocks, ring_code, entries)

    def determinant(self, matrix) -> int:
        key = tuple(tuple(row) for row in matrix)
        if key not in self._dets:
            size = len(matrix)
            rows = [[ZZ(v) for v in row] for row in matrix]
            self._dets[key] = int(DomainMatrix(rows, (size, size), ZZ).det())
        return self._dets[key]

    def check_construction(self, items, p, blocks):
        expected = [(e[1], e[0], e[5], e[3]) for e in expected_entries(p, blocks)
                    if e[2] == "connecting"]
        got = [(i["blockIndex"], i["name"], i["n"], i["degree"]) for i in items]
        _require(got == expected, f"construction items {got}")
        for item in items:
            steps = item["steps"]
            _require(steps, f"{item['name']}: no elimination steps")
            weights = [s["weight"] for s in steps]
            _require(weights == sorted(set(weights), reverse=True),
                     f"{item['name']}: step weights {weights} not decreasing")
            for s in steps:
                matrix, d = s["matrix"], s["weight"]
                size = len(s["source"])
                _require(len(matrix) == len(s["target"]) == size == len(s["solution"])
                         and all(len(row) == size for row in matrix),
                         f"{item['name']} weight {d}: matrix is not square")
                det = self.determinant(matrix)
                _require(s["det"] == det, f"{item['name']} weight {d}: det "
                         f"{s['det']} but sympy gives {det}")
                _require(abs(det) in (1, 2, d - 3),
                         f"{item['name']} weight {d}: |det| {abs(det)} not in 1, 2, d-3")
                _require(det % p, f"{item['name']} weight {d}: det {det} not a unit mod {p}")


# ---------------------------------------------------------------------------
# Finite fields and the action, for witness pairs.


def canonical_modulus(p, k) -> tuple:
    """First monic irreducible of degree k counting upward in base p with the
    constant coefficient least significant; low degree first."""
    x = Symbol("x")
    for idx in range(p ** k):
        coeffs = [(idx // p ** i) % p for i in range(k)] + [1]
        if Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible:
            return tuple(coeffs)
    raise CheckFailed(f"no irreducible of degree {k} over F_{p}")


class Field:
    """F_{p^k} as residue tuples, low degree first (k = 1 gives 1-tuples)."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.modulus = canonical_modulus(p, k)
        self.zero = (0,) * k

    def scalar(self, c: int) -> tuple:
        return (c % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % p
            for j in range(k + 1):
                prod[top - k + j] -= c * self.modulus[j]
        return tuple(c % p for c in prod[:k])

    def power(self, a, e):
        out = self.scalar(1)
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def evaluate(self, terms, point):
        acc = self.zero
        for exps, c in terms.items():
            v = self.scalar(_mod_p(c, self.p))
            for x, e in zip(point, exps):
                if e:
                    v = self.mul(v, self.power(x, e))
            acc = self.add(acc, v)
        return acc

    def act(self, blocks, point, t):
        """sigma^t(point): coordinate j of a block becomes sum_r C(t, r) x_{j-r}."""
        out = []
        offset = 0
        for s in blocks:
            for j in range(s):
                acc = self.zero
                for r in range(j + 1):
                    acc = self.add(acc, self.mul(self.scalar(comb(t, r)),
                                                 point[offset + j - r]))
                out.append(acc)
            offset += s
        return tuple(out)


def in_b(blocks, point, zero) -> bool:
    offset = 0
    for s in blocks:
        if s >= 2 and point[offset] == zero:
            return False
        offset += s
    return True


# ---------------------------------------------------------------------------
# verify reports.

_HEADER = re.compile(r"p=(\d+) blocks=\[([\d, ]+)\] field=F_(\d+)(?:\^(\d+))?$")
_COUNT = re.compile(r"  (totalPoints|pointsInB|orbitCountInB|fiberCount)\s+(\d+)$")


def _coords(texts) -> tuple:
    return tuple(tuple(int(c) for c in t.split(",")) for t in texts)


def _parse_point(text) -> tuple:
    _require(text.startswith("(") and text.endswith(")"), f"bad point {text!r}")
    inner = text[1:-1]
    groups = re.findall(r"\(([^()]*)\)", inner)
    return _coords(groups if groups else inner.split(","))


def parse_verify_text(text) -> dict:
    lines = text.splitlines()
    m = _HEADER.match(lines[0])
    _require(m, f"bad report header {lines[0]!r}")
    report = {"p": int(m.group(1)),
              "blocks": tuple(int(s) for s in m.group(2).split(", ")),
              "field": (int(m.group(3)), int(m.group(4) or 1)),
              "pairs": [], "lifting": [], "constancy": None, "line": None}
    for line in lines[1:]:
        count = _COUNT.match(line)
        if count:
            report[count.group(1)] = int(count.group(2))
        elif line.startswith("  separated"):
            report["separated"] = {"yes": True, "no": False}[line.split()[-1]]
        elif line.startswith("    ") and " ~ " in line:
            a, b = line.strip().split(" ~ ")
            report["pairs"].append((_parse_point(a), _parse_point(b)))
        elif line.startswith("constancy"):
            report["constancy"] = line.split()[1] == "ok"
        elif line.startswith("separation"):
            fibers, orbits = line.split()[1].split("/")
            report["line"] = (int(fibers), int(orbits))
        elif line.startswith("lifting"):
            parts = line.split()
            report["lifting"].append((int(parts[1][2:]), parts[2] == "ok"))
        else:
            _require(line == "  witnessPairs", f"unexpected report line {line!r}")
    return report


def parse_verify_json(data) -> dict:
    sep = data["separation"]
    field = sep["field"]
    _require(field["order"] == field["p"] ** field["k"], "field order")
    report = {"p": sep["spec"]["p"], "blocks": tuple(sep["spec"]["blocks"]),
              "field": (field["p"], field["k"]),
              "separated": sep["separated"],
              "pairs": [(_coords(a), _coords(b)) for a, b in sep["witnessPairs"]],
              "lifting": [(item["n"], item["ok"]) for item in data["lifting"]],
              "constancy": data["constancy"]["ok"], "line": None,
              "strict": data["strict"]}
    for key in ("totalPoints", "pointsInB", "orbitCountInB", "fiberCount"):
        report[key] = sep[key]
    return report


# ---------------------------------------------------------------------------
# Outcomes.


def failure_text(outcome) -> str:
    """Name the fault behind a command that did not end as it should."""
    err = outcome.stderr
    if "Traceback" in err:
        exc = [line for line in err.splitlines() if line.strip()][-1]
        frames = re.findall(r'File "[^"]*", line \d+, in (\S+)', err)
        where = f" from {frames[-1]}" if frames else ""
        return f"exit {outcome.returncode}, traceback: {exc}{where}"
    errors = sum(1 for line in err.splitlines() if line.startswith("error:"))
    return f"exit {outcome.returncode} with {errors} error: lines"


class Checker:
    """Judges command outcomes; identical output is checked once per run."""

    def __init__(self, fetch_suite):
        # fetch_suite(p, blocks) -> stdout of `construct --format json` (fp)
        self._fetch_suite = fetch_suite
        self._suites = SuiteChecker()
        self._fields = {}
        self._verified_suites = {}
        self._verdicts = {}

    def judge(self, outcome):
        """(failed, problem): failed when the command did not complete as a
        command of its kind must; problem names what is wrong, else None."""
        c = outcome.command
        if c.malformed:
            errors = [l for l in outcome.stderr.splitlines() if l.startswith("error:")]
            ok = (outcome.returncode == 1 and len(errors) == 1
                  and "Traceback" not in outcome.stderr)
            return (False, None) if ok else (True, failure_text(outcome))
        if outcome.returncode != 0 or "Traceback" in outcome.stderr:
            return True, failure_text(outcome)
        key = (c.text, hashlib.sha256(outcome.stdout).digest())
        if key not in self._verdicts:
            try:
                self._check_output(c, outcome.stdout.decode("utf-8"))
                self._verdicts[key] = None
            except CheckFailed as exc:
                self._verdicts[key] = str(exc)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return False, self._verdicts[key]

    def _check_output(self, c, text):
        p, blocks = c.p, c.blocks
        fmt = c.option("--format", "text")
        ring_code = c.option("--ring", "fp")
        if c.subcommand == "construct" and fmt == "text":
            entries = []
            for line in text.splitlines():
                name, _, poly = line.partition(" = ")
                entries.append((name, parse_poly_text(poly, blocks), None))
            self._suites.check_suite_entries(p, blocks, ring_code, entries)
        elif c.subcommand == "construct":
            self._suites.check_suite_json(json.loads(text), p, blocks, ring_code)
        elif c.subcommand == "export":
            data = json.loads(text)
            _require(data["config"] == {"p": p, "blocks": list(blocks), "ring": ring_code},
                     "export config")
            self._suites.check_suite_json(data["suite"], p, blocks, ring_code)
            self._suites.check_construction(data["construction"], p, blocks)
        elif fmt == "json":
            report = parse_verify_json(json.loads(text))
            _require(report["strict"] == ("--strict" in c.args), "strict flag")
            self._check_verify(c, report)
        else:
            self._check_verify(c, parse_verify_text(text))

    def _check_verify(self, c, r):
        p, blocks, k = c.p, c.blocks, c.k
        _require((r["p"], r["blocks"], r["field"]) == (p, blocks, (p, k)),
                 f"report header {r['p']} {r['blocks']} {r['field']}")
        q, n = p ** k, sum(blocks)
        m = sum(1 for s in blocks if s >= 2)
        in_b_count = (q - 1) ** m * q ** (n - m)
        orbits = in_b_count // p if m else in_b_count
        got = (r["totalPoints"], r["pointsInB"], r["orbitCountInB"])
        _require(got == (q ** n, in_b_count, orbits),
                 f"counts {got}, expected {(q ** n, in_b_count, orbits)}")
        _require(r["constancy"] is True, "constancy not ok")
        lifts = sorted({s for s in blocks if s >= 3})
        _require(r["lifting"] == [(s, True) for s in lifts], f"lifting {r['lifting']}")
        if r["line"] is not None:
            _require(r["line"] == (r["fiberCount"], orbits), f"separation line {r['line']}")
        fibers, pairs = r["fiberCount"], r["pairs"]
        _require(r["separated"] == (fibers == orbits), "separated flag vs counts")
        if len(blocks) == 1:
            _require(r["separated"] and not pairs, "single block not separated")
        elif m >= 2:
            _require(not r["separated"] and fibers < orbits,
                     "direct sum with two nontrivial blocks reported separated")
            _require(1 <= len(pairs) <= 10, f"{len(pairs)} witness pairs")
            self._check_pairs(p, blocks, k, pairs)

    def _suite_terms(self, p, blocks):
        key = (p, blocks)
        if key not in self._verified_suites:
            data = json.loads(self._fetch_suite(p, blocks))
            self._suites.check_suite_json(data, p, blocks, "fp")
            self._verified_suites[key] = [
                parse_poly_json(e["polynomial"], p, blocks, "fp") for e in data["entries"]]
        return self._verified_suites[key]

    def _check_pairs(self, p, blocks, k, pairs):
        if (p, k) not in self._fields:
            self._fields[(p, k)] = Field(p, k)
        field = self._fields[(p, k)]
        suite = self._suite_terms(p, blocks)
        n = sum(blocks)
        for a, b in pairs:
            label = f"witness pair {a} ~ {b}"
            _require(len(a) == len(b) == n and all(len(x) == k for x in a + b),
                     f"{label}: malformed points")
            _require(in_b(blocks, a, field.zero) and in_b(blocks, b, field.zero),
                     f"{label}: point outside B")
            _require(all(field.act(blocks, a, t) != b for t in range(p)),
                     f"{label}: points lie in one orbit")
            _require([field.evaluate(f, a) for f in suite]
                     == [field.evaluate(f, b) for f in suite],
                     f"{label}: suite values differ")
