"""Construction of the low-degree invariant suites.

For a single unipotent block of size n the suite is: the fixed coordinate
x1, the orbit-product norm of x2, and one "connecting" invariant f_m for
each 3 <= m <= n, of degree 2 for odd m and degree 3 for even m, with
leading term x1*x_m (resp. x1^2*x_m).  Connecting invariants are found by a
deterministic elimination loop that repeatedly cancels the top weight
component of delta(t) against a designated space of lower monomials; each
step solves an integer linear system that is provably invertible, so the
result is exact over the rationals and reduces to any F_p with p >= n.

The loop runs in integers over one common denominator and solves each
system with its integer adjugate (linalg.IntegerSystem), which one
fraction-free pass gives together with the determinant.  A system depends
on its weight and family, not on n, so it is solved once and shared by
every f_m.  Direct sums are handled blockwise.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import linalg
from .action import BlockExceedsP, RepresentationSpec, _sigma_monomial
from .poly import (Polynomial, Record, VariableTable, embed, monomial_text,
                   ring_code)
from .rings import GF, QQ, ZZ, RationalRing, Ring


class ParityViolation(Exception):
    """Weight parity does not match the requested basis family."""


class RangeViolation(Exception):
    """Weight outside the range where the basis family is defined."""


class IncompatibleBases(Exception):
    """Source/target bases do not describe one difference-operator step."""


class NoSolution(Exception):
    """No invariant of the requested shape exists (the linear system fails)."""


FAMILIES = ("W", "Wprime", "S", "Sprime", "Shat")

_W_FAMILIES = {"W", "Wprime"}
_S_FAMILIES = {"S", "Sprime", "Shat"}


class WeightSpaceBasis(Record, namedtuple("WeightSpaceBasis", "family d n monomials")):
    """Ordered monomial basis of one weight space (exponent tuples over n vars)."""

    def __len__(self):
        return len(self.monomials)

    def names(self) -> tuple:
        table = VariableTable((self.n,))
        return tuple(monomial_text(table, e) for e in self.monomials)


def _exps(n, *indices):
    """Exponent tuple for a product of 1-based variable indices."""
    out = [0] * n
    for i in indices:
        out[i - 1] += 1
    return tuple(out)


def _w_monomials(d, n):
    """x_i * x_{d-i} for i = 1..floor(d/2), smallest i first."""
    return [_exps(n, i, d - i) for i in range(1, d // 2 + 1)]


def _s_monomials(d, n):
    """Degree-3 weight-d monomials divisible by x1 or x2, as (B1, B2):
    B1 = x1*x_i*x_j with i+j = d-1, B2 = x2*x_i*x_j with 2 <= i, i+j = d-2,
    each ordered by increasing i."""
    b1 = [_exps(n, 1, i, d - 1 - i) for i in range(1, (d - 1) // 2 + 1)]
    b2 = [_exps(n, 2, i, d - 2 - i) for i in range(2, (d - 2) // 2 + 1)]
    return b1, b2


def weight_basis(family: str, d: int, n: int) -> WeightSpaceBasis:
    """Ordered basis of one of the five weight-space families.

    W: all degree-2 monomials of weight d.
    Wprime (even d): W minus x1*x_{d-1}.
    S: degree-3 monomials of weight d divisible by x1 or x2.
    Sprime (even d >= 6): S minus x1^2*x_{d-2}.
    Shat (odd d >= 5): S minus x1*(x_{(d-1)/2})^2.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 0:
        raise RangeViolation("negative weight")
    if family in _W_FAMILIES:
        if d > n + 1:
            raise RangeViolation(f"W-family needs d <= n+1, got d={d}, n={n}")
        monomials = _w_monomials(d, n)
        if family == "Wprime":
            if d % 2:
                raise ParityViolation("Wprime needs even d")
            monomials = monomials[1:]
    else:
        if d > n + 2:
            raise RangeViolation(f"S-family needs d <= n+2, got d={d}, n={n}")
        b1, b2 = _s_monomials(d, n)
        if family == "Sprime":
            if d % 2:
                raise ParityViolation("Sprime needs even d")
            if d < 6:
                raise RangeViolation("Sprime needs d >= 6")
            b1 = b1[1:]
        elif family == "Shat":
            if d % 2 == 0:
                raise ParityViolation("Shat needs odd d")
            if d < 5:
                raise RangeViolation("Shat needs d >= 5")
            b1 = b1[:-1]
        monomials = b1 + b2
    return WeightSpaceBasis(family, d, n, tuple(monomials))


def _delta_matrix(source_monomials, target_monomials, n):
    """Integer matrix of the weight-(d-1) part of delta on given monomials.

    Rows follow the target order, columns the source order.
    """
    table = VariableTable((n,))
    index = {e: i for i, e in enumerate(target_monomials)}
    rows = [[0] * len(source_monomials) for _ in target_monomials]
    for col, exps in enumerate(source_monomials):
        d = table.weight_of(exps)
        for e, c in _sigma_monomial(table, exps).items():
            if table.weight_of(e) != d - 1:
                continue
            if e not in index:
                raise IncompatibleBases(
                    f"target basis misses {monomial_text(table, e)}")
            rows[index[e]][col] = c
    return rows


def restricted_delta_matrix(source: WeightSpaceBasis, target: WeightSpaceBasis):
    """Matrix of delta restricted to span(source), expressed in target.

    The target must be the full W or S space one weight below the source.
    Entries are integers; rows follow the target order, columns the source.
    """
    if source.n != target.n:
        raise IncompatibleBases("bases over different variable counts")
    if target.d != source.d - 1:
        raise IncompatibleBases(f"target weight {target.d} is not {source.d} - 1")
    if source.family in _W_FAMILIES and target.family != "W":
        raise IncompatibleBases("degree-2 sources map into a W target")
    if source.family in _S_FAMILIES and target.family != "S":
        raise IncompatibleBases("degree-3 sources map into an S target")
    return _delta_matrix(source.monomials, target.monomials, source.n)


# ---------------------------------------------------------------------------
# Connecting invariants.


class EliminationStep(Record, namedtuple(
        "EliminationStep", "weight family source target matrix det solution")):
    """Record of one cancellation step (kept for export and audits): the
    weight of the monomials solved for, the family, the source and target
    monomial names (matrix columns and rows), the integer rows, det (int for
    square systems, else None) and the rendered coefficients of the
    correction term."""


class ConnectingInvariant(Record, namedtuple(
        "ConnectingInvariant", "n degree polynomial steps")):
    """Invariant x1*x_n + h (degree 2) or x1^2*x_n + h (degree 3), with h
    free of x_n, together with the elimination-step records."""


def _designated_family(degree: int, d: int) -> str:
    if degree == 2:
        return "W" if d % 2 else "Wprime"
    if d <= 4:
        return "S"
    return "Shat" if d % 2 else "Sprime"


# Systems met by the elimination loop, keyed by (source names, target names):
# f_{n+2} meets every system f_n meets, so f_3..f_29 solve only 54 systems.
_SYSTEMS = {}


def _system(source, target_monomials, n, key) -> linalg.IntegerSystem:
    system = _SYSTEMS.get(key)
    if system is None:
        matrix = _delta_matrix(source, target_monomials, n)
        system = _SYSTEMS[key] = linalg.IntegerSystem(matrix, len(source))
    return system


@lru_cache(maxsize=None)
def _basis_names(family: str, d: int) -> tuple:
    """Monomial names of weight_basis(family, d, n), the same for every valid n."""
    return weight_basis(family, d, d).names()


def _ring_value(ring: Ring, num: int, den: int):
    """num/den as a raw value of ring: a Fraction, or reduced mod p."""
    p = ring.characteristic
    if p:
        return ring.from_int(num * pow(den, -1, p))
    return Fraction(num, den)


def construct_connecting(n: int, degree: int, ring: Ring = QQ) -> ConnectingInvariant:
    """Run the elimination loop for a single block of size n.

    Starting from the leading monomial, each pass cancels the top weight
    component of delta(t) by subtracting a combination g of designated
    monomials one weight up; g is restricted to monomials free of x_n so the
    tail stays in the first n-1 variables.  The designated spaces make every
    system uniquely solvable in the cases where the invariant exists
    (degree 2 with odd n, degree 3 with even n); otherwise the first
    unsolvable system raises NoSolution.

    The loop keeps residual = delta(t) = R/D, with an integer map R and an
    integer D.  A pass takes y = adj * rhs, so M*y = scale*rhs, subtracts
    g = sum y_i m_i / (scale*D) from t, and moves to
    R <- scale*R - delta(sum y_i m_i) and D <- scale*D; only delta of the
    few-term correction is computed.  Each pass's monomials lie one weight
    above its residual, below every earlier pass's, so t's coefficients are
    just the negated solutions.  Over F_p every integer is reduced mod p,
    and a scale divisible by p has no unique solution.  The Polynomial is
    built once, at the end.
    """
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not ring.is_field:
        raise ValueError("construction needs a field (use integral_form for Z output)")
    p = ring.characteristic
    table = VariableTable((n,))
    weights = range(1, n + 1)
    lead = _exps(n, 1, n) if degree == 2 else _exps(n, 1, 1, n)
    target_family = "W" if degree == 2 else "S"

    def subtract_delta(monomial, c, below):
        """R -= c * delta(monomial), on weights below `below` only."""
        for e, k in _sigma_monomial(table, monomial).items():
            w = sum(map(mul, e, weights))
            if w < below:
                part = residual.setdefault(w, {})
                v = part.get(e, 0) - c * k
                if p:
                    v %= p
                if v:
                    part[e] = v
                else:
                    part.pop(e, None)
                    if not part:
                        del residual[w]

    terms = {lead: ring.one()}
    denominator = 1
    residual = {}                       # weight -> {exponent tuple: int}
    subtract_delta(lead, -1, n + degree - 1)
    steps = []
    prev_top = None
    while residual:
        top = max(residual)
        if prev_top is not None and top >= prev_top:
            raise AssertionError("elimination failed to lower the top weight")
        prev_top = top
        d = top + 1
        family = _designated_family(degree, d)
        basis = weight_basis(family, d, n)
        # keep the tail inside the first n-1 variables
        kept = [(e, name) for e, name in zip(basis.monomials, _basis_names(family, d))
                if e[n - 1] == 0]
        source = tuple(e for e, _ in kept)
        source_names = tuple(name for _, name in kept)
        target = weight_basis(target_family, top, n)
        target_names = _basis_names(target_family, top)
        comp = residual.pop(top)
        rhs = [comp.get(e, 0) for e in target.monomials]
        if len(comp) != sum(1 for v in rhs if v):
            raise AssertionError("residual outside the target span")
        try:
            system = _system(source, target.monomials, n, (source_names, target_names))
            y = system.solve(rhs, p)
        except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem) as exc:
            lead_text = monomial_text(table, lead)
            raise NoSolution(
                f"no invariant {lead_text} + h with h free of x{n}: "
                f"weight-{top} residual has no unique preimage in {family}_{d}") from exc
        scale = system.scale % p if p else system.scale
        if scale != 1:
            for part in residual.values():
                for e, v in part.items():
                    part[e] = v * scale % p if p else v * scale
        denominator = denominator * scale % p if p else denominator * scale
        solution = [_ring_value(ring, v, denominator) for v in y]
        for e, v, c in zip(source, y, solution):
            if v:
                terms[e] = ring.neg(c)
                subtract_delta(e, v, top)
        steps.append(EliminationStep(
            weight=d,
            family=family,
            source=source_names,
            target=target_names,
            matrix=system.rows,
            det=system.det,
            solution=tuple(ring.render(c) for c in solution),
        ))
    return ConnectingInvariant(n, degree, Polynomial(ring, table, terms), tuple(steps))


@lru_cache(maxsize=None)
def _connecting_rational(n: int) -> ConnectingInvariant:
    """Cached rational construction; the degree is forced by the parity of n."""
    return construct_connecting(n, 2 if n % 2 else 3, QQ)


def connecting_degree(n: int) -> int:
    return 2 if n % 2 else 3


# ---------------------------------------------------------------------------
# Norms and integral forms.


def norm_invariant(p: int, ring: Ring, table: VariableTable = None, offset: int = 0) -> Polynomial:
    """Orbit product of the block's second variable: x1^(p-1)*x2 - x2^p,
    placed at `offset` within `table` (default: a fresh two-variable table).

    Its reduction mod p is invariant; over Q or Z it is the canonical
    integer-coefficient lift of that invariant.
    """
    if table is None:
        table = VariableTable((2,))
    lead = [0] * table.n
    lead[offset], lead[offset + 1] = p - 1, 1
    pure = [0] * table.n
    pure[offset + 1] = p
    terms = {tuple(lead): ring.one(), tuple(pure): ring.neg(ring.one())}
    return Polynomial(ring, table, terms)


def integral_form(f) -> Polynomial:
    """Clear denominators of a rational polynomial by the lcm of its
    coefficient denominators."""
    if isinstance(f, ConnectingInvariant):
        f = f.polynomial
    if not isinstance(f.ring, RationalRing):
        raise ValueError("integral_form expects a rational polynomial")
    scaled = f.scale(Fraction(f.denominator_lcm()))
    return Polynomial(ZZ, f.table,
                      {e: c.numerator for e, c in scaled._terms.items()})


# ---------------------------------------------------------------------------
# Suites.


class SuiteEntry(Record, namedtuple(
        "SuiteEntry", "name block_index degree kind polynomial")):
    """One suite entry; block_index is 1-based and kind is "linear", "norm"
    or "connecting"."""


class InvariantSuite(Record, namedtuple("InvariantSuite", "spec ring entries")):
    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "spec": {"p": self.spec.p, "blocks": list(self.spec.blocks)},
            "ring": ring_code(self.ring),
            "entries": [
                {
                    "name": e.name,
                    "blockIndex": e.block_index,
                    "degree": e.degree,
                    "kind": e.kind,
                    "polynomial": e.polynomial.to_json_dict(),
                }
                for e in self.entries
            ],
        }


def _entry_name(spec: RepresentationSpec, block: int, kind: str, j: int = 0) -> str:
    if len(spec.blocks) == 1:
        if kind == "linear":
            return "x1"
        if kind == "norm":
            return "N(x2)"
        return f"f{j}"
    if kind == "linear":
        return f"x{block}_1"
    if kind == "norm":
        return f"N(x{block}_2)"
    return f"f{block}_{j}"


def build_suite(spec: RepresentationSpec, ring: str = "fp") -> InvariantSuite:
    """Blockwise invariant suite for a representation.

    Per block of size s: the fixed leading variable; for s >= 2 the norm of
    the second variable; for each 3 <= j <= s the connecting invariant f_j.
    ring selects the coefficient domain: "q" (rationals, as constructed),
    "z" (denominators cleared), or "fp" (reduced mod p).
    """
    if ring not in ("q", "z", "fp"):
        raise ValueError(f"ring must be q, z, or fp, got {ring!r}")
    target = {"q": QQ, "z": ZZ, "fp": GF(spec.p)}[ring]
    table = spec.table
    entries = []
    for b, size in enumerate(spec.blocks, start=1):
        offset = table.block_offsets[b - 1]
        entries.append(SuiteEntry(
            _entry_name(spec, b, "linear"), b, 1, "linear",
            Polynomial.variable(target, table, offset)))
        if size >= 2:
            entries.append(SuiteEntry(
                _entry_name(spec, b, "norm"), b, spec.p, "norm",
                norm_invariant(spec.p, target, table, offset)))
        for j in range(3, size + 1):
            f = embed(_connecting_rational(j).polynomial, table, offset)
            if ring == "q":
                poly = f
            elif ring == "z":
                poly = integral_form(f)
            else:
                poly = f.change_ring(target)
            entries.append(SuiteEntry(
                _entry_name(spec, b, "connecting", j), b, connecting_degree(j),
                "connecting", poly))
    return InvariantSuite(spec, target, tuple(entries))


def suite_construction_steps(spec: RepresentationSpec) -> list:
    """Elimination-step records for every connecting invariant of a suite."""
    out = []
    for b, size in enumerate(spec.blocks, start=1):
        for j in range(3, size + 1):
            ci = _connecting_rational(j)
            out.append({
                "blockIndex": b,
                "name": _entry_name(spec, b, "connecting", j),
                "n": ci.n,
                "degree": ci.degree,
                "steps": ci.steps,
            })
    return out


__all__ = [
    "BlockExceedsP", "ConnectingInvariant", "EliminationStep", "FAMILIES",
    "IncompatibleBases", "InvariantSuite", "NoSolution", "ParityViolation",
    "RangeViolation", "SuiteEntry", "WeightSpaceBasis", "build_suite",
    "connecting_degree", "construct_connecting", "integral_form",
    "norm_invariant", "restricted_delta_matrix", "suite_construction_steps",
    "weight_basis",
]
