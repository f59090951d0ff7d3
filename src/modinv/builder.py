"""Construction of the low-degree invariant suites.

For a single unipotent block of size n the suite is: the fixed coordinate
x1, the orbit-product norm of x2, and one "connecting" invariant f_m for
each 3 <= m <= n, of degree 2 for odd m and degree 3 for even m, with
leading term x1*x_m (resp. x1^2*x_m).  Connecting invariants are found by a
deterministic elimination loop that repeatedly cancels the top weight
component of delta(t) against a designated space of lower monomials; each
step solves an integer linear system that is provably invertible, so the
result is exact over the rationals and reduces to any F_p with p >= n.
delta(t) is computed once; each pass subtracts only delta of its few-term
correction from it.
Direct sums are handled blockwise.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .action import BlockExceedsP, RepresentationSpec, _sigma_monomial, delta
from .poly import Polynomial, VariableTable, embed, monomial_text, ring_code
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


@dataclass(frozen=True)
class WeightSpaceBasis:
    """Ordered monomial basis of one weight space (exponent tuples over n vars)."""

    family: str
    d: int
    n: int
    monomials: tuple

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


@dataclass(frozen=True)
class EliminationStep:
    """Record of one cancellation step (kept for export and audits)."""

    weight: int            # weight of the monomials solved for
    family: str
    source: tuple          # monomial names, order = matrix columns
    target: tuple          # monomial names, order = matrix rows
    matrix: tuple          # integer rows
    det: object            # int for square systems, else None
    solution: tuple        # rendered coefficients of the correction term


@dataclass(frozen=True)
class ConnectingInvariant:
    """Invariant x1*x_n + h (degree 2) or x1^2*x_n + h (degree 3), with h
    free of x_n, together with the elimination-step records."""

    n: int
    degree: int
    polynomial: Polynomial
    tail: Polynomial
    steps: tuple


def _designated_family(degree: int, d: int) -> str:
    if degree == 2:
        return "W" if d % 2 else "Wprime"
    if d <= 4:
        return "S"
    return "Shat" if d % 2 else "Sprime"


def construct_connecting(n: int, degree: int, ring: Ring = QQ) -> ConnectingInvariant:
    """Run the elimination loop for a single block of size n.

    Starting from the leading monomial, each pass cancels the top weight
    component of delta(t) by subtracting a combination g of designated
    monomials one weight up; g is restricted to monomials free of x_n so the
    tail stays in the first n-1 variables.  The designated spaces make every
    system uniquely solvable in the cases where the invariant exists
    (degree 2 with odd n, degree 3 with even n); otherwise the first
    unsolvable system raises NoSolution.
    """
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not ring.is_field:
        raise ValueError("construction needs a field (use integral_form for Z output)")
    table = VariableTable((n,))
    lead = _exps(n, 1, n) if degree == 2 else _exps(n, 1, 1, n)
    t = Polynomial.monomial(ring, table, lead)
    target_family = "W" if degree == 2 else "S"
    steps = []
    prev_top = None
    residual = delta(t)
    while not residual.is_zero:
        components = residual.weight_components()
        top = max(components)
        if prev_top is not None and top >= prev_top:
            raise AssertionError("elimination failed to lower the top weight")
        prev_top = top
        d = top + 1
        family = _designated_family(degree, d)
        basis = weight_basis(family, d, n)
        # keep the tail inside the first n-1 variables
        source = tuple(e for e in basis.monomials if e[n - 1] == 0)
        target = weight_basis(target_family, top, n)
        matrix = _delta_matrix(source, target.monomials, n)
        comp = components[top]
        rhs = [comp.coefficient(e) for e in target.monomials]
        if sum(1 for e in comp._terms) != sum(1 for v in rhs if v != ring.zero()):
            raise AssertionError("residual outside the target span")
        ring_rows = [[ring.from_int(v) for v in row] for row in matrix]
        try:
            solution = linalg.solve_unique(ring, ring_rows, rhs)
        except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem) as exc:
            lead_text = monomial_text(table, lead)
            raise NoSolution(
                f"no invariant {lead_text} + h with h free of x{n}: "
                f"weight-{top} residual has no unique preimage in {family}_{d}") from exc
        g = Polynomial(ring, table, dict(zip(source, solution)))
        t = t - g
        residual = residual - delta(g)
        det = linalg.det_int(matrix) if len(matrix) == len(source) else None
        steps.append(EliminationStep(
            weight=d,
            family=family,
            source=tuple(monomial_text(table, e) for e in source),
            target=tuple(monomial_text(table, e) for e in target.monomials),
            matrix=tuple(tuple(row) for row in matrix),
            det=det,
            solution=tuple(ring.render(c) for c in solution),
        ))
    tail = t - Polynomial.monomial(ring, table, lead)
    return ConnectingInvariant(n, degree, t, tail, tuple(steps))


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


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    block_index: int       # 1-based
    degree: int
    kind: str              # "linear" | "norm" | "connecting"
    polynomial: Polynomial


@dataclass(frozen=True)
class InvariantSuite:
    spec: RepresentationSpec
    ring: Ring
    entries: tuple

    def degree_profile(self) -> tuple:
        return tuple(sorted(e.degree for e in self.entries))

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


def suite_from_json(data: dict) -> InvariantSuite:
    spec = RepresentationSpec(data["spec"]["p"], tuple(data["spec"]["blocks"]))
    entries = []
    ring = None
    for e in data["entries"]:
        poly = Polynomial.from_json_dict(e["polynomial"])
        if poly.table != spec.table:
            raise ValueError("suite polynomial over the wrong table")
        ring = poly.ring
        entries.append(SuiteEntry(e["name"], e["blockIndex"], e["degree"],
                                  e["kind"], poly))
    if ring is None:
        raise ValueError("empty suite")
    return InvariantSuite(spec, ring, tuple(entries))


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
    "suite_from_json", "weight_basis",
]
