"""Construction of the low-degree invariant suites.

For a single unipotent block of size n the suite is: the fixed coordinate
x1, the orbit-product norm of x2, and one "connecting" invariant f_m for
each 3 <= m <= n, of degree 2 for odd m and degree 3 for even m, with
leading term x1*x_m (resp. x1^2*x_m).  Connecting invariants are found by a
deterministic elimination loop that repeatedly cancels the top weight
component of delta(t) against a designated space of lower monomials; each
step solves an integer linear system that is provably invertible, so the
result is exact over the rationals and reduces to any F_p with p >= n.

The loop runs in integers over one common denominator, and f_m stays as
those integers; README's "What `construct` costs" has the details.  Inside
the loop a monomial is the sorted tuple of its 1-based variable indices,
such as (1, n) or (1, 1, n), and its weight is sum(key).  delta of a key
and each linear system do not depend on n, so every f_m shares them.  The
suites are built in suite.py, whose public names resolve here too.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import linalg
from .action import BlockExceedsP
from .poly import Polynomial, Record, VariableTable, _dense, key_text, product_key
from .rings import QQ


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

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make checks len(), which here counts monomials
        return cls(*iterable)

    def names(self) -> tuple:
        return _names(tuple(map(_key, self.monomials)))


def _key(exps):
    """Sparse key of an exponent tuple: its 1-based indices, with multiplicity."""
    return tuple(i for i, a in enumerate(exps, start=1) for _ in range(a))


@lru_cache(maxsize=None)
def _poly_key(key) -> tuple:
    """Polynomial's key (poly.grlex_key) of a key.  Cached, so every f_m
    shares one tuple per monomial."""
    return product_key(i - 1 for i in key)


@lru_cache(maxsize=None)
def _names(keys) -> tuple:
    """Monomial names of keys, one tuple shared by every step listing them.

    A name does not depend on the block size, so the smallest block holding
    every key names them.
    """
    table = VariableTable((max((k[-1] for k in keys), default=1),))
    return tuple(key_text(table, _poly_key(k)) for k in keys)


# One tuple object per key met, so that the delta table shares its keys.
_KEYS = {}


@lru_cache(maxsize=None)
def _delta_key(key) -> tuple:
    """delta of a single-block monomial over Z, as (weight, key, int) triples.

    sigma fixes x1 and sends every other x_i to x_{i-1} + x_i, so the image
    does not depend on the block size.  It holds the key itself with
    coefficient 1, which delta leaves out, and otherwise only terms of
    lower weight.  Expanding on index tuples here takes under half the time
    of action's expansion on Polynomial keys followed by a conversion back.
    """
    out = {(): 1}
    for i in key:
        images = (i,) if i == 1 else (i - 1, i)
        nxt = {}
        for k, c in out.items():
            for j in images:
                e = tuple(sorted(k + (j,)))
                nxt[e] = nxt.get(e, 0) + c
        out = nxt
    del out[key]
    return tuple((sum(e), _KEYS.setdefault(e, e), c) for e, c in out.items())


@lru_cache(maxsize=None)
def _basis_keys(family: str, d: int) -> tuple:
    """Keys of weight_basis(family, d, n), the same for every valid n.

    W: x_i * x_{d-i} for i = 1..floor(d/2).  S: B1 = x1*x_i*x_j with
    i+j = d-1, then B2 = x2*x_i*x_j with 2 <= i, i+j = d-2.  Each list is
    ordered by increasing i.
    """
    if family in _W_FAMILIES:
        keys = [(i, d - i) for i in range(1, d // 2 + 1)]
        if family == "Wprime":
            if d % 2:
                raise ParityViolation("Wprime needs even d")
            keys = keys[1:]
        return tuple(keys)
    b1 = [(1, i, d - 1 - i) for i in range(1, (d - 1) // 2 + 1)]
    b2 = [(2, i, d - 2 - i) for i in range(2, (d - 2) // 2 + 1)]
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
    return tuple(b1 + b2)


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
    if family in _W_FAMILIES and d > n + 1:
        raise RangeViolation(f"W-family needs d <= n+1, got d={d}, n={n}")
    if family in _S_FAMILIES and d > n + 2:
        raise RangeViolation(f"S-family needs d <= n+2, got d={d}, n={n}")
    return WeightSpaceBasis(family, d, n,
                            tuple(tuple(_dense(n, _poly_key(k)))
                                  for k in _basis_keys(family, d)))


def _delta_matrix(source, target):
    """Integer matrix of the weight-(d-1) part of delta on weight-d keys.

    Rows follow the target order, columns the source order.
    """
    index = {e: i for i, e in enumerate(target)}
    rows = [[0] * len(source) for _ in target]
    for col, key in enumerate(source):
        below = sum(key) - 1
        for w, e, c in _delta_key(key):
            if w != below:
                continue
            if e not in index:
                raise IncompatibleBases(f"target basis misses {_names((e,))[0]}")
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
    return _delta_matrix(tuple(map(_key, source.monomials)),
                         tuple(map(_key, target.monomials)))


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


@lru_cache(maxsize=None)
def _matrix(system: linalg.IntegerSystem) -> tuple:
    """A system's dense rows, made once and shared by every record of it."""
    return system.rows


class _Steps:
    """ConnectingInvariant.steps: one EliminationStep per pass, made on first
    access and then kept.  A pass keeps only its weight and system: its keys
    follow from n, the degree and the weight (_pass_keys), and its solution
    is the negated numerators of f_m at its source keys, over f_m's
    denominator.  It indexes, compares and hashes as the tuple of its
    records, and len() makes none."""

    __slots__ = ("_degree", "_polynomial", "_passes", "_records")

    def __init__(self, degree: int, polynomial: Polynomial, passes: tuple):
        self._degree, self._polynomial, self._passes = degree, polynomial, passes
        self._records = None

    def _made(self) -> tuple:
        if self._records is None:
            f = self._polynomial
            numerators, denominator = f.numerators, f.denominator
            records = []
            for d, system in self._passes:
                family, source, target = _pass_keys(f.table.n, self._degree, d)
                records.append(EliminationStep(
                    weight=d,
                    family=family,
                    source=_names(source),
                    target=_names(target),
                    matrix=_matrix(system),
                    det=system.det,
                    solution=tuple(str(Fraction(-numerators.get(_poly_key(e), 0), denominator))
                                   for e in source),
                ))
            self._records = tuple(records)
            self._passes = self._polynomial = None
        return self._records

    def __len__(self):
        return len(self._passes if self._records is None else self._records)

    def __getitem__(self, i):
        return self._made()[i]

    def __iter__(self):
        return iter(self._made())

    def __eq__(self, other):
        if isinstance(other, (tuple, _Steps)):
            return self._made() == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._made())

    def __repr__(self):
        return repr(self._made())


def _designated_family(degree: int, d: int) -> str:
    if degree == 2:
        return "W" if d % 2 else "Wprime"
    if d <= 4:
        return "S"
    return "Shat" if d % 2 else "Sprime"


def _pass_keys(n: int, degree: int, d: int) -> tuple:
    """Family, source keys and target keys of the pass that solves for
    weight d.  The sources are kept free of x_n, so that the tail stays
    inside the first n-1 variables; where that drops no key, they are the
    cached basis itself, one tuple for every cache keyed on it."""
    family = _designated_family(degree, d)
    source = _basis_keys(family, d)
    if any(k[-1] >= n for k in source):
        source = tuple(k for k in source if k[-1] < n)
    return family, source, _basis_keys("W" if degree == 2 else "S", d - 1)


class _Rational(Polynomial):
    """f_m over Q as integer numerators, keyed in canonical order, over one
    denominator, and their gcd with it.  The z and fp suites read these; the
    Fraction terms are made when first read."""

    def __init__(self, n: int, numerators: dict, denominator: int):
        self.ring, self.table = QQ, VariableTable((n,))
        self.numerators, self.denominator = numerators, denominator
        self.gcd = gcd(denominator, *numerators.values())

    @cached_property
    def _terms(self) -> dict:
        d = self.denominator
        return {k: Fraction(v, d) for k, v in self.numerators.items()}


@lru_cache(maxsize=None)
def _system(source, target) -> linalg.IntegerSystem:
    """The elimination loop's system for source and target keys.  Cached:
    f_{n+2} meets every system f_n meets, so f_3..f_29 solve only 54."""
    return linalg.IntegerSystem(_delta_matrix(source, target), len(source))


def construct_connecting(n: int, degree: int) -> ConnectingInvariant:
    """Run the elimination loop for a single block of size n.

    Starting from the leading monomial, each pass cancels the top weight
    component of delta(t) by subtracting a combination g of designated
    monomials one weight up; g is restricted to monomials free of x_n so the
    tail stays in the first n-1 variables.  The designated spaces make every
    system uniquely solvable in the cases where the invariant exists
    (degree 2 with odd n, degree 3 with even n); otherwise the first
    unsolvable system raises NoSolution.

    The loop keeps residual = delta(t) = R/D, with an integer map R and an
    integer D.  A pass takes the integer y with M*y = scale*rhs, subtracts
    g = sum y_i m_i / (scale*D) from t, and moves to
    R <- scale*R - delta(sum y_i m_i) and D <- scale*D; only delta of the
    few-term correction is computed.  Each pass's monomials lie one weight
    above its residual, below every earlier pass's, so t's coefficients are
    just the negated solutions over the D of their pass.  f_m is made once,
    at the end, from the numerators over the last D (_Rational), and makes
    no Fraction until its terms are read.  Its step records are made when first read (_Steps).
    """
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    if n < 2:
        raise ValueError("n must be at least 2")
    lead = (1, n) if degree == 2 else (1, 1, n)

    def subtract_delta(key, c, below):
        """R -= c * delta(key), on weights below `below` only."""
        for w, e, k in _delta_key(key):
            if w < below:
                part = residual.setdefault(w, {})
                v = part.get(e, 0) - c * k
                if v:
                    part[e] = v
                else:
                    part.pop(e, None)
                    if not part:
                        del residual[w]

    terms = {lead: (1, 1)}              # key -> (numerator, denominator then)
    denominator = 1
    residual = {}                       # weight -> {key: int}
    subtract_delta(lead, -1, n + degree - 1)
    passes = []
    prev_top = None
    while residual:
        top = max(residual)
        if prev_top is not None and top >= prev_top:
            raise AssertionError("elimination failed to lower the top weight")
        prev_top = top
        d = top + 1
        family, source, target = _pass_keys(n, degree, d)
        comp = residual.pop(top)
        rhs = [comp.get(e, 0) for e in target]
        if len(comp) != sum(1 for v in rhs if v):
            raise AssertionError("residual outside the target span")
        try:
            system = _system(source, target)
            y = system.solve(rhs)
        except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem) as exc:
            raise NoSolution(
                f"no invariant {_names((lead,))[0]} + h with h free of x{n}: "
                f"weight-{top} residual has no unique preimage in {family}_{d}") from exc
        scale = system.scale
        if scale != 1:
            for part in residual.values():
                for e, v in part.items():
                    part[e] = v * scale
        denominator *= scale
        for e, v in zip(source, y):
            if v:
                terms[e] = (-v, denominator)
                subtract_delta(e, v, top)
        passes.append((d, system))
    numerators = dict(sorted(((_poly_key(k), v * (denominator // then))
                              for k, (v, then) in terms.items()), reverse=True))
    polynomial = _Rational(n, numerators, denominator)
    return ConnectingInvariant(n, degree, polynomial, _Steps(degree, polynomial, tuple(passes)))


@lru_cache(maxsize=None)
def _connecting_rational(n: int) -> ConnectingInvariant:
    """Cached rational construction at connecting_degree(n)."""
    return construct_connecting(n, connecting_degree(n))


def connecting_degree(n: int) -> int:
    """Degree of f_n, forced by the parity of n."""
    return 2 if n % 2 else 3


def __getattr__(name):
    # suite.py's public names resolve here too, on first use: it imports
    # this module, so this one cannot import it at the top
    from . import suite
    if name in suite.__all__:
        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BlockExceedsP", "ConnectingInvariant", "EliminationStep", "FAMILIES",
    "IncompatibleBases", "InvariantSuite", "NoSolution", "ParityViolation",
    "RangeViolation", "SuiteEntry", "WeightSpaceBasis", "build_suite",
    "connecting_degree", "construct_connecting", "integral_form",
    "norm_invariant", "restricted_delta_matrix", "suite_construction_steps",
    "weight_basis",
]
