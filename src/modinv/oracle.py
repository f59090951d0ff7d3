"""Verification over small finite fields.

Constancy and separation are independent checks on the symbolic
construction over an exhaustively enumerated field: suites are compared
along the group action, and separation compares invariant fibers with the
orbits inside the open set B where every nontrivial block has a nonzero
leading coordinate.  Both check q^n, the size of the whole space, against
an explicit budget before starting.  Lifting visits no point: it is
certified from the terms of the builder's f_n over Q.

README.md, "What `verify` costs", describes how each check computes.  This
module holds the value tables, constancy and lifting; the separation scan
is in separation.py, which reads the tables from here.  They are two
modules so that no one compile holds both: CPython keeps a whole module's
tokens and syntax tree while it compiles it.
"""

import operator

from .action import RepresentationSpec, delta
from .builder import _connecting_rational
from .rings import DEFAULT_BUDGET, Ring, check_budget
from .suite import InvariantSuite

# value tables are built over runs of first coordinates of at least this
# many points (or over a single first coordinate, when that is larger)
_SLAB_POINTS = 1 << 12


def _check_field(spec: RepresentationSpec, ring: Ring):
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if getattr(ring, "p", None) != spec.p:
        raise ValueError(f"field characteristic must be {spec.p}")


# ---------------------------------------------------------------------------
# Value tables.


def _support_terms(f, ring: Ring):
    """(support, terms) of a polynomial: the sorted flat indices of the
    coordinates it reads over ring, and its terms over ring as
    (coefficient code, exponents on the support)."""
    terms = f.change_ring(ring).terms()
    support = sorted({i for exps, _ in terms for i, e in enumerate(exps) if e})
    return support, [(ring.encode(c), tuple(exps[i] for i in support))
                     for exps, c in terms]


def _table(ring: Ring, terms, lists) -> list:
    """Codes of sum c * prod s_i^e_i over (c, (e_1..e_d)) in terms at every
    point of the product of the d lists of codes, in row-major order.

    Terms are split by their exponent in the last coordinate and each
    split's coefficient is tabulated over the earlier coordinates the same
    way, so a point costs one univariate step in its last coordinate."""
    if not lists:
        # monomials are distinct on the support, so at most one term is left
        return [terms[0][0] if terms else 0]
    split = {}
    for c, exps in terms:
        split.setdefault(exps[-1], []).append((c, exps[:-1]))
    return ring.extend_table(
        {e: _table(ring, sub, lists[:-1]) for e, sub in split.items()}, lists[-1])


def _slabs(firsts, per_first: int) -> list:
    """Consecutive runs of first coordinates, each tabulated at once: one
    coordinate per run, or as many as fill _SLAB_POINTS points, so a large
    field over few coordinates is not tabulated one value at a time."""
    step = max(1, _SLAB_POINTS // per_first)
    return [firsts[i:i + step] for i in range(0, len(firsts), step)]


def _point(ring: Ring, groups, rank: int) -> tuple:
    """The point at a row-major rank of the product of coordinate groups,
    each a list of equally long columns of codes."""
    parts = []
    for group in reversed(groups):
        rank, r = divmod(rank, len(group[0]))
        parts.append([column[r] for column in group])
    return tuple(ring.decode(c) for part in reversed(parts) for c in part)


# ---------------------------------------------------------------------------
# Orbit constancy.


def verify_orbit_constancy(suite: InvariantSuite, ring: Ring,
                           budget: int = DEFAULT_BUDGET):
    """Check f(g.v) == f(v) for every point and entry; None when all hold.

    f(sigma v) - f(v) is (delta f)(v), so an entry holds everywhere when
    delta f, taken over ring, is the zero polynomial, as for every built
    suite.  Otherwise delta f is tabulated over its support, one slab of
    values of the first support coordinate at a time, and the entry's
    smallest violating point is the first nonzero sub-point in row-major
    order padded with zeros (zero is the smallest raw value).  On failure
    returns (entry name, smallest violating point over all entries in
    row-major order), naming the first entry that differs there: an entry
    that differs at that point has no smaller violating point, so it is
    the first entry whose own witness is it.
    """
    spec = suite.spec
    _check_field(spec, ring)
    check_budget(ring.order, spec.n, budget)
    q = ring.order
    witnesses = []
    for entry in suite.entries:
        change = delta(entry.polynomial.change_ring(ring))
        if change.is_zero:
            continue
        # sigma keeps degrees, so delta f has no constant term and reads
        # at least one coordinate
        support, terms = _support_terms(change, ring)
        for slab in _slabs(range(q), q ** (len(support) - 1)):
            grid = [slab] + [range(q)] * (len(support) - 1)
            at = next((u for u, v in enumerate(_table(ring, terms, grid)) if v), None)
            if at is None:
                continue
            point = [ring.zero()] * spec.n
            for i, c in zip(support, _point(ring, [[column] for column in grid], at)):
                point[i] = c
            witnesses.append((tuple(point), entry.name))
            break
    if not witnesses:
        return None
    point, name = min(witnesses, key=operator.itemgetter(0))
    return name, point


# ---------------------------------------------------------------------------
# Lifting.


def verify_lifting(n: int, ring: Ring):
    """Check that the top connecting invariant of a size-n block is injective
    in the last coordinate once the leading coordinate is nonzero.

    This is the step that lets separating sets grow one variable at a time.
    It is decided on the builder's integer form of f_n over Q: when exactly
    one term reads x_n, and that term is x1^e*x_n with coefficient 1 (its
    numerator is the denominator), f_n is x1^e*x_n + h(x1..x_{n-1}) over
    every field of characteristic p >= n, a bijection of x_n wherever
    x1 != 0, and None is returned.  Any other f_n raises AssertionError.
    """
    if n < 3:
        raise ValueError("connecting invariants start at block size 3")
    if ring.order is None:
        raise ValueError(f"lifting needs a field of characteristic p >= {n}")
    if n > ring.characteristic:
        raise ValueError("block size exceeds p")
    f = _connecting_rational(n).polynomial
    # a key lists its variables last first, so it reads x_n when its first
    # index is n - 1; x1^e*x_n has the key (e + 1, n - 1, 1, 0, e)
    reading = [key for key in f.numerators if key[1:2] == (n - 1,)]
    if not (len(reading) == 1 and reading[0][2:] == (1, 0, reading[0][0] - 1)
            and f.numerators[reading[0]] == f.denominator):
        raise AssertionError(f"f_{n} is not x1^e*x{n} + h(x1..x{n - 1}): "
                             "its lifting is not certified")


def __getattr__(name):
    # separation.py's public names resolve here too, on first use: it
    # imports this module, so this one cannot import it at the top
    from . import separation
    if name in separation.__all__:
        return getattr(separation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SeparationReport", "render_separation", "separation_report",
    "verify_lifting", "verify_orbit_constancy",
]
