"""Brute-force verification over small finite fields.

Everything here is an independent check on the symbolic construction:
suites are re-evaluated over an exhaustively enumerated field and compared
along the group action, and separation is decided by comparing invariant
fibers against the orbits inside the open set B where every nontrivial
block has a nonzero leading coordinate.

Support closure.  An entry's support is, in each block, every coordinate up
to the last one it reads.  The action maps the first l coordinates of a
block among themselves, so an entry's value at sigma v depends only on v
restricted to its support, for any polynomial.

Codes.  Every check computes on the fields' int codes (ring.encode): the
rank of an element in elements() order, the residue itself over F_p.  Codes
order like the elements, so smallest points and representatives are the
same; tuples are built only to decode witnesses.

Value tables.  Each entry is evaluated once per point of a product of code
lists over its support, in row-major order: its terms are split by the
exponent of the last coordinate and the coefficients are tabulated over the
earlier coordinates the same way (the field's extend_table does the
univariate step).  Tables are built one slab of first coordinates at a
time, so memory stays near q^(n-1) values; the action fixes the first
coordinate.

- Constancy compares each table value at v with the one at sigma v, reached
  by index arithmetic.  An entry's smallest violating point is its smallest
  violating sub-point padded with zeros; the witness is the least of these,
  named by the first entry that differs there.
- Separation enumerates only the representatives of the orbits in B, |B|/p
  of them when some block is nontrivial (see _rep_factors), and looks each
  fiber key, one int, up in the entries' tables; pointsInB is p times their
  number.  The scan runs in this process: a forked worker would have to
  ship every fiber it meets back to be merged, which costs about as much
  as scanning its representatives here.  The scan makes no reference
  cycles, so it runs with the cyclic garbage collector paused.
- Lifting checks that every row of f_n's table over the last coordinate
  holds q distinct values.

Every entry point checks q^n, the size of the whole space, against an
explicit budget before starting.
"""

import itertools
import math
import operator
from collections import namedtuple
from math import prod

from .action import (RepresentationSpec, act_raw, in_b_raw, point_texts,
                     render_point)
from .builder import InvariantSuite, _connecting_rational
from .poly import Record
from .rings import DEFAULT_BUDGET, BudgetExceeded, Ring, check_budget, gc_paused

# at most this many smallest representatives are retained per fiber
_KEEP_REPS = 11
_MAX_WITNESS_PAIRS = 10

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
    """(support, terms) of a polynomial: the flat indices of the coordinates
    up to the last one it reads in each block, and its terms over ring as
    (coefficient code, exponents on the support).

    The action maps the first l coordinates of a block among themselves, so
    f(sigma v) depends only on v restricted to the support."""
    table = f.table
    read = [0] * len(table.blocks)
    terms = f.change_ring(ring).terms()
    for exps, _ in terms:
        for i, e in enumerate(exps):
            if e:
                b, j = table.positions[i]
                read[b] = max(read[b], j)
    support = [offset + j for offset, length in zip(table.block_offsets, read)
               for j in range(length)]
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
    if not terms:
        return [0] * prod(len(values) for values in lists)
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


def _unrank(q: int, index: int, count: int) -> tuple:
    """The codes at a row-major index of range(q)^count."""
    out = []
    for _ in range(count):
        index, r = divmod(index, q)
        out.append(r)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Orbit constancy.


def _shift(p: int, q: int, value: int) -> list:
    """The code permutation x -> x + value: codes are base-p digits, added
    digit by digit mod p."""
    perm = [0]
    place = q
    while place > 1:
        place //= p
        r = value // place % p
        rotated = list(range(r, p)) + list(range(r))
        perm = [b * p + y for b in perm for y in rotated]
    return perm


def _sigma_index(positions, support, p: int, q: int, slab) -> list:
    """Row-major index of sigma v for every v of a support grid whose first
    coordinate runs over slab (the action fixes it).  A coordinate that is
    not first in its block moves by its predecessor, the one before it in
    the support, so its moves repeat with the predecessor's value."""
    index = list(range(len(slab)))
    for j in range(1, len(support)):
        if positions[support[j]][1] == 1:
            moves = list(range(q))
        else:
            moves = [y for v in (slab if j == 1 else range(q)) for y in _shift(p, q, v)]
        spread = [s * q for s in index for _ in range(q)]
        index = list(map(operator.add, spread, moves * (len(spread) // len(moves))))
    return index


def verify_orbit_constancy(suite: InvariantSuite, ring: Ring,
                           budget: int = DEFAULT_BUDGET):
    """Check f(g.v) == f(v) for every point and entry; None when all hold.

    Each entry is tabulated over its support, one slab of values of the
    first support coordinate at a time, and every table value is compared with
    the one at sigma v.  The smallest violating point of an entry is its
    smallest violating sub-point padded with zeros (zero is the smallest
    raw value).  On failure returns (entry name, smallest violating point
    over all entries in row-major order), naming the first entry that
    differs there: an entry that differs at that point has no smaller
    violating point, so it is the first entry whose own witness is it.
    """
    spec = suite.spec
    _check_field(spec, ring)
    check_budget(ring.order, spec.n, budget)
    positions = spec.table.positions
    q = ring.order
    witnesses = []
    for entry in suite.entries:
        support, terms = _support_terms(entry.polynomial, ring)
        if all(positions[i][1] == 1 for i in support):
            continue        # the action fixes every coordinate it reads
        rest = [range(q)] * (len(support) - 1)
        per_first = q ** len(rest)
        for slab in _slabs(range(q), per_first):
            values = _table(ring, terms, [slab] + rest)
            index = _sigma_index(positions, support, ring.p, q, slab)
            if list(map(values.__getitem__, index)) == values:
                continue
            at = next(u for u, i in enumerate(index) if values[u] != values[i])
            head, tail = divmod(at, per_first)
            point = [0] * spec.n
            for i, c in zip(support, (slab[head],) + _unrank(q, tail, len(rest))):
                point[i] = c
            witnesses.append((tuple(point), entry.name))
            break
    if not witnesses:
        return None
    point, name = min(witnesses, key=operator.itemgetter(0))
    return name, tuple(map(ring.decode, point))


# ---------------------------------------------------------------------------
# Separation.


def _rep_factors(blocks, p: int, q: int):
    """The representatives of the orbits in B as a product of consecutive
    coordinate groups, each a list of columns of codes that lists its
    allowed values in ascending order: (slab of first coordinates -> the
    first group's columns over those, the later groups).

    The representative is the orbit's smallest point.  In B every
    nontrivial block has a nonzero first coordinate; let a be the first
    nontrivial block.  The action fixes x1_a and every coordinate before it,
    and moves x2_a through x2_a + t*x1_a, t in F_p.  Residues of x2_a before
    the first nonzero residue of x1_a stay fixed and the residue there takes
    every value, so the smallest orbit point is the one where that residue
    is 0.  It sits at the leading nonzero digit of x1_a's code; over F_p the
    representative is the point with x2_a == 0.  Without nontrivial blocks
    every point is fixed and represents itself."""
    seconds = [[]]      # the codes of x2_a by the code of x1_a
    place = 1
    while place < q and max(blocks) > 1:
        ws = [w for h in range(0, q, place * p) for w in range(h, h + place)]
        seconds += [ws] * (place * (p - 1))     # codes led by the digit at place
        place *= p

    def pairs(firsts):  # the (x1_a, x2_a) columns of representatives
        return [[u for u in firsts for _ in seconds[u]],
                [w for u in firsts for w in seconds[u]]]

    free = [range(q)]
    if blocks[0] == 1:
        def lead(slab):
            return [slab]
        later, lead_seen = [], False
    else:
        lead, later, lead_seen = pairs, [free] * (blocks[0] - 2), True
    for size in blocks[1:]:
        if size == 1:
            later.append(free)
        elif lead_seen:
            later.append([range(1, q)])
            later.extend([free] * (size - 1))
        else:
            later.append(pairs(range(1, q)))
            later.extend([free] * (size - 2))
            lead_seen = True
    return lead, later


def _per_first(factors, q: int) -> int:
    """Representatives per nonzero first coordinate (all have as many)."""
    lead, later = factors
    return prod(len(group[0]) for group in [lead(range(q - 1, q))] + later)


def _decode(factors, ring: Ring, rep: int) -> tuple:
    """The point of a representative kept as its rank (see _scan_fibers)."""
    lead, later = factors
    head, pos = divmod(rep, _per_first(factors, ring.order))
    parts = []
    for group in reversed([lead(range(head, head + 1))] + later):
        pos, r = divmod(pos, len(group[0]))
        parts.append([column[r] for column in group])
    return tuple(ring.decode(c) for part in reversed(parts) for c in part)


def _distinct(column):
    """The values of a column, each once."""
    return column if isinstance(column, range) else list(dict.fromkeys(column))


def _lookup(groups, support, lists) -> list:
    """Row-major index into a table over the support's value lists for each
    point of the product of the coordinate groups, in enumeration order."""
    read = {}
    size = 1
    for i, values in zip(reversed(support), reversed(lists)):
        position = (values.index if isinstance(values, range) else
                    {v: r for r, v in enumerate(values)}.__getitem__)
        read[i] = (size, position)
        size *= len(values)
    index = [0]
    coord = 0
    for group in groups:
        offsets = [0] * len(group[0])
        for c, column in enumerate(group, coord):
            if c in read:
                stride, position = read[c]
                offsets = list(map(operator.add, offsets,
                                   map(stride.__mul__, map(position, column))))
        coord += len(group)
        index = [b + o for b in index for o in offsets]
    return index


def _scan_fibers(suite: InvariantSuite, ring: Ring, factors):
    """The fibers of the representatives of B: ({key: first representative},
    {first representative: representatives} of the _MAX_WITNESS_PAIRS fibers
    met more than once whose first representatives are smallest; each of
    them gives a witness pair, so no other fiber can give one).

    Entries reading the first coordinate are tabulated per slab of first
    coordinates, the others once.  A key is one int, the entries' codes
    as digits in base q, and a representative is kept as its rank, the
    first coordinate's code times the representatives per first coordinate
    plus its position among them; ranks order like the points.  A slab's
    keys go into the fibers at once when none repeats or was met before;
    otherwise one at a time.  Representatives are met in ascending order,
    so each fiber keeps its first _KEEP_REPS, sorted."""
    lead, later = factors
    q = ring.order
    entries = [_support_terms(e.polynomial, ring) for e in suite.entries]
    later_lists = [_distinct(column) for group in later for column in group]
    fixed = {}      # tables of entries that do not read the first coordinate
    per_first = _per_first(factors, q)
    seen = {}       # key -> its first representative
    shared = {}     # first representative -> the fiber's first _KEEP_REPS
    bound = math.inf    # the largest first representative kept in shared
    for slab in _slabs(range(q), per_first):
        groups = [lead(slab)] + later
        if not groups[0][0]:
            continue    # no point of B starts here
        lists = [_distinct(column) for column in groups[0]] + later_lists
        keys = None
        for j, (support, terms) in enumerate(entries):
            grid = [lists[i] for i in support]
            table = fixed.get(j)
            if table is None:
                table = _table(ring, terms, grid)
                if j:
                    table = [v * q ** j for v in table]
                if not support or support[0] != 0:
                    fixed[j] = table
            column = list(map(table.__getitem__, _lookup(groups, support, grid)))
            keys = column if keys is None else list(map(operator.add, keys, column))
        start = groups[0][0][0] * per_first
        fresh = dict(zip(keys, range(start, start + len(keys))))
        if len(fresh) == len(keys) and fresh.keys().isdisjoint(seen.keys()):
            seen.update(fresh)
            continue
        for rep, key in enumerate(keys, start):
            first = seen.setdefault(key, rep)
            if first == rep or first > bound:
                continue
            kept = shared.get(first)
            if kept is None:
                kept = shared[first] = [first]
                if len(shared) > _MAX_WITNESS_PAIRS:
                    del shared[max(shared)]
                if len(shared) == _MAX_WITNESS_PAIRS:
                    bound = max(shared)
            if len(kept) < _KEEP_REPS:
                kept.append(rep)
    return seen, shared


class SeparationReport(Record, namedtuple("SeparationReport", (
        "spec ring total_points points_in_b orbit_count_in_b fiber_count "
        "separated witness_pairs"))):
    """Outcome of one exhaustive separation check; witness_pairs holds pairs
    of raw coordinate tuples in canonical order."""

    def to_json_dict(self) -> dict:
        return {
            "spec": {"p": self.spec.p, "blocks": list(self.spec.blocks)},
            "field": {"p": self.ring.p, "k": getattr(self.ring, "k", 1),
                      "order": self.ring.order},
            "totalPoints": self.total_points,
            "pointsInB": self.points_in_b,
            "orbitCountInB": self.orbit_count_in_b,
            "fiberCount": self.fiber_count,
            "separated": self.separated,
            "witnessPairs": [[point_texts(self.ring, a), point_texts(self.ring, b)]
                             for a, b in self.witness_pairs],
        }

    def render(self) -> str:
        k = getattr(self.ring, "k", 1)
        field = f"F_{self.ring.p}" if k == 1 else f"F_{self.ring.p}^{k}"
        lines = [
            f"p={self.spec.p} blocks={list(self.spec.blocks)} field={field}",
            f"  totalPoints    {self.total_points}",
            f"  pointsInB      {self.points_in_b}",
            f"  orbitCountInB  {self.orbit_count_in_b}",
            f"  fiberCount     {self.fiber_count}",
            f"  separated      {'yes' if self.separated else 'no'}",
        ]
        if self.witness_pairs:
            lines.append("  witnessPairs")
            for a, b in self.witness_pairs:
                lines.append(f"    ({render_point(self.ring, a)}) ~ "
                             f"({render_point(self.ring, b)})")
        return "\n".join(lines)


def separation_report(suite: InvariantSuite, ring: Ring,
                      budget: int = DEFAULT_BUDGET) -> SeparationReport:
    """Exhaustively compare invariant fibers with orbits inside B.

    The suite separates B exactly when distinct orbits give distinct value
    tuples, i.e. fiberCount == orbitCountInB.  Witness pairs list up to ten
    pairs of distinct orbit representatives sharing a fiber, ordered by the
    fiber's smallest representative and then lexicographically.
    """
    spec = suite.spec
    _check_field(spec, ring)
    check_budget(ring.order, spec.n, budget)
    q = ring.order
    factors = _rep_factors(spec.blocks, ring.p, q)
    # with a nontrivial first block, no representative has first coordinate 0
    reps = _per_first(factors, q) * (q - (spec.blocks[0] > 1))
    with gc_paused():
        seen, shared = _scan_fibers(suite, ring, factors)
    fiber_count = len(seen)
    pairs = []
    for kept in sorted(shared.values()):
        for a, b in itertools.combinations(kept, 2):
            pairs.append((_decode(factors, ring, a), _decode(factors, ring, b)))
            if len(pairs) == _MAX_WITNESS_PAIRS:
                break
        if len(pairs) == _MAX_WITNESS_PAIRS:
            break
    return SeparationReport(
        spec=spec,
        ring=ring,
        total_points=ring.order ** spec.n,
        points_in_b=reps * spec.p if spec.m else reps,
        orbit_count_in_b=reps,
        fiber_count=fiber_count,
        separated=fiber_count == reps,
        witness_pairs=tuple(pairs),
    )


# ---------------------------------------------------------------------------
# Lifting and orbit census.


def verify_lifting(n: int, ring: Ring, budget: int = DEFAULT_BUDGET):
    """Check that the top connecting invariant of a size-n block is injective
    in the last coordinate once the leading coordinate is nonzero.

    This is the step that lets separating sets grow one variable at a time.
    Returns None, or a pair of points agreeing except in the last coordinate
    on which the invariant collides.
    """
    if n < 3:
        raise ValueError("connecting invariants start at block size 3")
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if n > ring.characteristic:
        raise ValueError("block size exceeds p")
    check_budget(ring.order, n, budget)
    # f_n reads x_n, so its support is the whole block
    _, terms = _support_terms(_connecting_rational(n).polynomial, ring)
    q = ring.order
    rest = [range(q)] * (n - 1)
    rows = q ** (n - 2)     # per first coordinate
    for slab in _slabs(range(1, q), rows * q):
        values = _table(ring, terms, [slab] + rest)
        for start in range(0, len(values), q):
            row = values[start:start + q]
            if len(set(row)) == q:
                continue
            head, tail = divmod(start // q, rows)
            prefix = (slab[head],) + _unrank(q, tail, n - 2)
            seen = {}
            for last, val in enumerate(row):
                if val in seen:
                    return (tuple(map(ring.decode, prefix + (seen[val],))),
                            tuple(map(ring.decode, prefix + (last,))))
                seen[val] = last
    return None


def fixed_point_census(spec: RepresentationSpec, ring: Ring,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Brute-force orbit census; orbits have length 1 (fixed) or p."""
    _check_field(spec, ring)
    check_budget(ring.order, spec.n, budget)
    blocks = spec.blocks
    total = ring.order ** spec.n
    in_b = fixed = fixed_b = 0
    for coords in itertools.product(ring.elements(), repeat=spec.n):
        b = in_b_raw(blocks, ring, coords)
        in_b += b
        if act_raw(blocks, ring, coords) == coords:
            fixed += 1
            fixed_b += b
    if (total - fixed) % spec.p or (in_b - fixed_b) % spec.p:
        raise AssertionError("non-fixed points do not split into p-orbits")
    return {
        "totalPoints": total,
        "pointsInB": in_b,
        "fixedPoints": fixed,
        "fixedPointsInB": fixed_b,
        "orbitCount": fixed + (total - fixed) // spec.p,
        "orbitCountInB": fixed_b + (in_b - fixed_b) // spec.p,
    }


__all__ = [
    "BudgetExceeded", "DEFAULT_BUDGET", "SeparationReport",
    "fixed_point_census", "separation_report", "verify_lifting",
    "verify_orbit_constancy",
]
