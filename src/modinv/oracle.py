"""Brute-force verification over small finite fields.

Everything here is an independent check on the symbolic construction:
suites are re-evaluated over an exhaustively enumerated field and compared
along the group action, and separation is decided by comparing invariant
fibers against the orbits inside the open set B where every nontrivial
block has a nonzero leading coordinate.  Every entry point checks q^n, the
size of the whole space, against an explicit budget before starting.

README.md, "What `verify` costs", describes how the checks compute: on int
codes (ring.encode), over the coordinates each polynomial reads, through
value tables built one slab of first coordinates at a time, and what
constancy (on delta f), separation and lifting each scan.
"""

import itertools
import math
import operator
from collections import namedtuple
from math import prod

from .action import (RepresentationSpec, act_raw, delta, in_b_raw, join_point,
                     point_texts)
from .builder import InvariantSuite, _connecting_rational
from .poly import Record
from .rings import DEFAULT_BUDGET, Ring, check_budget

_MAX_WITNESS_PAIRS = 10
# at most this many smallest representatives are retained per fiber: the
# first fiber alone pairs its first with each of the next _MAX_WITNESS_PAIRS
_KEEP_REPS = _MAX_WITNESS_PAIRS + 1

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
    return _point(ring, [lead(range(head, head + 1))] + later, pos)


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


def _injective_on_first(entries) -> bool:
    """Whether some entry, as (support, terms), reads the first coordinate
    alone and is affine in it with a nonzero linear coefficient, and so
    takes a different value at every first coordinate.  A support [0]
    entry's terms have exponents (e,), some e > 0, and no zero coefficient."""
    return any(support == [0] and max(e for _, (e,) in terms) == 1
               for support, terms in entries)


def _scan_fibers(suite: InvariantSuite, ring: Ring, factors):
    """The fibers of the representatives of B: (their number, {first
    representative: representatives} of the _MAX_WITNESS_PAIRS fibers met
    more than once whose first representatives are smallest; each of them
    gives a witness pair, so no other fiber can give one).

    When _injective_on_first holds, as for every built suite's x1, no fiber
    spans two slabs, so the map from key to first representative holds one
    slab's fibers, counted and dropped before the next; otherwise it holds
    every fiber of the scan.

    Entries reading the first group's coordinates (x1, and x2_a when the
    first block is nontrivial: its values follow x1's) are tabulated per
    slab of first coordinates, the others once.  A key is one int, the
    entries' codes as digits in base q, and a representative is kept as its
    rank, the first coordinate's code times the representatives per first
    coordinate plus its position among them; ranks order like the points.
    A slab's keys go into the fibers at once when none repeats or was met
    before; otherwise one at a time.  Representatives are met in ascending
    order, so each fiber keeps its first _KEEP_REPS, sorted."""
    lead, later = factors
    q = ring.order
    entries = [_support_terms(e.polynomial, ring) for e in suite.entries]
    later_lists = [_distinct(column) for group in later for column in group]
    fixed = {}      # tables of entries that do not read the first coordinate
    per_first = _per_first(factors, q)
    per_slab = _injective_on_first(entries)
    count = 0       # fibers of the slabs already dropped
    seen = {}       # key -> its first representative
    shared = {}     # first representative -> the fiber's first _KEEP_REPS
    bound = math.inf    # the largest first representative kept in shared
    for slab in _slabs(range(q), per_first):
        if per_slab:
            count += len(seen)
            seen = {}
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
                if not support or support[0] >= len(groups[0]):
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
    return count + len(seen), shared


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
        return render_separation(self.to_json_dict())


def render_separation(data: dict) -> str:
    """The text report of a SeparationReport's to_json_dict()."""
    field = data["field"]
    name = f"F_{field['p']}" if field["k"] == 1 else f"F_{field['p']}^{field['k']}"
    lines = [f"p={data['spec']['p']} blocks={data['spec']['blocks']} field={name}"]
    lines += [f"  {key:<15}{data[key]}"
              for key in ("totalPoints", "pointsInB", "orbitCountInB", "fiberCount")]
    lines.append(f"  separated      {'yes' if data['separated'] else 'no'}")
    if data["witnessPairs"]:
        lines.append("  witnessPairs")
        lines += [f"    ({join_point(a)}) ~ ({join_point(b)})"
                  for a, b in data["witnessPairs"]]
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
    fiber_count, shared = _scan_fibers(suite, ring, factors)
    pairs = [pair for kept in sorted(shared.values())
             for pair in itertools.combinations(kept, 2)][:_MAX_WITNESS_PAIRS]
    return SeparationReport(
        spec=spec,
        ring=ring,
        total_points=ring.order ** spec.n,
        points_in_b=reps * spec.p if spec.m else reps,
        orbit_count_in_b=reps,
        fiber_count=fiber_count,
        separated=fiber_count == reps,
        witness_pairs=tuple((_decode(factors, ring, a), _decode(factors, ring, b))
                            for a, b in pairs),
    )


# ---------------------------------------------------------------------------
# Lifting and orbit census.


def verify_lifting(n: int, ring: Ring, budget: int = DEFAULT_BUDGET):
    """Check that the top connecting invariant of a size-n block is injective
    in the last coordinate once the leading coordinate is nonzero.

    This is the step that lets separating sets grow one variable at a time.
    Returns None, or a pair of points agreeing except in the last coordinate
    on which the invariant collides.  When one term of the invariant over
    ring reads x_n, linearly and beside no coordinate but x1, the invariant
    is c*x1^j*x_n + h(x1..x_{n-1}), a bijection of x_n wherever x1 != 0, and
    None is returned from the terms alone, as for every f_n; otherwise the
    invariant is tabulated.
    """
    if n < 3:
        raise ValueError("connecting invariants start at block size 3")
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if n > ring.characteristic:
        raise ValueError("block size exceeds p")
    check_budget(ring.order, n, budget)
    terms = _connecting_rational(n).polynomial.change_ring(ring).terms()
    reading = [exps for exps, _ in terms if exps[-1]]
    if len(reading) == 1 and reading[0][-1] == 1 and not any(reading[0][1:-1]):
        return None
    # the grid spans the whole block, so terms keep every exponent
    terms = [(ring.encode(c), exps) for exps, c in terms]
    q = ring.order
    for slab in _slabs(range(1, q), q ** (n - 1)):
        grid = [slab] + [range(q)] * (n - 1)
        values = _table(ring, terms, grid)
        for start in range(0, len(values), q):
            row = values[start:start + q]
            if len(set(row)) == q:
                continue
            seen = {}
            for last, val in enumerate(row):
                if val in seen:
                    groups = [[column] for column in grid]
                    return (_point(ring, groups, start + seen[val]),
                            _point(ring, groups, start + last))
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
    "SeparationReport", "fixed_point_census", "render_separation",
    "separation_report", "verify_lifting", "verify_orbit_constancy",
]
