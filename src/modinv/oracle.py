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

Value tables.  Each entry is evaluated once per point of a product of value
lists over its support, in row-major order: its terms are split by the
exponent of the last coordinate and the coefficients are tabulated over the
earlier coordinates the same way (Ring.extend_table does the univariate
step).  Tables are built one slab of first coordinates at a time, so memory
stays near q^(n-1) values; the action fixes the first coordinate.

- Constancy compares each table value at v with the one at sigma v, reached
  by index arithmetic.  An entry's smallest violating point is its smallest
  violating sub-point padded with zeros; the witness is the least of these,
  named by the first entry that differs there.
- Separation enumerates only the representatives of the orbits in B, |B|/p
  of them when some block is nontrivial (see _rep_factors), and looks each
  fiber key up in the entries' tables; pointsInB is p times their number.
  The scan runs in this process whatever worker count is asked for: a
  forked worker would ship every fiber it meets back to be merged, which
  costs about as much as scanning its representatives here.  The scan
  makes no reference cycles, so it runs with the cyclic garbage collector
  paused.
- Lifting checks that every row of f_n's table over the last coordinate
  holds q distinct values.

Every entry point checks q^n, the size of the whole space, against an
explicit budget before starting.
"""

import itertools
import operator
import os
from dataclasses import dataclass
from math import prod

from .action import RepresentationSpec, act_raw, in_b_raw, render_point
from .builder import InvariantSuite, _connecting_rational
from .rings import Ring, gc_paused


class BudgetExceeded(Exception):
    """The requested enumeration is larger than the configured budget."""


class OrbitConstancyError(Exception):
    """A suite entry changed along an orbit (it is not invariant)."""


DEFAULT_BUDGET = 10_000_000

# at most this many smallest representatives are retained per fiber
_KEEP_REPS = 11
_MAX_WITNESS_PAIRS = 10

# value tables are built over runs of first coordinates of at least this
# many points (or over a single first coordinate, when that is larger)
_SLAB_POINTS = 1 << 12


def _check_budget(q: int, n: int, budget: int):
    if q ** n > budget:
        raise BudgetExceeded(f"{q}^{n} points exceed budget {budget}")


def _check_field(spec: RepresentationSpec, ring: Ring):
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if getattr(ring, "p", None) != spec.p:
        raise ValueError(f"field characteristic must be {spec.p}")


def resolve_workers(workers=None) -> int:
    """Worker count asked for: explicit argument, else MODINV_THREADS, else
    1; a MODINV_THREADS that is not an integer raises ValueError.  The
    separation scan checks the count but runs in-process at any count."""
    if workers is None:
        raw = os.environ.get("MODINV_THREADS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"MODINV_THREADS must be an integer, got {raw!r}")
    return max(1, workers)


# ---------------------------------------------------------------------------
# Value tables.


def _support_terms(f, ring: Ring):
    """(support, terms) of a polynomial: the flat indices of the coordinates
    up to the last one it reads in each block, and its terms over ring as
    (coeff, exponents on the support).

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
    return support, [(c, tuple(exps[i] for i in support)) for exps, c in terms]


def _table(ring: Ring, terms, lists) -> list:
    """Values of sum c * prod s_i^e_i over (c, (e_1..e_d)) in terms at every
    point of the product of the d value lists, in row-major order.

    Terms are split by their exponent in the last coordinate and each
    split's coefficient is tabulated over the earlier coordinates the same
    way, so a point costs one univariate step in its last coordinate."""
    if not lists:
        acc = ring.zero()
        for c, _ in terms:
            acc = ring.add(acc, c)
        return [acc]
    if not terms:
        return [ring.zero()] * prod(len(values) for values in lists)
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


def _unrank(elements, index: int, count: int) -> tuple:
    """The point at a row-major index of elements^count."""
    q = len(elements)
    out = []
    for _ in range(count):
        index, r = divmod(index, q)
        out.append(elements[r])
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Orbit constancy.


def _shift(p: int, value) -> list:
    """The index permutation x -> index of (x-th element + value), for field
    elements listed in row-major order of their residues."""
    perm = [0]
    for r in (value if isinstance(value, tuple) else (value,)):
        rotated = list(range(r, p)) + list(range(r))
        perm = [b * p + y for b in perm for y in rotated]
    return perm


def _sigma_index(positions, support, elements, p, slab) -> list:
    """Row-major index of sigma v for every v of a support grid whose first
    coordinate runs over slab (the action fixes it).  A coordinate that is
    not first in its block moves by its predecessor, the one before it in
    the support, so its moves repeat with the predecessor's value."""
    q = len(elements)
    index = list(range(len(slab)))
    for j in range(1, len(support)):
        if positions[support[j]][1] == 1:
            moves = list(range(q))
        else:
            moves = [y for v in (slab if j == 1 else elements) for y in _shift(p, v)]
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
    differs there.
    """
    spec = suite.spec
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
    positions = spec.table.positions
    elements = ring.elements()
    witnesses = []
    for entry in suite.entries:
        support, terms = _support_terms(entry.polynomial, ring)
        if all(positions[i][1] == 1 for i in support):
            continue        # the action fixes every coordinate it reads
        rest = [elements] * (len(support) - 1)
        per_first = len(elements) ** len(rest)
        for slab in _slabs(elements, per_first):
            values = _table(ring, terms, [slab] + rest)
            index = _sigma_index(positions, support, elements, ring.p, slab)
            if [values[i] for i in index] == values:
                continue
            at = next(u for u, i in enumerate(index) if values[u] != values[i])
            head, tail = divmod(at, per_first)
            point = [ring.zero()] * spec.n
            sub = (slab[head],) + _unrank(elements, tail, len(rest))
            for i, c in zip(support, sub):
                point[i] = c
            witnesses.append(tuple(point))
            break
    if not witnesses:
        return None
    point = min(witnesses)
    moved = act_raw(spec.blocks, ring, point)
    entry = next(e for e in suite.entries
                 if e.polynomial.evaluate_raw(point, ring)
                 != e.polynomial.evaluate_raw(moved, ring))
    return entry.name, point


def require_orbit_constancy(suite: InvariantSuite, ring: Ring,
                            budget: int = DEFAULT_BUDGET):
    witness = verify_orbit_constancy(suite, ring, budget)
    if witness is not None:
        name, coords = witness
        raise OrbitConstancyError(
            f"{name} varies on the orbit of ({render_point(ring, coords)})")


# ---------------------------------------------------------------------------
# Separation.


def _rep_factors(blocks, ring: Ring, elements):
    """The representatives of the orbits in B as a product of consecutive
    coordinate groups, each with its allowed value tuples in ascending
    order: (first coordinate -> the first group's tuples starting with it,
    the later groups).

    In B every nontrivial block has a nonzero first coordinate, and in the
    first one, a, the representative is the orbit point whose x2_a has
    residue 0 where x1_a has its first nonzero residue (x2_a == 0 over F_p);
    see action.is_orbit_rep_raw.  Without nontrivial blocks every point is
    fixed and represents itself."""
    p, k = ring.p, getattr(ring, "k", 1)
    zero = elements[0]

    def pairs(u):       # (x1_a, x2_a) of representatives with x1_a = u
        r = next(i for i, c in enumerate(u if k > 1 else (u,)) if c)
        ws = itertools.product(*[(0,) if i == r else range(p) for i in range(k)])
        return [(u, w if k > 1 else w[0]) for w in ws]

    free = [(x,) for x in elements]
    if blocks[0] == 1:
        def first_group(first):
            return [(first,)]
        later, lead_seen = [], False
    else:
        def first_group(first):
            return [] if first == zero else pairs(first)
        later, lead_seen = [free] * (blocks[0] - 2), True
    for size in blocks[1:]:
        if size == 1:
            later.append(free)
        elif lead_seen:
            later.append(free[1:])
            later.extend([free] * (size - 1))
        else:
            later.append([t for u in elements[1:] for t in pairs(u)])
            later.extend([free] * (size - 2))
            lead_seen = True
    return first_group, later


def _per_first(factors, elements) -> int:
    """Representatives per nonzero first coordinate (all have as many)."""
    first_group, later = factors
    return len(first_group(elements[-1])) * prod(map(len, later))


def _decode(factors, elements, rep: int) -> tuple:
    """Coordinates of a representative kept as its rank (see _scan_fibers)."""
    first_group, later = factors
    head, pos = divmod(rep, _per_first(factors, elements))
    parts = []
    for tuples in reversed([first_group(elements[head])] + later):
        pos, r = divmod(pos, len(tuples))
        parts.append(tuples[r])
    return tuple(c for t in reversed(parts) for c in t)


def _lookup(groups, support, lists) -> list:
    """Row-major index into a table over the support's value lists for each
    point of the product of the coordinate groups, in enumeration order."""
    read = {}
    size = 1
    for i, values in zip(reversed(support), reversed(lists)):
        read[i] = (size, {v: r for r, v in enumerate(values)})
        size *= len(values)
    index = [0]
    coord = 0
    for tuples in groups:
        width = len(tuples[0])
        used = [(j, *read[coord + j]) for j in range(width) if coord + j in read]
        coord += width
        if used:
            offsets = [0] * len(tuples)
            for j, stride, rank in used:
                offsets = [o + rank[t[j]] * stride for o, t in zip(offsets, tuples)]
            index = [b + o for b in index for o in offsets]
        else:
            index = [b for b in index for _ in tuples]
    return index


def _scan_fibers(suite: InvariantSuite, ring: Ring, elements, factors):
    """The fibers of the representatives of B: ({key: first representative},
    {key: representatives} of the keys met more than once).

    Entries reading the first coordinate are tabulated per slab of first
    coordinates, the others once.  F_{p^k} values enter keys as their
    ranks in elements(), and a representative is kept as its rank, the
    first coordinate's rank times the representatives per first coordinate
    plus its position among them; both order like what they stand for.
    Representatives are met in ascending order, so each fiber keeps its
    first _KEEP_REPS, sorted."""
    first_group, later = factors
    rank = dict(zip(elements, range(len(elements))))
    entries = [_support_terms(e.polynomial, ring) for e in suite.entries]
    later_lists = []
    for tuples in later:
        later_lists.extend(list(dict.fromkeys(column)) for column in zip(*tuples))
    fixed = {}      # tables of entries that do not read the first coordinate
    later_size = prod(map(len, later))
    per_first = _per_first(factors, elements)
    seen = {}       # key -> its first representative
    shared = {}     # key -> first _KEEP_REPS reps of keys met more than once
    for slab in _slabs(range(len(elements)), per_first):
        starts = [(r, first_group(elements[r])) for r in slab]
        lead = [t for _, tuples in starts for t in tuples]
        heads = [r * per_first + i * later_size
                 for r, tuples in starts for i in range(len(tuples))]
        if not lead:
            continue    # no point of B starts here
        groups = [lead] + later
        lists = [list(dict.fromkeys(column)) for column in zip(*lead)] + later_lists
        columns = []
        for j, (support, terms) in enumerate(entries):
            grid = [lists[i] for i in support]
            table = fixed.get(j)
            if table is None:
                table = _table(ring, terms, grid)
                if isinstance(table[0], tuple):
                    table = [rank[v] for v in table]
                if not support or support[0] != 0:
                    fixed[j] = table
            columns.append([table[i] for i in _lookup(groups, support, grid)])
        for pos, key in enumerate(zip(*columns)):
            if key not in seen:
                seen[key] = heads[pos // later_size] + pos % later_size
                continue
            kept = shared.get(key)
            if kept is None:
                kept = shared[key] = [seen[key]]
            if len(kept) < _KEEP_REPS:
                kept.append(heads[pos // later_size] + pos % later_size)
    return seen, shared


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of one exhaustive separation check."""

    spec: RepresentationSpec
    ring: Ring
    total_points: int
    points_in_b: int
    orbit_count_in_b: int
    fiber_count: int
    separated: bool
    witness_pairs: tuple    # pairs of raw coordinate tuples, canonical order

    def _coord_texts(self, coords):
        return [self.ring.render(c) for c in coords]

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
            "witnessPairs": [[self._coord_texts(a), self._coord_texts(b)]
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
                      budget: int = DEFAULT_BUDGET,
                      workers=None) -> SeparationReport:
    """Exhaustively compare invariant fibers with orbits inside B.

    The suite separates B exactly when distinct orbits give distinct value
    tuples, i.e. fiberCount == orbitCountInB.  Witness pairs list up to ten
    pairs of distinct orbit representatives sharing a fiber, ordered by the
    fiber's smallest representative and then lexicographically.  workers
    is checked by resolve_workers; the report does not depend on it.
    """
    spec = suite.spec
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
    resolve_workers(workers)
    firsts = ring.elements()
    factors = _rep_factors(spec.blocks, ring, firsts)
    # with a nontrivial first block, no representative has first coordinate 0
    reps = _per_first(factors, firsts) * (len(firsts) - (spec.blocks[0] > 1))
    with gc_paused():
        seen, shared = _scan_fibers(suite, ring, firsts, factors)
    fiber_count = len(seen)
    pairs = []
    for kept in sorted(shared.values()):
        for a, b in itertools.combinations(kept, 2):
            pairs.append((_decode(factors, firsts, a), _decode(factors, firsts, b)))
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
    _check_budget(ring.order, n, budget)
    f = _connecting_rational(n).polynomial.change_ring(ring)
    terms = [(c, exps) for exps, c in f.terms()]
    elements = ring.elements()
    q = len(elements)
    rest = [elements] * (n - 1)
    rows = q ** (n - 2)     # per first coordinate
    for slab in _slabs(elements[1:], rows * q):
        values = _table(ring, terms, [slab] + rest)
        for start in range(0, len(values), q):
            row = values[start:start + q]
            if len(set(row)) == q:
                continue
            head, tail = divmod(start // q, rows)
            prefix = (slab[head],) + _unrank(elements, tail, n - 2)
            seen = {}
            for last, val in zip(elements, row):
                if val in seen:
                    return prefix + (seen[val],), prefix + (last,)
                seen[val] = last
    return None


def fixed_point_census(spec: RepresentationSpec, ring: Ring,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Brute-force orbit census; orbits have length 1 (fixed) or p."""
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
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
    "BudgetExceeded", "DEFAULT_BUDGET", "OrbitConstancyError",
    "SeparationReport", "fixed_point_census", "require_orbit_constancy",
    "resolve_workers", "separation_report", "verify_lifting",
    "verify_orbit_constancy",
]
