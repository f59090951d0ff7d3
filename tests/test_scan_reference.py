"""Differential checks of the oracle's scans against brute-force references.

reference_scan is the separation scan as it was before representatives
were decided in closed form by separation._rep_factors: it walks the whole
orbit of every point of B and keeps the point only when it is the orbit's
minimum, inserting it into its fiber in sorted order.  The two must agree on every
report field, and the representatives _rep_factors lists must be exactly
those orbit minima, on every spec with q^n <= 5^5 for p in {2, 3, 5} and
k <= 2, with blocks in every order.

reference_constancy is the constancy check done pointwise: it compares
every entry at every point with its value at the point's image, where the
oracle decides on delta f = f o sigma - f and tabulates delta f only when
it is not the zero polynomial.  It must return the same result, None or
(entry, point), on every spec with q^n <= 5^4 and, for n <= 7, on every
suite with one entry bumped by one variable or by a quadratic that breaks
invariance away from the orbit's smallest point.  A bump by x_i^q - x_i
makes delta f nonzero but zero on F_q, so the entry holds; a bump by x_i^q
fails wherever x_{i-1} != 0.  Suites whose bumped entry reads another block,
or a coordinate beyond the ones before it, must give the same constancy
result and separation report as both references, and so must entries
bumped by sums of several terms with coefficients outside F_p, over
F_{p^k} with p odd.

The scan puts a slab's fiber keys in at once when none repeats or was met
before, and one at a time otherwise; suites whose fibers are met again only
in later slabs run both ways and must match reference_scan.  It drops each
slab's fibers once counted when an entry is affine in the first coordinate
alone: every library suite, with one first coordinate per slab, must give
the report it gives in one slab, and suites whose first entry is x1^2 or
x1^p must keep one map and match reference_scan, as must c*x1 + d.  An
entry that reads x2 but not x1 must match it too, with one first
coordinate per slab, although the values x2 takes among representatives
over F_{p^k} change with x1.

reference_lifting is the lifting check as it was before value tables: it
evaluates the top connecting invariant along the last coordinate, prefix by
prefix.  The oracle certifies f_n on its terms, building no table; for
every block size 3 <= n <= p <= 7 over F_p and n = 3 over F_9,
reference_lifting must find no collision either, and neither must the
oracle's value tables of f_n, row by row along the last coordinate.
"""

import itertools
import random
from bisect import insort

import pytest

from modinv.action import RepresentationSpec, act_raw, delta, in_b_raw, orbit_raw
from modinv import oracle, separation
from modinv.builder import build_suite
from modinv.oracle import separation_report, verify_lifting, verify_orbit_constancy
from modinv.poly import Polynomial
from modinv.rings import GF

KEEP_REPS = 11
MAX_WITNESS_PAIRS = 10


def reference_scan(suite, ring):
    """(pointsInB, orbitCountInB, fiberCount, witnessPairs, B-orbit minima)."""
    blocks = suite.spec.blocks
    polys = [e.polynomial for e in suite.entries]
    points_in_b = 0
    minima = []
    fibers = {}
    for coords in itertools.product(ring.elements(), repeat=suite.spec.n):
        if not in_b_raw(blocks, ring, coords):
            continue
        points_in_b += 1
        if min(orbit_raw(blocks, ring, coords)) != coords:
            continue  # another orbit point owns this orbit
        minima.append(coords)
        key = tuple(f.evaluate_raw(coords, ring) for f in polys)
        slot = fibers.setdefault(key, [0, []])
        slot[0] += 1
        insort(slot[1], coords)
        del slot[1][KEEP_REPS:]
    pairs = []
    for count, reps in sorted(fibers.values(), key=lambda slot: slot[1][0]):
        if count > 1:
            pairs.extend(itertools.combinations(reps, 2))
    orbit_count = sum(count for count, _ in fibers.values())
    return (points_in_b, orbit_count, len(fibers),
            tuple(pairs[:MAX_WITNESS_PAIRS]), minima)


def listed_representatives(blocks, field):
    """Every point separation._rep_factors lists, in the order of their ranks."""
    q = field.order
    factors = separation._rep_factors(blocks, field.p, q)
    lead, _ = factors
    per_first = separation._per_first(factors, q)
    return [separation._decode(factors, field, u * per_first + r)
            for u in range(q) if lead(range(u, u + 1))[0]
            for r in range(per_first)]


def compositions(n, largest):
    """Block lists of total size n with every block in 1..largest."""
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, largest) + 1):
        for rest in compositions(n - first, largest):
            yield (first,) + rest


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_scan_matches_reference_on_all_small_specs(monkeypatch, p, k):
    field = GF(p, k)
    n = 1
    while field.order ** n <= 5 ** 5:
        for blocks in compositions(n, p):
            suite = build_suite(RepresentationSpec(p, blocks), "fp")
            report = separation_report(suite, field)
            *expected, minima = reference_scan(suite, field)
            assert (report.points_in_b, report.orbit_count_in_b,
                    report.fiber_count, report.witness_pairs) == tuple(expected), blocks
            assert report.separated == (expected[1] == expected[2])
            assert listed_representatives(blocks, field) == minima, blocks
            # one first coordinate per slab, each slab's fibers dropped
            # before the next
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_SLAB_POINTS", 1)
                assert separation_report(suite, field) == report, blocks
        n += 1


def first_entry_replaced(suite, field, make):
    """The suite with its first entry, x1, replaced by make(x1) over field."""
    entries = list(suite.entries)
    entries[0] = entries[0]._replace(
        polynomial=make(Polynomial.variable(field, suite.spec.table, 0)))
    return suite._replace(entries=tuple(entries))


def injective_on_first(suite, field):
    return separation._injective_on_first(
        [oracle._support_terms(e.polynomial, field) for e in suite.entries])


@pytest.mark.parametrize("p,k,blocks", [(5, 1, (2,)), (5, 1, (1, 2)), (7, 1, (2,)),
                                        (7, 1, (1, 2)), (3, 2, (2,)), (3, 2, (1, 2))])
def test_non_affine_first_entry_keeps_one_fiber_map(monkeypatch, p, k, blocks):
    # x1^2 takes one value at x1 and -x1, so over F_p fibers span slabs;
    # x1^p over F_9 is injective but not affine, and the rule looks no
    # further than affine
    monkeypatch.setattr(oracle, "_SLAB_POINTS", 1)
    field = GF(p, k)
    suite = first_entry_replaced(build_suite(RepresentationSpec(p, blocks), "fp"),
                                 field, lambda x: x ** (2 if k == 1 else p))
    assert not injective_on_first(suite, field)
    report = separation_report(suite, field)
    *expected, _ = reference_scan(suite, field)
    assert (report.points_in_b, report.orbit_count_in_b,
            report.fiber_count, report.witness_pairs) == tuple(expected)
    if k == 1:      # the first witness pair spans two slabs
        a, b = report.witness_pairs[0]
        assert a[0] != b[0]


@pytest.mark.parametrize("p,k,blocks", [(5, 1, (2,)), (5, 1, (2, 2)), (7, 1, (1, 2)),
                                        (3, 2, (2,)), (3, 2, (1, 2))])
def test_affine_first_entry_drops_each_slab(monkeypatch, p, k, blocks):
    # c*x1 + d with c not in {0, 1}: over F_9, c and d lie outside F_3
    monkeypatch.setattr(oracle, "_SLAB_POINTS", 1)
    field = GF(p, k)
    c, d = field.elements()[4], field.elements()[-1]
    suite = first_entry_replaced(
        build_suite(RepresentationSpec(p, blocks), "fp"), field,
        lambda x: x * Polynomial.constant(field, x.table, c)
        + Polynomial.constant(field, x.table, d))
    assert injective_on_first(suite, field)
    report = separation_report(suite, field)
    *expected, _ = reference_scan(suite, field)
    assert (report.points_in_b, report.orbit_count_in_b,
            report.fiber_count, report.witness_pairs) == tuple(expected)


# F_2 at n = 8, 9 alone would add 6631 bumped suites and about a minute
DOCTORED_MAX_N = 7


def reference_constancy(suite, ring):
    blocks = suite.spec.blocks
    polys = [e.polynomial.change_ring(ring) for e in suite.entries]
    for coords in itertools.product(ring.elements(), repeat=suite.spec.n):
        moved = act_raw(blocks, ring, coords)
        for entry, f in zip(suite.entries, polys):
            if f.evaluate_raw(coords, ring) != f.evaluate_raw(moved, ring):
                return entry.name, coords
    return None


def bumped_suites(suite):
    """Every suite with one entry f replaced by f + x_i, or by
    f + x_i*(x_i - x_{i-1}) where x_{i-1} precedes x_i in its block and p
    is odd: that bump changes by 2*x_{i-1}*x_i, so it can hold at an orbit's
    smallest point and fail further along."""
    table = suite.spec.table
    ring = suite.entries[0].polynomial.ring
    bumps = []
    for i in range(table.n):
        x = Polynomial.variable(ring, table, i)
        bumps.append(x)
        if table.positions[i][1] > 1 and suite.spec.p > 2:
            bumps.append(x * (x - Polynomial.variable(ring, table, i - 1)))
    for index, entry in enumerate(suite.entries):
        for g in bumps:
            entries = list(suite.entries)
            entries[index] = entry._replace(polynomial=entry.polynomial + g)
            yield suite._replace(entries=tuple(entries))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_constancy_matches_reference_on_all_small_specs(p, k):
    field = GF(p, k)
    n = 1
    while field.order ** n <= 5 ** 4:
        for blocks in compositions(n, p):
            suite = build_suite(RepresentationSpec(p, blocks), "fp")
            assert verify_orbit_constancy(suite, field) is None, blocks
            assert reference_constancy(suite, field) is None, blocks
            if n > DOCTORED_MAX_N:
                continue
            for doctored in bumped_suites(suite):
                assert (verify_orbit_constancy(doctored, field)
                        == reference_constancy(doctored, field)), blocks
        n += 1


@pytest.mark.parametrize("p,k,blocks", [(3, 1, (3,)), (5, 1, (2, 2)), (3, 2, (3,)),
                                        (2, 2, (1, 2))])
def test_constancy_tabulates_nonzero_delta(p, k, blocks):
    # delta(x_i^q - x_i) = x_{i-1}^q - x_{i-1} is a nonzero polynomial that
    # vanishes on F_q, so the bumped entry still holds; delta(x_i^q) =
    # x_{i-1}^q, which fails wherever x_{i-1} != 0
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    table = suite.spec.table
    q = field.order
    for i in range(table.n):
        if table.positions[i][1] == 1:
            continue
        for index, entry in enumerate(suite.entries):
            x = Polynomial.variable(entry.polynomial.ring, table, i)
            for bump, holds in ((x ** q - x, True), (x ** q, False)):
                entries = list(suite.entries)
                entries[index] = entry._replace(polynomial=entry.polynomial + bump)
                doctored = suite._replace(entries=tuple(entries))
                witness = verify_orbit_constancy(doctored, field)
                if holds:
                    assert witness is None, (i, entry.name)
                    assert not delta(entries[index].polynomial.change_ring(field)).is_zero
                else:
                    assert witness is not None
                    assert witness == reference_constancy(doctored, field), (i, entry.name)


@pytest.mark.parametrize("p,k,blocks", [(3, 2, (2,)), (3, 2, (3,)), (2, 2, (2, 2)),
                                        (2, 3, (2,)), (5, 1, (2,))])
def test_entry_reading_second_coordinate_alone(monkeypatch, p, k, blocks):
    # x1 and x2^2 + x2: the second entry does not read x1, but over F_{p^k}
    # the values x2 takes among representatives change with x1, so its
    # table must be built again in every slab
    monkeypatch.setattr(oracle, "_SLAB_POINTS", 1)
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    x2 = Polynomial.variable(field, suite.spec.table, 1)
    first = suite.entries[0]
    doctored = suite._replace(entries=(
        first, first._replace(name="g", polynomial=x2 * x2 + x2)))
    report = separation_report(doctored, field)
    *expected, _ = reference_scan(doctored, field)
    assert (report.points_in_b, report.orbit_count_in_b,
            report.fiber_count, report.witness_pairs) == tuple(expected)


def indicator(field, table, point):
    """The polynomial that is 1 at point and 0 elsewhere."""
    one = Polynomial.constant(field, table, field.one())
    out = one
    for i, c in enumerate(point):
        x = Polynomial.variable(field, table, i) - Polynomial.constant(field, table, c)
        out = out * (one - x ** (field.order - 1))
    return out


@pytest.mark.parametrize("p,k,blocks", [(3, 1, (3,)), (5, 1, (2,)), (2, 2, (2,))])
def test_constancy_witness_is_smallest_over_all_orbits(p, k, blocks):
    # f1 + 1_u breaks invariance at u and at the point before it on its
    # orbit, the last entry + 1_w likewise at w: over all pairs the smallest
    # violating point often lies on an orbit after the first one that fails
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    table = suite.spec.table
    first, last = suite.entries[0], suite.entries[-1]
    points = list(itertools.product(field.elements(), repeat=table.n))
    bumps = {u: indicator(field, table, u) for u in points}
    for u, w in itertools.product(points, repeat=2):
        entries = list(suite.entries)
        entries[0] = first._replace(
            polynomial=first.polynomial.change_ring(field) + bumps[u])
        entries[-1] = last._replace(
            polynomial=last.polynomial.change_ring(field) + bumps[w])
        doctored = suite._replace(entries=tuple(entries))
        assert (verify_orbit_constancy(doctored, field)
                == reference_constancy(doctored, field)), (u, w)


def reference_lifting(f, ring):
    """The lifting check as it was before value tables: for each prefix
    with a nonzero first coordinate, evaluate f along the last coordinate
    until a value repeats."""
    n = f.table.n
    zero = ring.zero()
    for prefix in itertools.product(ring.elements(), repeat=n - 1):
        if prefix[0] == zero:
            continue
        seen = {}
        for last in ring.elements():
            val = f.evaluate_raw(prefix + (last,), ring)
            if val in seen:
                return prefix + (seen[val],), prefix + (last,)
            seen[val] = last
    return None


LIFTING_SPECS = [(p, 1, n) for p in (3, 5, 7) for n in range(3, p + 1)] + [(3, 2, 3)]


@pytest.mark.parametrize("p,k,n", LIFTING_SPECS)
def test_lifting_matches_reference(p, k, n):
    field = GF(p, k)
    assert verify_lifting(n, field) is None
    f = oracle._connecting_rational(n).polynomial
    assert reference_lifting(f.change_ring(field), field) is None


def refuse(*args, **kwargs):
    raise AssertionError("verify_lifting tabulated")


@pytest.mark.parametrize("p,k,n", LIFTING_SPECS)
def test_lifting_term_scan_matches_tabulation(monkeypatch, p, k, n):
    field = GF(p, k)
    for name in ("_table", "_slabs", "_point"):
        monkeypatch.setattr(oracle, name, refuse)
    monkeypatch.setattr(Polynomial, "change_ring", refuse)
    assert verify_lifting(n, field) is None
    monkeypatch.undo()
    # every row along x_n with x1 != 0 holds q distinct values
    q = field.order
    f = oracle._connecting_rational(n).polynomial.change_ring(field)
    terms = [(field.encode(c), exps) for exps, c in f.terms()]
    values = oracle._table(field, terms, [range(1, q)] + [range(q)] * (n - 1))
    assert all(len(set(values[i:i + q])) == q for i in range(0, len(values), q))


def cross_bumps(suite):
    """Every suite with one entry f replaced by f + x_i*x_j, where x_i and
    x_j lie in different blocks or x_j is at least two places after x_i in
    its block: the entry then reads another block, or a coordinate beyond
    the ones before it."""
    table = suite.spec.table
    ring = suite.entries[0].polynomial.ring
    x = [Polynomial.variable(ring, table, i) for i in range(table.n)]
    pairs = [(i, j) for i in range(table.n) for j in range(i + 1, table.n)
             if table.positions[i][0] != table.positions[j][0] or j >= i + 2]
    for index, entry in enumerate(suite.entries):
        for i, j in pairs:
            entries = list(suite.entries)
            entries[index] = entry._replace(polynomial=entry.polynomial + x[i] * x[j])
            yield suite._replace(entries=tuple(entries))


CROSS_SPECS = [(5, 1, (2, 2)), (3, 1, (3, 2)), (3, 1, (2, 3)), (3, 1, (1, 3, 1)),
               (5, 1, (4,)), (3, 1, (3, 3)), (2, 2, (2, 2)), (2, 2, (2, 1, 2)),
               (2, 2, (1, 2)), (3, 2, (2, 2))]


@pytest.mark.parametrize("p,k,blocks", CROSS_SPECS)
def test_cross_reading_suites_match_reference(p, k, blocks):
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    failures = 0
    for doctored in cross_bumps(suite):
        witness = verify_orbit_constancy(doctored, field)
        assert witness == reference_constancy(doctored, field), blocks
        failures += witness is not None
        report = separation_report(doctored, field)
        *expected, _ = reference_scan(doctored, field)
        assert (report.points_in_b, report.orbit_count_in_b,
                report.fiber_count, report.witness_pairs) == tuple(expected), blocks
    assert failures


@pytest.mark.parametrize("p,k,blocks", [(5, 1, (2, 2)), (3, 1, (1, 2, 2)), (2, 2, (2, 2)),
                                        (3, 2, (1, 2)), (3, 1, (1, 2)), (5, 1, (1, 2))])
def test_fibers_shared_across_first_coordinates(p, k, blocks):
    # without the first entry, points with different first coordinates
    # share fibers, so a fiber's representatives span several slabs of
    # first coordinates
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    suite = suite._replace(entries=suite.entries[1:])
    *expected, _ = reference_scan(suite, field)
    report = separation_report(suite, field)
    assert (report.points_in_b, report.orbit_count_in_b,
            report.fiber_count, report.witness_pairs) == tuple(expected)


def slab_kinds(suite, ring):
    """For each slab of the scan, in order, whether its keys go in at once
    ("bulk": none repeats or was met before) or one at a time, decided
    from the reference's representatives and values."""
    *_, minima = reference_scan(suite, ring)
    per_first = len(minima) // len({point[0] for point in minima})
    step = max(1, oracle._SLAB_POINTS // per_first)
    slabs = {}
    for point in minima:
        key = tuple(e.polynomial.evaluate_raw(point, ring) for e in suite.entries)
        slabs.setdefault(ring.encode(point[0]) // step, []).append(key)
    seen, kinds = set(), []
    for _, keys in sorted(slabs.items()):
        fresh = len(set(keys)) == len(keys) and seen.isdisjoint(keys)
        kinds.append("bulk" if fresh else "fallback")
        seen.update(keys)
    return kinds


@pytest.mark.parametrize("p,k,blocks", [(5, 1, (2,)), (7, 1, (2,)), (5, 1, (1, 2)),
                                        (2, 2, (2,)), (2, 2, (1, 2)), (3, 2, (2,)),
                                        (5, 2, (2,))])
def test_bulk_and_fallback_slabs_match_reference(monkeypatch, p, k, blocks):
    # one first coordinate per slab; without its first entry the suite is
    # injective on the representatives with one first coordinate but not
    # across them, so the first slab goes in at once and every later one
    # meets fibers of earlier slabs
    monkeypatch.setattr(oracle, "_SLAB_POINTS", 1)
    field = GF(p, k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    doctored = suite._replace(entries=suite.entries[1:])
    kinds = slab_kinds(doctored, field)
    assert kinds[0] == "bulk" and kinds[1:] and set(kinds[1:]) == {"fallback"}
    for checked in (doctored, suite):
        report = separation_report(checked, field)
        *expected, _ = reference_scan(checked, field)
        assert (report.points_in_b, report.orbit_count_in_b,
                report.fiber_count, report.witness_pairs) == tuple(expected)
    # the first witness pair spans two slabs
    a, b = separation_report(doctored, field).witness_pairs[0]
    assert a[0] != b[0]


@pytest.mark.parametrize("p,k,blocks", [(3, 2, (3,)), (3, 3, (2,)), (5, 2, (2,)),
                                        (7, 2, (2,)), (3, 2, (1, 2))])
def test_constancy_of_multi_term_entries_over_extension_fields(p, k, blocks):
    # several terms with coefficients outside F_p: table values are sums
    # through Zech logarithms, some of them cancelling; a bump in the
    # first coordinate alone keeps the suite invariant
    field = GF(p, k)
    rng = random.Random(p ** k)
    suite = build_suite(RepresentationSpec(p, blocks), "fp")
    table = suite.spec.table
    x = [Polynomial.variable(field, table, i) for i in range(table.n)]

    def coefficient():
        return Polynomial.constant(field, table, rng.choice(field.elements()[1:]))

    results = []
    for trial in range(8):
        i, j = rng.randrange(table.n), rng.randrange(table.n)
        if trial % 4 == 0:
            i = j = 0
        bump = (coefficient() * x[i] ** rng.randint(1, p + 1)
                + coefficient() * x[i] * x[j] + coefficient())
        index = rng.randrange(len(suite.entries))
        entries = list(suite.entries)
        entries[index] = entries[index]._replace(
            polynomial=entries[index].polynomial.change_ring(field) + bump)
        doctored = suite._replace(entries=tuple(entries))
        witness = verify_orbit_constancy(doctored, field)
        assert witness == reference_constancy(doctored, field), (trial, bump)
        results.append(witness is None)
    assert True in results and False in results
