"""Differential checks of the oracle's scans against brute-force references.

reference_scan is the separation scan as it was before representatives were
decided by action.is_orbit_rep_raw: it walks the whole orbit of every point
of B and keeps the point only when it is the orbit's minimum, inserting it
into its fiber in sorted order.  The two must agree on every report field on
every spec with q^n <= 5^5 for p in {2, 3, 5} and k <= 2, with blocks in
every order.

reference_constancy is the constancy check as it was before each orbit was
walked once: it compares every entry at every point with its value at the
point's image.  It must return the same result, None or (entry, point), on
every spec with q^n <= 5^4 and, for n <= 7, on every suite with one entry
bumped by one variable or by a quadratic that breaks invariance away from
the orbit's smallest point.
"""

import dataclasses
import itertools
from bisect import insort

import pytest

from modinv.action import (RepresentationSpec, act_raw, in_b_raw,
                           is_orbit_rep_raw, orbit_raw)
from modinv.builder import build_suite
from modinv.oracle import separation_report, verify_orbit_constancy
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


def compositions(n, largest):
    """Block lists of total size n with every block in 1..largest."""
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, largest) + 1):
        for rest in compositions(n - first, largest):
            yield (first,) + rest


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_scan_matches_reference_on_all_small_specs(p, k):
    field = GF(p, k)
    n = 1
    while field.order ** n <= 5 ** 5:
        for blocks in compositions(n, p):
            suite = build_suite(RepresentationSpec(p, blocks), "fp")
            report = separation_report(suite, field, workers=1)
            *expected, minima = reference_scan(suite, field)
            assert (report.points_in_b, report.orbit_count_in_b,
                    report.fiber_count, report.witness_pairs) == tuple(expected), blocks
            assert report.separated == (expected[1] == expected[2])
            # the closed form picks exactly the orbit minima of B
            closed = [c for c in itertools.product(field.elements(), repeat=n)
                      if in_b_raw(blocks, field, c) and is_orbit_rep_raw(blocks, c)]
            assert closed == minima, blocks
        n += 1


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
            entries[index] = dataclasses.replace(entry, polynomial=entry.polynomial + g)
            yield dataclasses.replace(suite, entries=tuple(entries))


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
        entries[0] = dataclasses.replace(
            first, polynomial=first.polynomial.change_ring(field) + bumps[u])
        entries[-1] = dataclasses.replace(
            last, polynomial=last.polynomial.change_ring(field) + bumps[w])
        doctored = dataclasses.replace(suite, entries=tuple(entries))
        assert (verify_orbit_constancy(doctored, field)
                == reference_constancy(doctored, field)), (u, w)
