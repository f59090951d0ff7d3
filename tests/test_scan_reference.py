"""Differential check of the separation scan against a brute-force reference.

reference_scan is the scan as it was before representatives were decided by
action.is_orbit_rep_raw: it walks the whole orbit of every point of B and
keeps the point only when it is the orbit's minimum, inserting it into its
fiber in sorted order.  The two must agree on every report field on every
spec with q^n <= 5^5 for p in {2, 3, 5} and k <= 2, with blocks in every
order.
"""

import itertools
from bisect import insort

import pytest

from modinv.action import (RepresentationSpec, in_b_raw, is_orbit_rep_raw,
                           orbit_raw)
from modinv.builder import build_suite
from modinv.oracle import separation_report
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
