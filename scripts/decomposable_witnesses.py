#!/usr/bin/env python3
"""Why two size-2 blocks defeat the blockwise suite, and what repairs it.

For p=5, blocks [2,2], the blockwise invariants (x1_1, N(x1_2), x2_1,
N(x2_2)) are constant on orbits but collapse distinct orbits: both norms
vanish identically on B, so the fibers only see the two fixed leading
coordinates.  This script prints the failing report with its witness pairs,
adjudicates the first pair by hand, then adds the cross-block invariant

    D = x1_1*x2_2 - x1_2*x2_1

(the 2x2 determinant of the two blocks) and shows that the augmented suite
separates B completely.

Usage: python3 scripts/decomposable_witnesses.py [--p 5] [--k 1]
       [--budget 2000000]
"""

import argparse
import sys

from modinv.action import RepresentationSpec, delta, orbit_rep_raw
from modinv.builder import SuiteEntry, build_suite
from modinv.oracle import separation_report
from modinv.poly import Polynomial
from modinv.rings import GF


def cross_block_determinant(spec, ring):
    table = spec.table
    mono = Polynomial.monomial
    return (mono(ring, table, (1, 0, 0, 1)) - mono(ring, table, (0, 1, 1, 0)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--budget", type=int, default=2_000_000)
    args = parser.parse_args()

    spec = RepresentationSpec(args.p, (2, 2))
    field = GF(args.p, args.k)
    suite = build_suite(spec, "fp")

    report = separation_report(suite, field, args.budget)
    print("blockwise suite:", ", ".join(suite.names()))
    print(report.render())
    print()

    if report.witness_pairs:
        v, w = report.witness_pairs[0]
        values_v = tuple(e.polynomial.evaluate_raw(v, field) for e in suite.entries)
        values_w = tuple(e.polynomial.evaluate_raw(w, field) for e in suite.entries)
        print("first witness pair, checked directly:")
        print(f"  orbit reps   {orbit_rep_raw(spec.blocks, field, v)}"
              f" vs {orbit_rep_raw(spec.blocks, field, w)}")
        print(f"  value tuples {values_v} == {values_w}: {values_v == values_w}")
        print()

    det_inv = cross_block_determinant(spec, GF(args.p))
    assert delta(det_inv).is_zero
    augmented = suite._replace(entries=suite.entries + (
        SuiteEntry("D", 0, 2, "cross", det_inv),))
    print("augmented with D = x1_1*x2_2 - x1_2*x2_1:")
    print(separation_report(augmented, field, args.budget).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
