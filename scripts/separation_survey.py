#!/usr/bin/env python3
"""Survey brute-force separation across small primes and block shapes.

For each spec the suite is rebuilt, checked for orbit constancy, and compared
against the exhaustive orbit count inside B.  Single blocks are expected to
separate; decomposable shapes with two blocks of size >= 2 are expected to
show witness pairs.  An entry that varies along an orbit is reported with
its smallest witness point, as `modinv verify` prints it, and makes the
survey exit 1.  Specs whose enumeration exceeds the budget are skipped with
a note, so the survey always terminates quickly.

Usage: python3 scripts/separation_survey.py [--primes 5,7] [--max-n 5]
       [--budget 200000] [--skip-decomposable]
"""

import argparse
import sys

from modinv.action import RepresentationSpec, join_point, point_texts
from modinv.builder import build_suite
from modinv.oracle import separation_report, verify_orbit_constancy
from modinv.rings import GF, BudgetExceeded


def survey_specs(primes, max_n, with_decomposable):
    for p in primes:
        for n in range(2, min(p, max_n) + 1):
            yield RepresentationSpec(p, (n,))
        if with_decomposable and p >= 5:
            yield RepresentationSpec(p, (2, 2))
            yield RepresentationSpec(p, (1, 3, 2))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", default="5,7",
                        help="comma-separated primes to survey")
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--budget", type=int, default=200_000)
    parser.add_argument("--skip-decomposable", action="store_true")
    args = parser.parse_args()
    primes = [int(s) for s in args.primes.split(",")]

    separated = failed = skipped = varied = 0
    for spec in survey_specs(primes, args.max_n, not args.skip_decomposable):
        field = GF(spec.p)
        suite = build_suite(spec, "fp")
        try:
            constancy = verify_orbit_constancy(suite, field, args.budget)
            report = separation_report(suite, field, args.budget)
        except BudgetExceeded as exc:
            print(f"p={spec.p} blocks={list(spec.blocks)}  skipped ({exc})")
            skipped += 1
            continue
        print(report.render())
        if constancy is not None:
            print(f"constancy   FAILED: {constancy[0]} at "
                  f"({join_point(point_texts(field, constancy[1]))})")
            varied += 1
        print()
        if report.separated:
            separated += 1
        else:
            failed += 1
    print(f"separated {separated}, with witnesses {failed}, skipped {skipped}")
    return 1 if varied else 0


if __name__ == "__main__":
    sys.exit(main())
