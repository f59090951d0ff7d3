"""Per-operation timings of modinv's public functions on seeded inputs.

    python3 perfbench/perop.py --workload NAME --seed N

Prints one JSON object of per-layer figures.  Inputs are drawn with
random.Random(N) from the workload's own fields and specs; the builder
figures use the workload's largest block.  Each figure is the median of
several timed repetitions of one fixed input stream.
"""

import argparse
import json
import random
import statistics
import time

from workloads import WORKLOADS

RING_OPS = 20000        # operand pairs per field
POINTS = 2000           # points per spec for the action
ORBITS = 500            # of those, points whose orbit is walked
EVAL_POINTS_SMALL = 200  # points per suite evaluation, n <= 8
EVAL_POINTS_LARGE = 10   # n > 8, where one point costs milliseconds
DELTA_MONOMIALS = 200


def timed(fn, min_reps=3, budget_s=0.5, max_reps=15) -> float:
    """Median seconds of fn(), repeated until min_reps and budget_s are met."""
    times = []
    while len(times) < min_reps or (sum(times) < budget_s and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def ladder(n, degree):
    """(family, weight) of every designated basis of the elimination at n."""
    if degree == 2:
        return [("W" if d % 2 else "Wprime", d) for d in range(3, n + 2)]
    return [("S" if d == 4 else "Shat" if d % 2 else "Sprime", d)
            for d in range(4, n + 3)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from modinv import (GF, QQ, Polynomial, RepresentationSpec, VariableTable,
                        build_suite, construct_connecting, delta,
                        restricted_delta_matrix, weight_basis)
    from modinv.action import act_raw, in_b_raw, orbit_raw
    from modinv.builder import connecting_degree

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    out = {}

    def fresh_field(p, k):
        field = GF(p, k)
        field.mul(field.one(), field.one())

    out["rings.gf_setup_s"] = sum(timed(lambda: fresh_field(p, k))
                                  for p, k in workload.fields)

    fields = {}
    for p, k in workload.fields:
        fields[(p, k)] = field = GF(p, k)
        field.mul(field.one(), field.one())

    def element(p, k):
        if k == 1:
            return rng.randrange(p)
        return tuple(rng.randrange(p) for _ in range(k))

    per_op = {"add": [], "mul": [], "pow": []}
    for (p, k), field in fields.items():
        pairs = [(element(p, k), element(p, k)) for _ in range(RING_OPS)]
        powers = [(a, rng.randint(1, p)) for a, _ in pairs]
        add, mul, power = field.add, field.mul, field.pow
        per_op["add"].append(timed(lambda: [add(a, b) for a, b in pairs]) / RING_OPS)
        per_op["mul"].append(timed(lambda: [mul(a, b) for a, b in pairs]) / RING_OPS)
        per_op["pow"].append(timed(lambda: [power(a, e) for a, e in powers]) / RING_OPS)
    for op, values in per_op.items():
        out[f"rings.{op}_ns"] = statistics.fmean(values) * 1e9

    per_point = {"act": [], "in_b": [], "orbit": [], "eval_suite": []}
    for p, blocks, k in workload.cases:
        field = fields[(p, k)]
        n = sum(blocks)
        points = [tuple(element(p, k) for _ in range(n)) for _ in range(POINTS)]
        walks = points[:ORBITS]
        per_point["act"].append(
            timed(lambda: [act_raw(blocks, field, x) for x in points]) / POINTS)
        per_point["in_b"].append(
            timed(lambda: [in_b_raw(blocks, field, x) for x in points]) / POINTS)
        per_point["orbit"].append(
            timed(lambda: [orbit_raw(blocks, field, x) for x in walks]) / ORBITS)
        polys = [e.polynomial for e in build_suite(RepresentationSpec(p, blocks)).entries]
        sample = points[:EVAL_POINTS_SMALL if n <= 8 else EVAL_POINTS_LARGE]
        per_point["eval_suite"].append(timed(
            lambda: [f.evaluate_raw(x, field) for x in sample for f in polys])
            / len(sample))
    for op, values in per_point.items():
        out[f"{'poly' if op == 'eval_suite' else 'action'}.{op}_us"] = (
            statistics.fmean(values) * 1e6)

    n = workload.largest_block
    degree = connecting_degree(n)
    table = VariableTable((n,))
    steps = ladder(n, degree)
    monomials = sorted({e for family, d in steps
                        for e in weight_basis(family, d, n).monomials})
    chosen = rng.sample(monomials, min(DELTA_MONOMIALS, len(monomials)))
    polys = [Polynomial.monomial(QQ, table, e) for e in chosen]
    out["action.delta_us"] = timed(lambda: [delta(f) for f in polys]) / len(polys) * 1e6

    target = "W" if degree == 2 else "S"
    rng.shuffle(steps)
    bases = [(weight_basis(family, d, n), weight_basis(target, d - 1, n))
             for family, d in steps]
    out["builder.delta_matrix_ms"] = timed(
        lambda: [restricted_delta_matrix(s, t) for s, t in bases]) / len(bases) * 1e3
    out["builder.connecting_s"] = timed(lambda: construct_connecting(n, degree),
                                        budget_s=1.5, max_reps=10)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
