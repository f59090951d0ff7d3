"""Acceptance gate: one test per shipped claim, exact tolerances, timed.

Each test prints a single PASS line; a failure of any assertion is the FAIL
line for that criterion.  Frozen integers come from the brute-force
enumeration oracle in modinv.oracle, run independently of the construction.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from modinv.action import (RepresentationSpec, act_raw, delta, in_b_raw,
                           orbit_raw, orbit_rep_raw, sigma)
from modinv.builder import (NoSolution, build_suite, connecting_degree,
                            construct_connecting, integral_form,
                            restricted_delta_matrix, weight_basis)
from modinv.linalg import det_int
from modinv.oracle import (fixed_point_census, separation_report,
                           verify_lifting)
from modinv.poly import Polynomial, VariableTable
from modinv.rings import GF, QQ, ZZ
from polyref import weight_components

T3 = VariableTable((3,))
T4 = VariableTable((4,))
T5 = VariableTable((5,))


def test_c01_golden_polynomials():
    start = time.monotonic()
    f3 = construct_connecting(3, 2).polynomial
    f4 = construct_connecting(4, 3).polynomial
    f5 = construct_connecting(5, 2).polynomial
    assert f3 == Polynomial(QQ, T3, {
        (1, 0, 1): F(1), (0, 2, 0): F(-1, 2), (1, 1, 0): F(1, 2)})
    assert f4 == Polynomial(QQ, T4, {
        (2, 0, 0, 1): F(1), (1, 1, 1, 0): F(-1),
        (0, 3, 0, 0): F(1, 3), (2, 1, 0, 0): F(-1, 3)})
    assert f5 == Polynomial(QQ, T5, {
        (1, 0, 0, 0, 1): F(1), (0, 1, 0, 1, 0): F(-1), (1, 0, 0, 1, 0): F(3, 2),
        (0, 0, 2, 0, 0): F(1, 2), (0, 1, 1, 0, 0): F(-1, 2),
        (0, 2, 0, 0, 0): F(1, 4), (1, 1, 0, 0, 0): F(-1, 4)})
    assert f3.render_text() == "x1*x3 - 1/2*x2^2 + 1/2*x1*x2"
    assert f5.render_text() == ("x1*x5 - x2*x4 + 3/2*x1*x4 + 1/2*x3^2"
                                " - 1/2*x2*x3 + 1/4*x2^2 - 1/4*x1*x2")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS C1 golden polynomials f3/f4/f5 exact over Q ({elapsed:.3f}s)")


def test_c02_integral_forms():
    two_f3 = integral_form(construct_connecting(3, 2))
    three_f4 = integral_form(construct_connecting(4, 3))
    assert two_f3 == Polynomial(ZZ, T3, {(1, 0, 1): 2, (0, 2, 0): -1, (1, 1, 0): 1})
    assert three_f4 == Polynomial(ZZ, T4, {
        (2, 0, 0, 1): 3, (1, 1, 1, 0): -3, (0, 3, 0, 0): 1, (2, 1, 0, 0): -1})
    assert two_f3.render_text() == "2*x1*x3 - x2^2 + x1*x2"
    assert three_f4.render_text() == "3*x1^2*x4 - 3*x1*x2*x3 + x2^3 - x1^2*x2"
    print("PASS C2 integral forms 2*f3 and 3*f4 exact over Z")


def test_c03_invariance_sweep():
    start = time.monotonic()
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, p + 1):
            suite = build_suite(RepresentationSpec(p, (n,)), "fp")
            for e in suite.entries:
                assert delta(e.polynomial).is_zero, (p, n, e.name)
                checked += 1
    for p in (5, 7):
        for blocks in ((2, 2), (1, 3, 2), (5, 1)):
            suite = build_suite(RepresentationSpec(p, blocks), "fp")
            for e in suite.entries:
                assert delta(e.polynomial).is_zero, (p, blocks, e.name)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS C3 invariance: Delta(f)=0 for {checked} suite entries "
          f"({elapsed:.2f}s)")


def test_c04_lemma_matrices():
    n = 13
    checked = 0
    for d in range(3, n + 2):            # degree-2 ladder
        if d % 2:
            basis, expected = weight_basis("W", d, n), 1
        else:
            basis, expected = weight_basis("Wprime", d, n), 2
        matrix = restricted_delta_matrix(basis, weight_basis("W", d - 1, n))
        assert len(matrix) == len(basis)
        assert all(len(row) == len(basis) for row in matrix)
        assert abs(det_int(matrix)) == expected, (basis.family, d)
        checked += 1
    for d in range(4, n + 3):            # degree-3 ladder
        if d == 4:
            basis, expected = weight_basis("S", 4, n), 1
        elif d % 2:
            basis, expected = weight_basis("Shat", d, n), 1
        else:
            basis, expected = weight_basis("Sprime", d, n), d - 3
        matrix = restricted_delta_matrix(basis, weight_basis("S", d - 1, n))
        assert len(matrix) == len(basis)
        assert all(len(row) == len(basis) for row in matrix)
        assert abs(det_int(matrix)) == expected, (basis.family, d)
        checked += 1
    # every determinant met while constructing f_n stays a unit mod p
    reductions = 0
    for p in (3, 5, 7, 11, 13):
        for m in range(3, p + 1):
            for step in construct_connecting(m, connecting_degree(m)).steps:
                assert step.det is not None and step.det % p != 0, (p, m, step)
                reductions += 1
    print(f"PASS C4 lemma matrices: {checked} determinants at n=13, "
          f"{reductions} unit reductions mod p")


def test_c05_negative_controls():
    with pytest.raises(NoSolution):
        construct_connecting(4, 2)
    with pytest.raises(NoSolution):
        construct_connecting(2, 3)
    print("PASS C5 negative controls: degree 2 at n=4 and degree 3 at n=2 "
          "have no solution")


EXPECTED_F5 = {2: (25, 20, 4), 3: (125, 100, 20),
               4: (625, 500, 100), 5: (3125, 2500, 500)}
EXPECTED_F7 = {3: (343, 294, 42), 4: (2401, 2058, 294), 5: (16807, 14406, 2058)}


def test_c06_separation_census():
    start = time.monotonic()
    for p, table in ((5, EXPECTED_F5), (7, EXPECTED_F7)):
        field = GF(p)
        for n, (total, in_b, orbits) in sorted(table.items()):
            spec = RepresentationSpec(p, (n,))
            report = separation_report(build_suite(spec, "fp"), field)
            assert report.total_points == total, (p, n)
            assert report.points_in_b == in_b, (p, n)
            assert report.orbit_count_in_b == orbits, (p, n)
            assert report.fiber_count == orbits, (p, n)
            assert report.separated is True, (p, n)
            census = fixed_point_census(spec, field)
            assert census["pointsInB"] == in_b
            assert census["orbitCountInB"] == orbits
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS C6 separation census over F5 (n=2..5) and F7 (n=3..5) "
          f"({elapsed:.2f}s)")


def test_c07_lifting():
    for p, n in ((5, 3), (5, 4), (5, 5), (7, 3), (7, 4), (7, 5)):
        assert verify_lifting(n, GF(p)) is None, (p, n)
    print("PASS C7 lifting: last coordinate injective on B for six (p,n) pairs")


def test_c08_characteristic_independence():
    # one rational f_n serves every F_p with p >= n: each of its elimination
    # steps is invertible mod p, and the fp suite holds its reduction, whose
    # only term in x_n is the lead x1*x_n (x1^2*x_n) with coefficient 1
    count = 0
    for p in (5, 7, 11, 13):
        field = GF(p)
        for n in range(3, p + 1):
            degree = connecting_degree(n)
            ci = construct_connecting(n, degree)
            for step in ci.steps:
                assert step.det is not None and step.det % p != 0, (p, n, step.weight)
            reduced = ci.polynomial.change_ring(field)
            suite = build_suite(RepresentationSpec(p, (n,)), "fp")
            (entry,) = [e for e in suite.entries if e.name == f"f{n}"]
            assert entry.polynomial == reduced, (p, n)
            lead = [0] * n
            lead[0], lead[n - 1] = degree - 1, 1
            assert [(list(e), c) for e, c in reduced.terms() if e[n - 1]] == [(lead, 1)]
            count += 1
    print(f"PASS C8 characteristic independence for {count} (p,n) pairs")


def test_c09_degree_profile():
    spec = RepresentationSpec(7, (5, 3, 1))
    suite = build_suite(spec, "fp")
    assert len(suite.entries) == 9
    assert (spec.n, spec.m, spec.r) == (9, 2, 1)
    degrees = [e.degree for e in suite.entries]
    assert degrees.count(1) == spec.m + spec.r == 3
    assert degrees.count(7) == spec.m == 2
    connecting = [d for d in degrees if d in (2, 3)]
    assert len(connecting) == spec.n - 2 * spec.m - spec.r == 4
    assert sorted(degrees) == [1, 1, 1, 2, 2, 2, 3, 7, 7]
    print("PASS C9 degree profile for p=7 blocks [5,3,1]: 9 entries, "
          "degrees {1x3, 7x2, low-degree x4}")


def test_c10_decomposable_report():
    start = time.monotonic()
    spec = RepresentationSpec(5, (2, 2))
    suite = build_suite(spec, "fp")
    v_int, w_int = (1, 0, 1, 0), (1, 0, 1, 1)
    for field in (GF(5), GF(5, 2)):
        first = separation_report(suite, field)
        second = separation_report(suite, field)
        assert first.to_json_dict() == second.to_json_dict()     # determinism
        assert first.fiber_count <= first.orbit_count_in_b       # consistency
        assert bool(first.witness_pairs) == (
            first.fiber_count != first.orbit_count_in_b)
        assert first.separated == (first.fiber_count == first.orbit_count_in_b)
        # adjudicate the candidate pair directly
        v = tuple(field.from_int(c) for c in v_int)
        w = tuple(field.from_int(c) for c in w_int)
        assert orbit_rep_raw(spec.blocks, field, v) != orbit_rep_raw(
            spec.blocks, field, w)
        values_v = tuple(e.polynomial.evaluate_raw(v, field) for e in suite.entries)
        values_w = tuple(e.polynomial.evaluate_raw(w, field) for e in suite.entries)
        assert values_v == values_w
        # the adjudicated collision must be reflected by the report
        assert first.separated is False
    elapsed = time.monotonic() - start
    print(f"PASS C10 decomposable report over F5 and F25: deterministic, "
          f"consistent, pair (1,0,1,0)/(1,0,1,1) adjudicated ({elapsed:.2f}s)")


def test_c11_property_bundle():
    rng = random.Random(0)
    field = GF(5)
    table4 = VariableTable((4,))

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = tuple(rng.randrange(3) for _ in range(4))
            terms[exps] = rng.randrange(5)
        return Polynomial(field, table4, terms)

    for _ in range(25):                    # substitution is a ring map
        f, g = rand_poly(), rand_poly()
        assert sigma(f + g) == sigma(f) + sigma(g)
        assert sigma(f * g) == sigma(f) * sigma(g)

    n = 12
    big = VariableTable((n,))
    for d in range(3, n + 2):              # degree-2 grading containment
        for exps in weight_basis("W", d, n).monomials:
            comps = weight_components(delta(Polynomial.monomial(ZZ, big, exps)))
            assert set(comps) <= {d - 2, d - 1}
            for w, comp in comps.items():
                assert {e for e, _ in comp.terms()} <= set(weight_basis("W", w, n).monomials)
    for d in range(3, n + 3):              # degree-3 grading containment
        for exps in weight_basis("S", d, n).monomials:
            comps = weight_components(delta(Polynomial.monomial(ZZ, big, exps)))
            assert set(comps) <= {d - 3, d - 2, d - 1}
            for w, comp in comps.items():
                assert {e for e, _ in comp.terms()} <= set(weight_basis("S", w, n).monomials)

    spec = RepresentationSpec(7, (4,))     # period p, orbit size p on B
    field7 = GF(7)
    els = list(field7.elements())
    for _ in range(40):
        coords = tuple(rng.choice(els) for _ in range(4))
        moved = coords
        for _ in range(7):
            moved = act_raw(spec.blocks, field7, moved)
        assert moved == coords
        if in_b_raw(spec.blocks, field7, coords):
            assert len(orbit_raw(spec.blocks, field7, coords)) == 7
    for coords in itertools.product(range(5), repeat=2):
        size = len(orbit_raw((2,), GF(5), coords))
        assert size == (5 if coords[0] != 0 else 1)

    for m in range(3, 11):                 # canonical lead terms
        f = construct_connecting(m, connecting_degree(m)).polynomial
        exps, coeff = f.lead_term()
        lead = [0] * m
        lead[0] = connecting_degree(m) - 1
        lead[m - 1] = 1
        assert list(exps) == lead and coeff == F(1)

    print("PASS C11 property bundle: substitution homomorphism, grading "
          "containments, orbit sizes, action period, lead terms")
