import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.action import BlockExceedsP, RepresentationSpec, delta, sigma
from modinv.builder import (IncompatibleBases, NoSolution, ParityViolation,
                            RangeViolation, _connecting_rational, _delta_matrix,
                            _key, _delta_key, build_suite, connecting_degree,
                            construct_connecting, integral_form,
                            norm_invariant, restricted_delta_matrix,
                            suite_construction_steps, weight_basis)
from modinv.linalg import det_int
from modinv.poly import Polynomial, VariableTable
from modinv.rings import GF, QQ, ZZ, is_prime
from polyref import exps, weight_of

T3 = VariableTable((3,))
T4 = VariableTable((4,))
T5 = VariableTable((5,))


def qpoly(table, terms):
    return Polynomial(QQ, table, {e: F(c) for e, c in terms.items()})


GOLDEN_F3 = qpoly(T3, {(1, 0, 1): 1, (0, 2, 0): F(-1, 2), (1, 1, 0): F(1, 2)})
GOLDEN_F4 = qpoly(T4, {(2, 0, 0, 1): 1, (1, 1, 1, 0): -1,
                       (0, 3, 0, 0): F(1, 3), (2, 1, 0, 0): F(-1, 3)})
GOLDEN_F5 = qpoly(T5, {(1, 0, 0, 0, 1): 1, (0, 1, 0, 1, 0): -1,
                       (1, 0, 0, 1, 0): F(3, 2), (0, 0, 2, 0, 0): F(1, 2),
                       (0, 1, 1, 0, 0): F(-1, 2), (0, 2, 0, 0, 0): F(1, 4),
                       (1, 1, 0, 0, 0): F(-1, 4)})


# -- weight bases -----------------------------------------------------------


def test_weight_basis_w_examples():
    assert weight_basis("W", 4, 3).monomials == ((1, 0, 1), (0, 2, 0))
    assert weight_basis("Wprime", 4, 3).monomials == ((0, 2, 0),)
    assert weight_basis("W", 3, 3).monomials == ((1, 1, 0),)
    assert weight_basis("W", 2, 3).monomials == ((2, 0, 0),)
    names = weight_basis("W", 5, 4).names()
    assert names == ("x1*x4", "x2*x3")


def test_weight_basis_s_examples():
    assert weight_basis("S", 3, 3).monomials == ((3, 0, 0),)
    assert weight_basis("S", 4, 3).monomials == ((2, 1, 0),)
    assert weight_basis("S", 5, 3).monomials == ((2, 0, 1), (1, 2, 0))
    assert weight_basis("Shat", 5, 3).monomials == ((2, 0, 1),)
    assert weight_basis("Sprime", 6, 4).names() == ("x1*x2*x3", "x2^3")
    # (B1) block then (B2) block, each by increasing second index
    assert weight_basis("S", 7, 5).names() == (
        "x1^2*x5", "x1*x2*x4", "x1*x3^2", "x2^2*x3")


def test_weight_basis_dimensions():
    # dim W_d = floor(d/2) throughout; the odd-d case matches floor((d-1)/2)
    for d in range(2, 12):
        assert len(weight_basis("W", d, 12)) == d // 2
        if d % 2:
            assert len(weight_basis("W", d, 12)) == (d - 1) // 2
    # dim S'_d = dim S_{d-1} = d - 4 for even d >= 6
    for d in range(6, 14, 2):
        assert len(weight_basis("Sprime", d, 12)) == d - 4
        assert len(weight_basis("S", d - 1, 12)) == d - 4


def test_weight_basis_errors():
    with pytest.raises(ParityViolation):
        weight_basis("Wprime", 5, 6)
    with pytest.raises(ParityViolation):
        weight_basis("Sprime", 7, 6)
    with pytest.raises(ParityViolation):
        weight_basis("Shat", 6, 6)
    with pytest.raises(RangeViolation):
        weight_basis("W", 6, 4)          # d > n+1
    with pytest.raises(RangeViolation):
        weight_basis("S", 8, 5)          # d > n+2
    with pytest.raises(RangeViolation):
        weight_basis("Sprime", 4, 6)     # needs d >= 6
    with pytest.raises(RangeViolation):
        weight_basis("Shat", 3, 6)       # needs d >= 5
    with pytest.raises(RangeViolation):
        weight_basis("W", -1, 4)
    with pytest.raises(ValueError):
        weight_basis("X", 4, 4)


# -- sparse keys --------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_sparse_delta_matches_dense(n):
    # every monomial of degree <= 3 in one block of size n
    table = VariableTable((n,))
    for degree in range(4):
        for key in itertools.combinations_with_replacement(range(1, n + 1), degree):
            e = exps(n, *key)
            assert _key(e) == key
            assert sum(key) == weight_of(table, e)
            image = {exps(n, *k): c for _, k, c in _delta_key(key)}
            sigma_image = dict(sigma(Polynomial.monomial(ZZ, table, e)).terms())
            assert sigma_image.pop(e) == 1 and image == sigma_image
            for w, k, _ in _delta_key(key):
                assert list(k) == sorted(k) and w == weight_of(table, exps(n, *k))


def test_delta_matrix_names_a_missing_target():
    with pytest.raises(IncompatibleBases, match=r"target basis misses x1\*x3"):
        _delta_matrix(((1, 4),), ((2, 2),))


# -- restricted matrices ----------------------------------------------------


def test_matrix_w3_to_w2():
    m = restricted_delta_matrix(weight_basis("W", 3, 3), weight_basis("W", 2, 3))
    assert m == [[1]]


def test_matrix_w5_to_w4_unitriangular():
    m = restricted_delta_matrix(weight_basis("W", 5, 4), weight_basis("W", 4, 4))
    assert m == [[1, 1], [0, 1]]
    assert det_int(m) == 1


def test_matrix_wprime4_to_w3():
    m = restricted_delta_matrix(weight_basis("Wprime", 4, 3), weight_basis("W", 3, 3))
    assert m == [[2]]


def test_matrix_sprime6_to_s5():
    m = restricted_delta_matrix(weight_basis("Sprime", 6, 4), weight_basis("S", 5, 4))
    assert m == [[1, 0], [1, 3]]
    assert det_int(m) == 3


def test_matrix_s4_to_s3():
    m = restricted_delta_matrix(weight_basis("S", 4, 2), weight_basis("S", 3, 2))
    assert m == [[1]]


def test_incompatible_bases():
    with pytest.raises(IncompatibleBases):
        restricted_delta_matrix(weight_basis("W", 5, 4), weight_basis("W", 3, 4))
    with pytest.raises(IncompatibleBases):
        restricted_delta_matrix(weight_basis("W", 5, 4), weight_basis("S", 4, 4))
    with pytest.raises(IncompatibleBases):
        restricted_delta_matrix(weight_basis("Shat", 5, 4), weight_basis("W", 4, 4))
    with pytest.raises(IncompatibleBases):
        restricted_delta_matrix(weight_basis("W", 5, 4), weight_basis("W", 4, 5))


@pytest.mark.parametrize("d", range(3, 14, 2))
def test_w_determinants_are_unit(d):
    n = 13
    m = restricted_delta_matrix(weight_basis("W", d, n), weight_basis("W", d - 1, n))
    assert abs(det_int(m)) == 1


@pytest.mark.parametrize("d", range(4, 15, 2))
def test_wprime_determinants_are_two(d):
    n = 13
    m = restricted_delta_matrix(weight_basis("Wprime", d, n), weight_basis("W", d - 1, n))
    assert abs(det_int(m)) == 2


@pytest.mark.parametrize("d", range(6, 15, 2))
def test_sprime_determinants(d):
    n = 13
    m = restricted_delta_matrix(weight_basis("Sprime", d, n), weight_basis("S", d - 1, n))
    assert abs(det_int(m)) == d - 3


@pytest.mark.parametrize("d", range(5, 14, 2))
def test_shat_determinants_are_unit(d):
    n = 13
    m = restricted_delta_matrix(weight_basis("Shat", d, n), weight_basis("S", d - 1, n))
    assert abs(det_int(m)) == 1


def test_lemma_determinant_pattern_at_n31():
    # the ladder of C4, swept at n = p = 31 instead of 13
    n = p = 31
    for d in range(3, n + 2):
        family, expected = ("W", 1) if d % 2 else ("Wprime", 2)
        m = restricted_delta_matrix(weight_basis(family, d, n), weight_basis("W", d - 1, n))
        assert abs(det_int(m)) == expected, (family, d)
    for d in range(4, n + 3):
        if d == 4:
            family, expected = "S", 1
        else:
            family, expected = ("Shat", 1) if d % 2 else ("Sprime", d - 3)
        m = restricted_delta_matrix(weight_basis(family, d, n), weight_basis("S", d - 1, n))
        assert abs(det_int(m)) == expected, (family, d)
    for k in range(3, n + 1):
        for step in construct_connecting(k, connecting_degree(k)).steps:
            assert step.det is not None and step.det % p != 0, (k, step.weight)


def sweep_step_determinants(max_p):
    """Check every elimination step of f_n for 3 <= n <= max_p: its
    determinant is +-1, +-2 or +-(d-3) at source weight d, and a unit mod
    every prime p with n <= p <= max_p.  Returns the number of steps."""
    primes = [p for p in range(2, max_p + 1) if is_prime(p)]
    checked = 0
    for n in range(3, max_p + 1):
        for step in construct_connecting(n, connecting_degree(n)).steps:
            d = step.weight
            assert step.det is not None and abs(step.det) in (1, 2, d - 3), (n, d, step.det)
            for p in primes:
                assert p < n or step.det % p != 0, (p, n, d, step.det)
            checked += 1
    return checked


def test_step_determinants_are_units_mod_p():
    # every prime p <= 41 and every block size n <= p: 800 passes of f_3..f_41
    assert sweep_step_determinants(41) == 800


def test_block_sizes_share_their_systems():
    # why the builder caches its systems: f_3..f_29 make 392 passes
    # over 54 distinct systems, and f_{n+2} meets every system f_n meets
    systems = {n: [(s.source, s.target) for s in
                   construct_connecting(n, connecting_degree(n)).steps]
               for n in range(3, 32)}
    assert sum(len(systems[n]) for n in range(3, 30)) == 392
    assert len({key for n in range(3, 30) for key in systems[n]}) == 54
    for n in range(3, 30):
        assert set(systems[n]) <= set(systems[n + 2])


# -- connecting invariants ---------------------------------------------------


def test_golden_f3():
    ci = construct_connecting(3, 2)
    assert ci.polynomial == GOLDEN_F3
    assert [(s.family, s.weight, s.det) for s in ci.steps] == [
        ("Wprime", 4, 2), ("W", 3, 1)]


def test_golden_f4():
    ci = construct_connecting(4, 3)
    assert ci.polynomial == GOLDEN_F4
    assert [(s.family, s.weight, s.det) for s in ci.steps] == [
        ("Sprime", 6, 3), ("S", 4, 1)]
    assert ci.steps[0].matrix == ((1, 0), (1, 3))
    assert ci.steps[0].solution == ("1", "-1/3")


def test_golden_f5():
    ci = construct_connecting(5, 2)
    assert ci.polynomial == GOLDEN_F5


@pytest.mark.parametrize("n,degree", [(4, 2), (2, 3), (2, 2), (3, 3)])
def test_no_solution_cases(n, degree):
    with pytest.raises(NoSolution):
        construct_connecting(n, degree)


@pytest.mark.parametrize("n", range(3, 12))
def test_connecting_shape_and_invariance(n):
    degree = connecting_degree(n)
    ci = construct_connecting(n, degree)
    f = ci.polynomial
    assert delta(f).is_zero
    assert {sum(e) for e, _ in f.terms()} == {degree}
    lead_exps, lead_coeff = f.lead_term()
    expected = [0] * n
    expected[0] = degree - 1
    expected[n - 1] = 1
    assert list(lead_exps) == expected and lead_coeff == F(1)
    # the tail h = f - lead is free of x_n
    assert [e for e, _ in f.terms() if e[n - 1]] == [lead_exps]


def test_construction_is_deterministic():
    a = construct_connecting(7, 2)
    b = construct_connecting(7, 2)
    assert a.polynomial == b.polynomial and a.steps == b.steps


def test_construct_connecting_argument_errors():
    with pytest.raises(ValueError):
        construct_connecting(3, 4)
    with pytest.raises(ValueError):
        construct_connecting(1, 2)


# -- integral forms and norms -----------------------------------------------


def test_integral_form_golden():
    assert integral_form(construct_connecting(3, 2)) == Polynomial(
        ZZ, T3, {(1, 0, 1): 2, (0, 2, 0): -1, (1, 1, 0): 1})
    assert integral_form(construct_connecting(4, 3)) == Polynomial(
        ZZ, T4, {(2, 0, 0, 1): 3, (1, 1, 1, 0): -3, (0, 3, 0, 0): 1, (2, 1, 0, 0): -1})
    # lcm() of no denominators is 1, so zero stays zero
    assert integral_form(Polynomial.zero(QQ, T3)) == Polynomial.zero(ZZ, T3)
    # integer coefficients stay as they are: the content 3 is not divided out
    assert integral_form(qpoly(T3, {(1, 0, 1): 3, (0, 2, 0): -6})) == Polynomial(
        ZZ, T3, {(1, 0, 1): 3, (0, 2, 0): -6})


def test_integral_form_is_invariant_over_z():
    g = integral_form(construct_connecting(5, 2))
    assert delta(g).is_zero
    assert gcd(*(c for _, c in g.terms())) == 1


def test_integral_form_keeps_coefficient_gcd():
    # only denominators are cleared: 4*f3 has integer coefficients with gcd 2
    assert gcd(*(c for _, c in integral_form(GOLDEN_F3.scale(F(4))).terms())) == 2
    with pytest.raises(ValueError):
        integral_form(Polynomial(ZZ, T3, {(1, 0, 0): 1}))


def test_norm_invariant_p5():
    t2 = VariableTable((2,))
    n = norm_invariant(5, GF(5), t2)
    assert n == Polynomial(GF(5), t2, {(4, 1): 1, (0, 5): 4})
    assert sigma(n) == n
    for t in range(5):
        assert n.evaluate_raw((1, t), GF(5)) == 0
    assert n.evaluate_raw((0, 1), GF(5)) == 4
    assert max(e[1] for e, _ in n.terms()) == 5


def test_norm_invariant_mod_p_only():
    t2 = VariableTable((2,))
    over_z = norm_invariant(5, ZZ, t2)
    assert delta(over_z.change_ring(GF(5))).is_zero
    assert not delta(over_z).is_zero  # integral lift is invariant only mod p


def test_norm_invariant_offset_embedding():
    table = VariableTable((2, 2))
    n2 = norm_invariant(5, GF(5), table, offset=2)
    assert n2 == Polynomial(GF(5), table, {(0, 0, 4, 1): 1, (0, 0, 0, 5): 4})


# -- suites -------------------------------------------------------------------


def test_suite_7_5_names_and_degrees():
    suite = build_suite(RepresentationSpec(7, (5,)), "fp")
    assert suite.names() == ("x1", "N(x2)", "f3", "f4", "f5")
    assert [e.degree for e in suite.entries] == [1, 7, 2, 3, 2]
    assert [e.kind for e in suite.entries] == [
        "linear", "norm", "connecting", "connecting", "connecting"]
    for e in suite.entries:
        assert delta(e.polynomial).is_zero


def test_suite_trivial_block():
    suite = build_suite(RepresentationSpec(5, (1,)), "fp")
    assert suite.names() == ("x1",)
    assert sorted(e.degree for e in suite.entries) == [1]


def test_suite_2_2_degree_profile():
    spec = RepresentationSpec(5, (2, 2))
    suite = build_suite(spec, "fp")
    assert suite.names() == ("x1_1", "N(x1_2)", "x2_1", "N(x2_2)")
    assert [e.degree for e in suite.entries] == [1, 5, 1, 5]
    assert spec.m == 2 and spec.r == 0 and spec.n - 2 * spec.m - spec.r == 0


def test_suite_block_exceeds_p():
    with pytest.raises(BlockExceedsP):
        build_suite(RepresentationSpec(5, (7,)), "fp")


def test_suite_rings():
    spec = RepresentationSpec(5, (3,))
    q = build_suite(spec, "q")
    assert q.entries[2].polynomial == GOLDEN_F3
    z = build_suite(spec, "z")
    assert z.entries[2].polynomial == Polynomial(
        ZZ, T3, {(1, 0, 1): 2, (0, 2, 0): -1, (1, 1, 0): 1})
    fp = build_suite(spec, "fp")
    assert fp.entries[2].polynomial == GOLDEN_F3.change_ring(GF(5))
    with pytest.raises(ValueError):
        build_suite(spec, "gf")


def test_suite_entries_embedded_per_block():
    spec = RepresentationSpec(7, (1, 3, 2))
    suite = build_suite(spec, "fp")
    assert suite.names() == ("x1_1", "x2_1", "N(x2_2)", "f2_3", "x3_1", "N(x3_2)")
    f23 = dict(suite.entries[3].polynomial.terms())
    # block 2 occupies flat variables 2..4 (0-based 1..3)
    assert (0, 1, 0, 1, 0, 0) in f23
    for e in suite.entries:
        assert delta(e.polynomial).is_zero


def test_suite_shares_the_construction_terms():
    # one copy of each term: a single-block q suite holds the cached
    # construction's own term maps, the other rings reuse their keys, and
    # every f_j shares one key object per monomial
    spec = RepresentationSpec(11, (9,))
    q, fp = build_suite(spec, "q"), build_suite(spec, "fp")
    for j, a, b in zip(range(3, 10), q.entries[2:], fp.entries[2:]):
        cached = _connecting_rational(j).polynomial._terms
        assert a.polynomial._terms is cached
        keys = {k: k for k in cached}
        assert all(keys[k] is k for k in b.polynomial._terms)
    f5, f7 = (_connecting_rational(j).polynomial._terms for j in (5, 7))
    keys = {k: k for k in f7}
    common = [k for k in f5 if k in keys]
    assert common and all(keys[k] is k for k in common)


def test_suite_json_shape():
    data = build_suite(RepresentationSpec(5, (3,)), "fp").to_json_dict()
    assert data["spec"] == {"p": 5, "blocks": [3]}
    assert data["ring"] == "fp"
    assert [e["kind"] for e in data["entries"]] == ["linear", "norm", "connecting"]


def test_suite_construction_steps_records():
    steps = suite_construction_steps(RepresentationSpec(5, (3,)))
    assert len(steps) == 1 and steps[0]["name"] == "f3"
    assert [s.family for s in steps[0]["steps"]] == ["Wprime", "W"]
    assert suite_construction_steps(RepresentationSpec(5, (1,))) == []


def test_invariance_under_point_action_small_fields():
    # f(g.v) = f(v) on every point for q^n small, random sample otherwise
    rng = random.Random(7)
    cases = [(5, (3,), 1), (5, (2, 2), 1), (7, (4,), 1), (3, (3,), 2), (5, (2,), 2)]
    from modinv.action import act_raw
    for p, blocks, k in cases:
        spec = RepresentationSpec(p, blocks)
        field = GF(p, k)
        suite = build_suite(spec, "fp")
        points = itertools.product(field.elements(), repeat=spec.n)
        if field.order ** spec.n > 3000:
            els = list(field.elements())
            points = (tuple(rng.choice(els) for _ in range(spec.n))
                      for _ in range(300))
        for coords in points:
            moved = act_raw(spec.blocks, field, coords)
            for e in suite.entries:
                assert (e.polynomial.evaluate_raw(coords, field)
                        == e.polynomial.evaluate_raw(moved, field))


@given(st.integers(3, 9))
def test_denominators_coprime_to_large_primes(n):
    # coefficient denominators divide products of 2 and (d-3) with d <= n+2
    ci = construct_connecting(n, connecting_degree(n))
    denominators = lcm(*(c.denominator for _, c in ci.polynomial.terms()))
    for q in (11, 13):
        if q >= n:
            assert denominators % q != 0


if __name__ == "__main__":
    # the determinant sweep at a larger bound:
    #   PYTHONPATH=src python3 tests/test_builder.py 101
    import sys
    import time

    start = time.perf_counter()
    count = sweep_step_determinants(int(sys.argv[1]))
    print(f"{count} steps checked in {time.perf_counter() - start:.1f} s")
