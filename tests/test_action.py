import itertools
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.action import (BlockExceedsP, RepresentationSpec, _binomials,
                           _sigma_monomial, act_raw, delta, in_b_raw, join_point,
                           orbit_raw, orbit_rep_raw, point_texts, sigma)
from modinv.builder import norm_invariant, weight_basis
from modinv.poly import Polynomial, VariableTable, grlex_key
from modinv.rings import GF, QQ, ZZ
from polyref import weight_components

F5 = GF(5)
SPEC53 = RepresentationSpec(5, (3,))
T3 = SPEC53.table


def qpoly(table, terms):
    return Polynomial(QQ, table, {e: F(c) for e, c in terms.items()})


def test_spec_validation_and_counts():
    with pytest.raises(ValueError, match="p must be prime"):
        RepresentationSpec(6, (2,))
    with pytest.raises(BlockExceedsP, match="block size exceeds p"):
        RepresentationSpec(5, (7,))
    with pytest.raises(ValueError):
        RepresentationSpec(5, ())
    spec = RepresentationSpec(7, (5, 3, 1))
    assert spec.n == 9 and spec.m == 2 and spec.r == 1


def test_sigma_on_variables():
    x1 = Polynomial.variable(QQ, T3, 0)
    x3 = Polynomial.variable(QQ, T3, 2)
    assert sigma(x1) == x1
    assert sigma(x3) == qpoly(T3, {(0, 1, 0): 1, (0, 0, 1): 1})
    assert sigma(qpoly(T3, {(1, 0, 1): 1})) == qpoly(T3, {(1, 1, 0): 1, (1, 0, 1): 1})


def test_sigma_blockwise():
    table = VariableTable((2, 2))
    x2_2 = Polynomial.variable(QQ, table, 3)
    # second block's second variable picks up its own block's first variable
    assert sigma(x2_2) == Polynomial(QQ, table, {(0, 0, 1, 0): F(1), (0, 0, 0, 1): F(1)})
    x2_1 = Polynomial.variable(QQ, table, 2)
    assert sigma(x2_1) == x2_1


def test_delta_degree2_formula():
    # delta(x_i x_j) = x_{i-1}x_{j-1} + x_{i-1}x_j + x_i x_{j-1} for i,j >= 2
    got = delta(qpoly(T3, {(0, 1, 1): 1}))
    assert got == qpoly(T3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1})


def test_delta_small_examples():
    assert delta(qpoly(T3, {(3, 0, 0): 1})).is_zero
    got = delta(qpoly(T3, {(0, 3, 0): 1}))
    assert got == qpoly(T3, {(3, 0, 0): 1, (2, 1, 0): 3, (1, 2, 0): 3})


def test_delta_component_examples():
    def component(f, d):
        return weight_components(delta(f))[d]

    assert component(qpoly(T3, {(0, 2, 0): 1}), 3) == qpoly(T3, {(1, 1, 0): 2})
    got = component(qpoly(T3, {(1, 1, 1): 1}), 5)
    assert got == qpoly(T3, {(2, 0, 1): 1, (1, 2, 0): 1})
    # delta_{d-1}(x1 x_{d-1}) = x1 x_{d-2} at d = 5
    t4 = VariableTable((4,))
    got = component(Polynomial(QQ, t4, {(1, 0, 0, 1): F(1)}), 4)
    assert got == Polynomial(QQ, t4, {(1, 0, 1, 0): F(1)})


def sigma_by_substitution(f):
    """Reference: sigma as a generic substitution of the variable images,
    x_i -> x_i for a block's first variable and x_{i-1} + x_i otherwise."""
    table = f.table
    images = {}
    for i in range(table.n):
        xi = Polynomial.variable(f.ring, table, i)
        if table.positions[i][1] == 1:
            images[i] = xi
        else:
            images[i] = Polynomial.variable(f.ring, table, i - 1) + xi
    return f.substitute(images)


# (ring, p, coefficient strategy): block sizes stay <= p and degrees <= p
DIFFERENTIAL_RINGS = [
    (QQ, 5, st.builds(F, st.integers(-9, 9), st.integers(1, 9))),
    (ZZ, 5, st.integers(-9, 9)),
    (GF(5), 5, st.integers(0, 4)),
    (GF(3, 2), 3, st.tuples(st.integers(0, 2), st.integers(0, 2))),
]
DIFFERENTIAL_BLOCKS = {5: [(5,), (1,), (3, 2), (2, 1, 2)], 3: [(3,), (2, 1, 2), (1, 3)]}


DIFFERENTIAL_IDS = [repr(ring) for ring, _, _ in DIFFERENTIAL_RINGS]


@pytest.mark.parametrize("ring,p,coeffs", DIFFERENTIAL_RINGS, ids=DIFFERENTIAL_IDS)
@given(data=st.data())
def test_sigma_and_delta_match_substitution(ring, p, coeffs, data):
    table = VariableTable(data.draw(st.sampled_from(DIFFERENTIAL_BLOCKS[p])))

    def exps(powers):
        # fold (variable, exponent) pairs into one monomial of degree <= p
        out, budget = [0] * table.n, p
        for i, a in powers:
            a = min(a, budget)
            out[i] += a
            budget -= a
        return tuple(out)

    power = st.tuples(st.integers(0, table.n - 1), st.integers(0, p))
    monomials = st.lists(power, max_size=3).map(exps)
    terms = data.draw(st.dictionaries(monomials, coeffs, max_size=6))
    f = Polynomial(ring, table, terms)
    reference = sigma_by_substitution(f)
    assert sigma(f) == reference
    assert delta(f) == reference - f


@pytest.mark.parametrize("ring,p,_", DIFFERENTIAL_RINGS, ids=DIFFERENTIAL_IDS)
def test_delta_of_norms_matches_substitution(ring, p, _):
    # degree-p orbit products: the highest binomial powers the suites use
    for blocks in DIFFERENTIAL_BLOCKS[p]:
        table = VariableTable(blocks)
        for offset, size in zip(table.block_offsets, blocks):
            if size >= 2:
                f = norm_invariant(p, ring, table, offset)
                reference = sigma_by_substitution(f)
                assert sigma(f) == reference
                assert delta(f) == reference - f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomials_mod_p_are_the_nonvanishing_ones(p):
    for a in range(3 * p * p):
        assert _binomials(a, p) == [(j, comb(a, j) % p) for j in range(a + 1)
                                    if comb(a, j) % p]
    assert _binomials(7, 0) == [(j, comb(7, j)) for j in range(8)]
    assert _binomials(3137, 3137) == [(0, 1), (3137, 1)]


@pytest.mark.parametrize("ring", [GF(2), GF(3), GF(5), GF(2, 2)], ids=repr)
@given(data=st.data())
def test_sigma_mod_p_is_the_integer_expansion_reduced(ring, data):
    # exponents up to p^2 + p - 1, so that binomials vanish on two digits
    p = ring.characteristic
    table = VariableTable(data.draw(st.sampled_from([(3,), (1, 2), (2, 1), (1, 1, 1)])))
    exps = tuple(data.draw(st.lists(st.integers(0, p * p + p - 1),
                                    min_size=table.n, max_size=table.n)))
    key = grlex_key(exps)
    reduced = {e: c % p for e, c in _sigma_monomial(table, key, 0).items() if c % p}
    assert {e: c for e, c in _sigma_monomial(table, key, p).items() if c} == reduced
    f = Polynomial.monomial(ZZ, table, exps)
    assert delta(f.change_ring(ring)) == delta(f).change_ring(ring)
    assert sigma(f.change_ring(ring)) == sigma(f).change_ring(ring)


def test_act_raw_examples():
    assert act_raw((3,), F5, (1, 0, 0)) == (1, 1, 0)
    assert act_raw((3,), F5, (0, 0, 0)) == (0, 0, 0)
    assert act_raw((3,), F5, (1, 4, 1)) == (1, 0, 0)


def test_orbit_golden():
    got = orbit_raw((3,), F5, (1, 0, 0))
    assert got == [(1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 3, 3), (1, 4, 1)]
    assert orbit_raw((3,), F5, (0, 0, 2)) == [(0, 0, 2)]


@pytest.mark.parametrize("p,k,blocks", [
    (5, 1, (3,)), (3, 2, (2, 1)), (2, 2, (1, 2, 2)), (3, 1, (3, 1, 3)),
    (5, 1, (1, 4)), (2, 1, (1, 1))])
def test_orbit_rep_is_shared_by_the_whole_orbit(p, k, blocks):
    # inside and outside B, fixed points included: every orbit point has the
    # same representative, and it lies in the orbit
    field = GF(p, k)
    for coords in itertools.product(field.elements(), repeat=sum(blocks)):
        orbit = orbit_raw(blocks, field, coords)
        rep = orbit_rep_raw(blocks, field, coords)
        assert rep in orbit, coords
        assert len(orbit) in (1, p), coords
        assert {orbit_rep_raw(blocks, field, w) for w in orbit} == {rep}, coords


def test_render_point():
    assert join_point(point_texts(F5, (1, 2, 3))) == "1,2,3"
    assert join_point(point_texts(GF(5, 2), ((1, 0), (2, 3)))) == "(1,0),(2,3)"


@given(st.integers(0, 5 ** 4 - 1))
def test_action_has_period_p(idx):
    spec = RepresentationSpec(5, (2, 2))
    coords = []
    rest = idx
    for _ in range(4):
        coords.append(rest % 5)
        rest //= 5
    coords = tuple(coords)
    cur = coords
    for _ in range(5):
        cur = act_raw(spec.blocks, F5, cur)
    assert cur == coords


@given(st.integers(0, 124))
def test_orbit_size_divides_p(idx):
    coords = (idx % 5, idx // 5 % 5, idx // 25)
    size = len(orbit_raw((3,), F5, coords))
    assert size in (1, 5)
    if coords[0] != 0:
        assert size == 5


# phi: dropping the last coordinate of one block of size n lands in the
# block of size n - 1 and commutes with the action


def test_phi_examples():
    assert act_raw((3,), F5, (1, 0, 0))[:-1] == act_raw((2,), F5, (1, 0)) == (1, 1)


@given(st.integers(0, 124))
def test_phi_equivariant(idx):
    coords = (idx % 5, idx // 5 % 5, idx // 25)
    assert act_raw((2,), F5, coords[:-1]) == act_raw((3,), F5, coords)[:-1]


def test_in_b_raw():
    assert in_b_raw((3,), F5, (1, 0, 0))
    assert not in_b_raw((3,), F5, (0, 1, 1))
    assert not in_b_raw((2, 2), F5, (1, 0, 0, 1))
    assert in_b_raw((2, 2), F5, (1, 0, 2, 1))
    # trivial blocks impose no condition
    assert in_b_raw((1, 2), F5, (0, 1, 1))
    assert not in_b_raw((1, 2), F5, (1, 0, 1))


@given(st.integers(0, 5 ** 4 - 1))
def test_B_is_action_stable(idx):
    blocks = (2, 2)
    coords = tuple(idx // 5 ** i % 5 for i in range(4))
    assert in_b_raw(blocks, F5, act_raw(blocks, F5, coords)) == in_b_raw(blocks, F5, coords)


@given(st.integers(3, 9), st.data())
def test_grading_containment_degree2(d, data):
    # delta(W_d) ⊆ W_{d-2} + W_{d-1}
    n = 8
    basis = weight_basis("W", d, n).monomials
    coeffs = [data.draw(st.integers(-4, 4)) for _ in basis]
    table = VariableTable((n,))
    f = Polynomial(QQ, table, {e: F(c) for e, c in zip(basis, coeffs)})
    support = set(weight_components(delta(f)))
    assert support <= {d - 2, d - 1}


@given(st.integers(3, 10), st.data())
def test_grading_containment_degree3(d, data):
    # delta(S_d) ⊆ S_{d-3} + S_{d-2} + S_{d-1}
    n = 8
    basis = weight_basis("S", d, n).monomials
    coeffs = [data.draw(st.integers(-4, 4)) for _ in basis]
    table = VariableTable((n,))
    f = Polynomial(QQ, table, {e: F(c) for e, c in zip(basis, coeffs)})
    support = set(weight_components(delta(f)))
    assert support <= {d - 3, d - 2, d - 1}
    # and the image stays inside the S-span one weight down
    for w, part in weight_components(delta(f)).items():
        span = set(weight_basis("S", w, n).monomials)
        assert {e for e, _ in part.terms()} <= span
