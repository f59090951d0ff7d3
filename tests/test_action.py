import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.action import (BlockExceedsP, BlockTooSmall, NotSingleBlock,
                           PointVector, RepresentationSpec, act_point, act_raw,
                           delta, delta_component, in_open_set_B,
                           is_orbit_rep_raw, orbit, orbit_raw, orbit_rep_raw,
                           project_phi, sigma)
from modinv.builder import norm_invariant, weight_basis
from modinv.poly import Polynomial, VariableTable
from modinv.rings import GF, QQ, ZZ

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
    assert delta_component(qpoly(T3, {(0, 2, 0): 1}), 3) == qpoly(T3, {(1, 1, 0): 2})
    got = delta_component(qpoly(T3, {(1, 1, 1): 1}), 5)
    assert got == qpoly(T3, {(2, 0, 1): 1, (1, 2, 0): 1})
    # delta_{d-1}(x1 x_{d-1}) = x1 x_{d-2} at d = 5
    t4 = VariableTable((4,))
    got = delta_component(Polynomial(QQ, t4, {(1, 0, 0, 1): F(1)}), 4)
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


def test_act_point_examples():
    v = PointVector(SPEC53, F5, (1, 0, 0))
    assert act_point(v).coords == (1, 1, 0)
    assert act_point(PointVector(SPEC53, F5, (0, 0, 0))).coords == (0, 0, 0)
    assert act_point(PointVector(SPEC53, F5, (1, 4, 1))).coords == (1, 0, 0)


def test_orbit_golden():
    got = orbit_raw((3,), F5, (1, 0, 0))
    assert got == [(1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 3, 3), (1, 4, 1)]
    assert orbit_raw((3,), F5, (0, 0, 2)) == [(0, 0, 2)]
    pts = orbit(PointVector(SPEC53, F5, (1, 0, 0)))
    assert len(pts) == 5 and pts[0].coords == (1, 0, 0)


@pytest.mark.parametrize("p,k,blocks", [
    (5, 1, (3,)), (3, 2, (2, 1)), (2, 2, (1, 2, 2)), (3, 1, (3, 1, 3)),
    (5, 1, (1, 4)), (2, 1, (1, 1))])
def test_is_orbit_rep_matches_orbit_minimum_everywhere(p, k, blocks):
    # inside and outside B, fixed points included
    field = GF(p, k)
    for coords in itertools.product(field.elements(), repeat=sum(blocks)):
        assert is_orbit_rep_raw(blocks, coords) == (
            orbit_rep_raw(blocks, field, coords) == coords), coords


def test_point_vector_validation():
    with pytest.raises(ValueError):
        PointVector(SPEC53, F5, (1, 0))
    with pytest.raises(ValueError):
        PointVector(SPEC53, GF(7), (1, 0, 0))
    assert PointVector(SPEC53, F5, (1, 2, 3)).render() == "1,2,3"
    f25 = GF(5, 2)
    v = PointVector(RepresentationSpec(5, (2,)), f25, ((1, 0), (2, 3)))
    assert v.render() == "(1,0),(2,3)"


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


def test_project_phi_examples():
    v = PointVector(SPEC53, F5, (1, 2, 3))
    assert project_phi(v).coords == (1, 2)
    assert project_phi(v).spec.blocks == (2,)
    lhs = project_phi(act_point(PointVector(SPEC53, F5, (1, 0, 0))))
    rhs = act_point(project_phi(PointVector(SPEC53, F5, (1, 0, 0))))
    assert lhs.coords == rhs.coords == (1, 1)


@given(st.integers(0, 124))
def test_project_phi_equivariant(idx):
    coords = (idx % 5, idx // 5 % 5, idx // 25)
    v = PointVector(SPEC53, F5, coords)
    assert project_phi(act_point(v)).coords == act_point(project_phi(v)).coords


def test_project_phi_errors():
    with pytest.raises(NotSingleBlock):
        project_phi(PointVector(RepresentationSpec(5, (2, 2)), F5, (1, 0, 1, 0)))
    with pytest.raises(BlockTooSmall):
        project_phi(PointVector(RepresentationSpec(5, (1,)), F5, (1,)))


def test_in_open_set_B():
    assert in_open_set_B(PointVector(SPEC53, F5, (1, 0, 0)))
    assert not in_open_set_B(PointVector(SPEC53, F5, (0, 1, 1)))
    spec22 = RepresentationSpec(5, (2, 2))
    assert not in_open_set_B(PointVector(spec22, F5, (1, 0, 0, 1)))
    assert in_open_set_B(PointVector(spec22, F5, (1, 0, 2, 1)))
    # trivial blocks impose no condition
    spec12 = RepresentationSpec(5, (1, 2))
    assert in_open_set_B(PointVector(spec12, F5, (0, 1, 1)))
    assert not in_open_set_B(PointVector(spec12, F5, (1, 0, 1)))


@given(st.integers(0, 5 ** 4 - 1))
def test_B_is_action_stable(idx):
    spec = RepresentationSpec(5, (2, 2))
    coords = tuple(idx // 5 ** i % 5 for i in range(4))
    v = PointVector(spec, F5, coords)
    assert in_open_set_B(act_point(v)) == in_open_set_B(v)


@given(st.integers(3, 9), st.data())
def test_grading_containment_degree2(d, data):
    # delta(W_d) ⊆ W_{d-2} + W_{d-1}
    n = 8
    basis = weight_basis("W", d, n).monomials
    coeffs = [data.draw(st.integers(-4, 4)) for _ in basis]
    table = VariableTable((n,))
    f = Polynomial(QQ, table, {e: F(c) for e, c in zip(basis, coeffs)})
    support = set(delta(f).weight_components())
    assert support <= {d - 2, d - 1}


@given(st.integers(3, 10), st.data())
def test_grading_containment_degree3(d, data):
    # delta(S_d) ⊆ S_{d-3} + S_{d-2} + S_{d-1}
    n = 8
    basis = weight_basis("S", d, n).monomials
    coeffs = [data.draw(st.integers(-4, 4)) for _ in basis]
    table = VariableTable((n,))
    f = Polynomial(QQ, table, {e: F(c) for e, c in zip(basis, coeffs)})
    support = set(delta(f).weight_components())
    assert support <= {d - 3, d - 2, d - 1}
    # and the image stays inside the S-span one weight down
    for w, part in delta(f).weight_components().items():
        span = set(weight_basis("S", w, n).monomials)
        assert set(part._terms) <= span
