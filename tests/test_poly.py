import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.poly import (DimensionMismatch, MissingImage, Polynomial,
                         TableMismatch, VariableTable, embed, grlex_key,
                         monomial_text)
from modinv.rings import GF, QQ, ZZ, RingMismatch, coerce

F5 = GF(5)
T3 = VariableTable((3,))
T4 = VariableTable((4,))


def qpoly(table, terms):
    return Polynomial(QQ, table, {e: F(c) for e, c in terms.items()})


F3_RATIONAL = qpoly(T3, {(1, 0, 1): 1, (0, 2, 0): F(-1, 2), (1, 1, 0): F(1, 2)})
F3_MOD5 = F3_RATIONAL.change_ring(F5)   # x1*x3 + 2*x2^2 + 3*x1*x2


def test_variable_table_names_and_weights():
    assert T3.names[0] == "x1" and T3.names[2] == "x3"
    multi = VariableTable((2, 3))
    assert multi.names[0] == "x1_1" and multi.names[4] == "x2_3"
    assert multi.block_offsets == (0, 2)
    assert T3.weight_of((1, 0, 1)) == 4
    assert T3.weight_of((0, 3, 0)) == 6
    assert VariableTable((2, 2)).weight_of((0, 1, 0, 1)) == 4  # per-block positions


def test_table_validation():
    with pytest.raises(ValueError):
        VariableTable(())
    with pytest.raises(ValueError):
        VariableTable((2, 0))


def test_product_difference_of_squares():
    x1 = Polynomial.variable(QQ, T3, 0)
    x2 = Polynomial.variable(QQ, T3, 1)
    assert (x1 + x2) * (x1 - x2) == qpoly(T3, {(2, 0, 0): 1, (0, 2, 0): -1})


def test_cancellation_prunes_to_zero():
    x2sq = qpoly(T3, {(0, 2, 0): 1})
    assert (x2sq + x2sq.scale(F(-1))).is_zero
    assert not (x2sq - x2sq)


def test_char5_scalar_cancellation():
    m = Polynomial.monomial(F5, T3, (1, 0, 1))
    assert (3 * m + 2 * m).is_zero


def test_ring_and_table_mismatch():
    with pytest.raises(RingMismatch):
        Polynomial.variable(QQ, T3, 0) + Polynomial.variable(ZZ, T3, 0)
    with pytest.raises(TableMismatch):
        Polynomial.variable(QQ, T3, 0) + Polynomial.variable(QQ, T4, 0)


def test_substitute_square_expansion():
    x1 = Polynomial.variable(QQ, T3, 0)
    x2 = Polynomial.variable(QQ, T3, 1)
    out = qpoly(T3, {(0, 2, 0): 1}).substitute({1: x1 + x2})
    assert out == qpoly(T3, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})


def test_substitute_identity_and_distribution():
    x1 = Polynomial.variable(QQ, T3, 0)
    assert x1.substitute({0: x1}) == x1
    x2 = Polynomial.variable(QQ, T3, 1)
    x3 = Polynomial.variable(QQ, T3, 2)
    out = qpoly(T3, {(1, 0, 1): 1}).substitute({0: x1, 2: x2 + x3})
    assert out == qpoly(T3, {(1, 1, 0): 1, (1, 0, 1): 1})


def test_substitute_missing_image():
    with pytest.raises(MissingImage):
        qpoly(T3, {(1, 0, 1): 1}).substitute({0: Polynomial.variable(QQ, T3, 0)})


def test_evaluate_f3_mod5():
    assert F3_MOD5 == Polynomial(F5, T3, {(1, 0, 1): 1, (0, 2, 0): 2, (1, 1, 0): 3})
    assert F3_MOD5.evaluate_raw((1, 0, 1), F5) == 1
    assert F3_MOD5.evaluate_raw((1, 2, 1), F5) == 0


def test_evaluate_zero_vector_gives_constant_term():
    f = qpoly(T3, {(0, 0, 0): 7, (1, 1, 1): 3})
    assert f.evaluate_raw((F(0), F(0), F(0)), QQ) == F(7)


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        F3_MOD5.evaluate_raw((1, 2), F5)


def test_evaluate_integer_poly_at_prime_field_point():
    f = Polynomial(ZZ, T3, {(1, 0, 1): 2, (0, 2, 0): -1})
    assert f.evaluate_raw((1, 3, 2), F5) == (2 * 2 - 9) % 5


def reference_evaluate(f, coords, ring):
    """Term by term through ring.mul and ring.pow, every coefficient embedded."""
    acc = ring.zero()
    for exps, c in f._terms.items():
        val = coerce(c, f.ring, ring)
        for i, e in enumerate(exps):
            if e:
                val = ring.mul(val, ring.pow(coords[i], e))
        acc = ring.add(acc, val)
    return acc


EVAL_FIELDS = [GF(5), GF(7), GF(3121), GF(2, 3), GF(3, 2)]


@pytest.mark.parametrize("field", EVAL_FIELDS, ids=repr)
def test_field_evaluate_constant_and_zero(field):
    table = VariableTable((2,))
    seven = field.from_int(7)
    points = [(field.zero(), field.zero()), (field.one(), field.from_int(3))]
    for point in points:
        assert Polynomial.zero(field, table).evaluate_raw(point, field) == field.zero()
        assert Polynomial.constant(field, table, seven).evaluate_raw(point, field) == seven
        # a Z coefficient that vanishes in the field is dropped
        assert Polynomial.constant(ZZ, table, field.p).evaluate_raw(point, field) == field.zero()


def test_large_extension_field_evaluates_through_tables():
    # every field the modulus search accepts gets tables; 2^17 used to be
    # above their size limit
    field = GF(2, 17)
    table = VariableTable((3,))
    f = Polynomial(ZZ, table, {(0, 0, 0): 1, (2, 0, 1): 1, (0, 5, 0): 3, (1, 1, 19): 1})
    values = list(itertools.islice(field.elements(), 1, 200, 37))
    for coords in itertools.product([field.zero()] + values, repeat=3):
        expected = field.zero()
        for exps, c in f._terms.items():
            val = coerce(c, ZZ, field)
            for x, e in zip(coords, exps):
                val = field._mul_conv(val, field._pow_conv(x, e))
            expected = field.add(expected, val)
        assert f.evaluate_raw(coords, field) == expected
    # the tables ran: the generator's first powers, by convolution
    exp = field._exp
    g = field.decode(exp[1])
    powers = [field.one()]
    for _ in range(300):
        powers.append(field._mul_conv(powers[-1], g))
    assert [field.decode(c) for c in exp[:301]] == powers
    assert all(field._log[c] == i for i, c in enumerate(exp[:301]))


def test_weight_components_examples():
    f = qpoly(T3, {(1, 0, 1): 1, (0, 2, 0): 1})
    assert f.weight_components() == {4: f}
    comps = F3_RATIONAL.weight_components()
    assert set(comps) == {3, 4}
    assert comps[3] == qpoly(T3, {(1, 1, 0): F(1, 2)})
    assert comps[4] == qpoly(T3, {(1, 0, 1): 1, (0, 2, 0): F(-1, 2)})
    g = qpoly(T4, {(2, 0, 0, 1): 1})
    assert list(g.weight_components()) == [6]


@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9), max_size=6))
def test_weight_components_reassemble(terms):
    f = Polynomial(QQ, T3, {e: F(c) for e, c in terms.items()})
    total = Polynomial.zero(QQ, T3)
    for part in f.weight_components().values():
        total = total + part
    assert total == f


def test_zero_has_degree_minus_one():
    assert Polynomial.zero(QQ, T3).degree() == -1


def test_grlex_canonical_order():
    # graded lex with x_n heaviest: x1*x3 > x2^2 > x1*x2
    assert grlex_key((1, 0, 1)) > grlex_key((0, 2, 0)) > grlex_key((1, 1, 0))
    assert [e for e, _ in F3_RATIONAL.terms()] == [(1, 0, 1), (0, 2, 0), (1, 1, 0)]
    assert F3_RATIONAL.lead_term() == ((1, 0, 1), F(1))


def test_render_text_golden():
    assert F3_RATIONAL.render_text() == "x1*x3 - 1/2*x2^2 + 1/2*x1*x2"
    assert F3_MOD5.render_text() == "x1*x3 + 2*x2^2 + 3*x1*x2"
    assert Polynomial.zero(QQ, T3).render_text() == "0"
    assert qpoly(T3, {(0, 0, 0): -3}).render_text() == "-3"
    assert monomial_text(T3, (2, 0, 1)) == "x1^2*x3"


def test_render_extension_coefficients_parenthesized():
    f25 = GF(5, 2)
    f = Polynomial(f25, T3, {(1, 0, 0): (3, 1)})
    assert f.render_text() == "(3,1)*x1"


def test_json_golden_shape():
    data = F3_RATIONAL.to_json_dict()
    assert data["ring"] == "q" and data["p"] is None
    assert data["blocks"] == [3]
    assert data["terms"][0] == {"coeff": "1", "exps": [1, 0, 1]}


@pytest.mark.parametrize("ring,header,coeffs", [
    (QQ, {"ring": "q", "p": None}, ["1", "-2"]),
    (ZZ, {"ring": "z", "p": None}, ["1", "-2"]),
    (F5, {"ring": "fp", "p": 5}, ["1", "3"]),
    (GF(5, 2), {"ring": "fp", "p": 5, "k": 2}, ["1,0", "3,0"])])
def test_json_encoding_rings(ring, header, coeffs):
    # x1*x3 - 2*x2^2: ring code, p and k, rendered coefficients, lead first
    one = ring.one()
    two = ring.add(one, one)
    f = Polynomial(ring, T3, {(0, 2, 0): ring.neg(two), (1, 0, 1): one})
    assert f.to_json_dict() == {**header, "blocks": [3], "terms": [
        {"coeff": coeffs[0], "exps": [1, 0, 1]},
        {"coeff": coeffs[1], "exps": [0, 2, 0]}]}


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-5, 5), max_size=4),
    st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    st.integers(-5, 5), max_size=4))
def test_substitution_is_multiplicative(fterms, gterms):
    # substitution by the generator images is a ring homomorphism
    f = Polynomial(QQ, T3, {e: F(c) for e, c in fterms.items()})
    g = Polynomial(QQ, T3, {e: F(c) for e, c in gterms.items()})
    x1 = Polynomial.variable(QQ, T3, 0)
    x2 = Polynomial.variable(QQ, T3, 1)
    x3 = Polynomial.variable(QQ, T3, 2)
    images = {0: x1, 1: x1 + x2, 2: x2 + x3}
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


def test_embed_offsets():
    small = qpoly(VariableTable((2,)), {(1, 1): 1})
    table = VariableTable((3, 2))
    shifted = embed(small, table, 3)
    assert shifted == Polynomial(QQ, table, {(0, 0, 0, 1, 1): F(1)})
    with pytest.raises(DimensionMismatch):
        embed(small, table, 4)


def test_power_and_rmul():
    x2 = Polynomial.variable(QQ, T3, 1)
    assert x2 ** 3 == qpoly(T3, {(0, 3, 0): 1})
    assert 2 * x2 == x2.scale(F(2))
    assert (x2 ** 0) == Polynomial.constant(QQ, T3, F(1))


def test_change_ring_reduces_coefficients():
    assert F3_RATIONAL.change_ring(F5) == F3_MOD5
    lifted = Polynomial(ZZ, T3, {(1, 0, 1): 5, (1, 1, 0): 1}).change_ring(F5)
    assert lifted == Polynomial(F5, T3, {(1, 1, 0): 1})  # 5 ≡ 0 pruned
