import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.poly import (DimensionMismatch, MissingImage, Polynomial,
                         TableMismatch, VariableTable, embed, grlex_key,
                         key_powers, monomial_text, product_key, ring_code)
from modinv.rings import GF, QQ, ZZ, Ring, RingMismatch, coerce
from polyref import (dense_add, dense_change_ring, dense_evaluate, dense_json,
                     dense_mul, dense_neg, dense_pow, dense_render, dense_scale,
                     dense_substitute, dense_terms, grlex_order,
                     weight_components, weight_of)

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
    assert weight_of(T3, (1, 0, 1)) == 4
    assert weight_of(T3, (0, 3, 0)) == 6
    assert weight_of(VariableTable((2, 2)), (0, 1, 0, 1)) == 4  # per-block positions


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
        for exps, c in f.terms():
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
    assert weight_components(f) == {4: f}
    comps = weight_components(F3_RATIONAL)
    assert set(comps) == {3, 4}
    assert comps[3] == qpoly(T3, {(1, 1, 0): F(1, 2)})
    assert comps[4] == qpoly(T3, {(1, 0, 1): 1, (0, 2, 0): F(-1, 2)})
    g = qpoly(T4, {(2, 0, 0, 1): 1})
    assert list(weight_components(g)) == [6]


@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9), max_size=6))
def test_weight_components_reassemble(terms):
    f = Polynomial(QQ, T3, {e: F(c) for e, c in terms.items()})
    total = Polynomial.zero(QQ, T3)
    for part in weight_components(f).values():
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


# -- sparse storage against the dense reference ---------------------------------

DIFF_RINGS = [QQ, GF(7), GF(3, 2)]
DIFF_TABLES = [VariableTable((5,)), VariableTable((2, 1, 3))]


def random_value(rng, ring):
    """A raw value of ring, zero now and then."""
    if ring is QQ:
        return F(rng.randint(-4, 4), rng.randint(1, 4))
    if getattr(ring, "k", None):
        return tuple(rng.randrange(ring.p) for _ in range(ring.k))
    return rng.randrange(ring.p)


def random_terms(rng, ring, n, count, top=2):
    """A dense term map of up to count terms, each variable present with
    probability 1/3; zero coefficients included."""
    return {tuple(rng.randint(1, top) if rng.random() < 1 / 3 else 0 for _ in range(n)):
            random_value(rng, ring) for _ in range(count)}


def dense_map(f):
    return dict(f.terms())


@pytest.mark.parametrize("table", DIFF_TABLES, ids=lambda t: str(t.blocks))
@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
@pytest.mark.parametrize("seed", range(6))
def test_sparse_polynomial_matches_dense_reference(ring, table, seed):
    rng = random.Random(seed)
    n = table.n
    a, b = (random_terms(rng, ring, n, rng.randint(0, 5)) for _ in range(2))
    f, g = Polynomial(ring, table, a), Polynomial(ring, table, b)
    zero = ring.zero()
    assert dense_map(f) == {e: c for e, c in a.items() if c != zero}
    a, b = dense_map(f), dense_map(g)
    # terms() lists the reference's terms in the dense grlex order
    assert f.terms() == dense_terms(a)
    assert [e for e, _ in g.terms()] == sorted(b, key=grlex_order, reverse=True)
    assert dense_map(f + g) == dense_add(ring, a, b)
    assert dense_map(-f) == dense_neg(ring, a)
    assert dense_map(f - g) == dense_add(ring, a, dense_neg(ring, b))
    assert dense_map(f * g) == dense_mul(ring, a, b)
    assert dense_map(f ** 2) == dense_pow(ring, n, a, 2)
    value = random_value(rng, ring)
    assert dense_map(f.scale(value)) == dense_scale(ring, a, value)
    images = [random_terms(rng, ring, n, 2, top=1) for _ in range(n)]
    substituted = f.substitute({i: Polynomial(ring, table, m) for i, m in enumerate(images)})
    assert dense_map(substituted) == dense_substitute(
        ring, n, a, [dense_map(Polynomial(ring, table, m)) for m in images])
    for _ in range(5):
        point = tuple(random_value(rng, ring) for _ in range(n))
        assert f.evaluate_raw(point, ring) == dense_evaluate(ring, a, point, ring)
    target = GF(7) if ring is QQ else ring
    assert dense_map(f.change_ring(target)) == dense_change_ring(ring, a, target)
    assert f.render_text() == dense_render(ring, table, a)
    assert f.to_json_dict() == dense_json(ring, table, a)
    # equality and hash follow the terms, whatever order they were given in
    items = list(a.items())
    rng.shuffle(items)
    again = Polynomial(ring, table, dict(items))
    assert again == f and hash(again) == hash(f)
    assert (f == g) == (a == b)
    assert f != f + Polynomial.monomial(ring, table, (3,) * n)


@pytest.mark.parametrize("n", [1, 3, 8, 101])
def test_sparse_key_order_is_the_dense_grlex_order(n):
    # the keys Polynomial stores compare as the dense grlex key did
    rng = random.Random(n)
    exps = [tuple(rng.choice((0, 0, 0, 0, 1, 1, 2, 3, 10 ** 20)) for _ in range(n))
            for _ in range(400)]
    assert sorted(exps, key=grlex_key) == sorted(exps, key=grlex_order)
    for a, b in zip(exps, exps[1:]):
        assert (grlex_key(a) < grlex_key(b)) == (grlex_order(a) < grlex_order(b))
        assert (grlex_key(a) == grlex_key(b)) == (a == b)
    for e in exps[:50]:
        # a key names the same monomial however it is built or walked
        indices = [i for i, a in enumerate(e) for _ in range(min(a, 3))]
        rng.shuffle(indices)
        assert product_key(indices) == grlex_key([min(a, 3) for a in e])
        assert list(key_powers(grlex_key(e))) == [(i, a) for i, a in enumerate(e) if a]


def test_sparse_keys_survive_huge_exponents_and_shifts():
    table = VariableTable((2, 3))
    p = 10 ** 18 + 3
    f = Polynomial(ZZ, table, {(0, p, 0, 0, 0): 1, (p - 1, 1, 0, 0, 0): -1})
    assert f.render_text() == f"x1_2^{p} - x1_1^{p - 1}*x1_2"
    assert f.degree() == p and f.lead_term() == ((0, p, 0, 0, 0), 1)
    wide = VariableTable((4, 2, 3))
    moved = embed(f, wide, 4)
    assert moved.terms() == [((0,) * 4 + e, c) for e, c in f.terms()]
    assert embed(f, wide, 0).terms() == [(e + (0,) * 4, c) for e, c in f.terms()]


def test_public_error_paths():
    x1 = Polynomial.variable(QQ, T3, 0)
    with pytest.raises(DimensionMismatch, match="exponent tuple"):
        Polynomial(QQ, T3, {(1, 0): F(1)})
    assert Polynomial.zero(QQ, T3).lead_term() is None
    with pytest.raises(TypeError, match="expected Polynomial, got int"):
        x1 + 3
    assert x1 * 3 == 3 * x1 == qpoly(T3, {(1, 0, 0): 3})
    with pytest.raises(TypeError):
        2.5 * x1
    with pytest.raises(ValueError, match="negative polynomial power"):
        x1 ** -1
    with pytest.raises(RingMismatch):
        x1.substitute({0: Polynomial.variable(F5, T3, 0)})
    with pytest.raises(TableMismatch):
        x1.substitute({0: Polynomial.variable(QQ, T4, 0)})
    assert repr(x1 * 3) == "<Polynomial 3*x1 over QQ>"
    with pytest.raises(ValueError, match="no code for"):
        ring_code(Ring())
