import itertools
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.extension import ExtensionField, _is_irreducible, _poly_rem, find_irreducible
from modinv.rings import (GF, QQ, ZZ, BoundExceeded, DenominatorDivisibleByP,
                          DivisionByZero, NotAField, PrimeField, RingMismatch,
                          coerce, is_prime, reduce_fraction)

F5 = GF(5)


def test_prime_field_examples():
    assert F5.add(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.mul(2, F5.inv(2)) == 1
    assert F5.neg(1) == 4
    assert F5.sub(1, 3) == 3
    assert F5.pow(2, -1) == 3


def test_rational_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)
    assert QQ.render(QQ.neg(Fraction(1, 2))) == "-1/2"


def test_integers_refuse_division():
    assert ZZ.mul(3, -4) == -12
    with pytest.raises(NotAField):
        ZZ.inv(2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.inv(0)
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        GF(5, 2).inv((0, 0))
    for field in (GF(3, 2), GF(2, 3)):      # Ring.pow over the table mul
        zero, one = field.zero(), field.one()
        assert field.pow(zero, 0) == one
        with pytest.raises(DivisionByZero):
            field.pow(zero, -1)
        for x in field.elements()[1:]:
            for e in range(1, field.order + 1):
                assert field.pow(x, -e) == field.pow(field.inv(x), e)
                assert field.mul(field.pow(x, -e), field._pow_conv(x, e)) == one


def test_prime_validation():
    assert is_prime(13) and not is_prime(1) and not is_prime(9)
    with pytest.raises(ValueError):
        PrimeField(6)
    # a float p would build a field whose values render as "2.0"
    for p in (5.0, "5"):
        for make in (is_prime, PrimeField, GF, lambda p: GF(p, 2),
                     lambda p: find_irreducible(p, 2)):
            with pytest.raises(TypeError, match=f"^{p!r} is not an integer$"):
                make(p)


@given(st.integers(0, 10 ** 5 - 1))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)))


def test_is_prime_large():
    assert is_prime(1_000_000_000_000_000_003)
    # strong pseudoprimes to every prime base up to 23 and up to 37
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(ValueError, match="too large"):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_reduce_mod_p_examples():
    assert reduce_fraction(Fraction(-1, 2), 5) == 2
    assert reduce_fraction(Fraction(1, 3), 5) == 2
    with pytest.raises(DenominatorDivisibleByP):
        reduce_fraction(Fraction(1, 5), 5)


# denominators coprime to 5 so the reduction is defined
_p_integral = st.fractions(
    min_value=-50, max_value=50, max_denominator=24,
).filter(lambda f: f.denominator % 5 != 0)


@given(_p_integral, _p_integral)
def test_reduce_is_ring_homomorphism(a, b):
    red = lambda x: reduce_fraction(x, 5)
    assert red(a * b) == F5.mul(red(a), red(b))
    assert red(a + b) == F5.add(red(a), red(b))


def test_find_irreducible_examples():
    assert find_irreducible(5, 1) == (0, 1)            # x
    assert find_irreducible(5, 2) == (2, 0, 1)         # x^2 + 2
    assert find_irreducible(2, 2) == (1, 1, 1)         # x^2 + x + 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)])
def test_find_irreducible_is_first_rootless(p, k):
    # independent check: for k <= 3 irreducible over F_p <=> no root in F_p,
    # and the canonical order counts the non-leading coefficients in base p
    # with the constant term least significant
    def has_root(coeffs):
        return any(
            sum(c * pow(a, i, p) for i, c in enumerate(coeffs)) % p == 0
            for a in range(p))

    found = find_irreducible(p, k)
    assert len(found) == k + 1 and found[-1] == 1
    assert not has_root(found)
    idx = sum(c * p ** i for i, c in enumerate(found[:-1]))
    for j in range(idx):
        coeffs = []
        rest = j
        for _ in range(k):
            coeffs.append(rest % p)
            rest //= p
        assert has_root(tuple(coeffs) + (1,))


def test_find_irreducible_bound():
    with pytest.raises(BoundExceeded):
        find_irreducible(2, 25)


def trial_division_irreducible(coeffs, p):
    """The earlier exhaustive test: no monic divisor of degree 1..k/2."""
    for d in range(1, (len(coeffs) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_rem(list(coeffs), list(tail) + [1], p):
                return False
    return True


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 82) if is_prime(p)
                                 for k in range(2, 14) if p ** k <= 3 ** 8])
def test_ben_or_matches_trial_division(p, k):
    # every monic polynomial of degree k over F_p, k = 1 being trivial
    for tail in itertools.product(range(p), repeat=k):
        coeffs = tail + (1,)
        assert _is_irreducible(coeffs, p) == trial_division_irreducible(coeffs, p), coeffs


def test_find_irreducible_2_16_matches_trial_division():
    first = next(tail + (1,) for tail in (
        tuple(idx >> i & 1 for i in range(16)) for idx in range(1 << 16))
        if trial_division_irreducible(tail + (1,), 2))
    assert find_irreducible(2, 16) == first == (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,)


def test_extension_field_f4_arithmetic():
    f4 = GF(2, 2)
    x, x1 = (0, 1), (1, 1)
    assert f4.mul(x, x1) == (1, 0)          # x(x+1) = x^2+x = 1 mod x^2+x+1
    assert f4.add(x, x1) == (1, 0)
    assert f4.inv(x) == x1
    assert f4.pow(x, 3) == f4.one()


def test_extension_field_tower_embedding():
    f25 = GF(5, 2)
    assert f25.modulus == (2, 0, 1)
    a = coerce(3, GF(5), f25)
    assert a == (3, 0)
    assert coerce(Fraction(1, 2), QQ, f25) == (3, 0)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2)])
def test_nonzero_elements_have_full_order_divisor(p, k):
    field = GF(p, k)
    q = p ** k
    for e in field.elements():
        if e == field.zero():
            continue
        assert field.pow(e, q - 1) == field.one()


SMALL_EXTENSIONS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 8)
                    if p ** k <= 3 ** 5]


# the values below each typecode's bound fit in it
TYPECODE_BOUNDS = {"B": 1 << 8, "H": 1 << 16, "i": 1 << 31}


def decoded_tables(field):
    """The int tables read back as elements: (the powers of the generator
    in log order, {element: log}), after checking their layout."""
    log, exp, zech = field._tables()
    q, cycle = field.order, field.order - 1
    assert len(log) == q and log[0] == 2 * cycle       # zero's log
    assert len(exp) == 4 * cycle + 1 and len(zech) == cycle
    assert exp[cycle:2 * cycle] == exp[:cycle]          # the cycle twice
    assert not any(exp[2 * cycle:])                     # then zeros
    assert all(type(v) is int for table in (log, exp, zech) for v in table)
    for table in (log, exp, zech):      # each in the narrowest array that holds it
        assert type(table) is array
        top = max(table)
        assert table.typecode == next(t for t, bound in TYPECODE_BOUNDS.items() if top < bound)
    return ([field.decode(c) for c in exp[:cycle]],
            {field.decode(c): i for c, i in enumerate(log) if c})


@given(st.sampled_from(SMALL_EXTENSIONS))
def test_log_tables_use_first_full_order_element(pk):
    field = ExtensionField(*pk)
    one = field.one()
    for g in field.elements():          # brute force: walk each power cycle
        if g == field.zero():
            continue
        powers = [one]
        while (x := field._mul_conv(powers[-1], g)) != one:
            powers.append(x)
        if len(powers) == field.order - 1:
            break
    field.mul(one, one)                 # builds the tables
    exp, log = decoded_tables(field)
    assert exp == powers
    assert log == {v: i for i, v in enumerate(powers)}


def reference_exp(field):
    """Powers of the generator as the tables were first built: the same
    generator search, then one convolution product per power."""
    cycle = field.order - 1
    primes = [r for r in range(2, cycle + 1) if cycle % r == 0 and is_prime(r)]
    one = field.one()
    g = next(g for g in field.elements() if g != field.zero() and all(
        field._pow_conv(g, cycle // r) != one for r in primes))
    powers = [one]
    for _ in range(cycle - 1):
        powers.append(field._mul_conv(powers[-1], g))
    return powers


# beyond the small fields: the largest table, odd k with odd and even p
# (an unequal split of the packed residues) and the widest residues; codes
# first need "H" at 17^2 and "i" at 257^2, logs "H" at 2^8 and "i" at 2^16
EXP_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for k in range(2, 10)
              if p ** k <= 5 ** 4] + [(2, 16), (2, 15), (3, 7), (251, 2), (257, 2)]


@pytest.mark.parametrize("p,k", EXP_FIELDS)
def test_exp_table_matches_convolution_walk(p, k):
    field = ExtensionField(p, k)
    field.mul(field.one(), field.one())     # builds the tables
    expected = reference_exp(field)
    exp, log = decoded_tables(field)
    assert exp == expected
    assert log == {v: i for i, v in enumerate(expected)}
    # zech[n] is the log of 1 + g^n, zero's log where that is zero
    zech, one = field._tables()[2], field.one()
    assert list(zech) == [field._log[field.encode(field.add(one, v))] for v in expected]


def test_tables_are_int_arrays():
    tracemalloc.start()
    try:
        field = ExtensionField(2, 16)
        tables = field._tables()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2 bytes a power (4(q - 1) + 1 of them) and 4 a log (q and q - 1 of
    # them), about 1.0 MiB, built beside one more table of q logs; as C ints
    # throughout, with slices copied, they held 1.51 MiB and peaked at 2.06
    assert [t.typecode for t in tables] == ["i", "H", "i"]
    assert held < 1.1 * 2 ** 20 and peak < 1.4 * 2 ** 20


def field_cases(q_max):
    return [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                             59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 251)
            for k in range(1, 9) if p ** k <= q_max]


def code_sums_and_products(field, xs, ys):
    """extend_table on codes: every x + y, then every x * y and x * y^e."""
    one = field.encode(field.one())
    sums = field.extend_table({0: xs, 1: [one] * len(xs)}, ys)
    products = field.extend_table({1: xs}, ys)
    return sums, products


@pytest.mark.parametrize("p,k", field_cases(256))
def test_code_kernels_on_every_pair(p, k):
    field = GF(p, k)
    q = field.order
    elements = field.elements()
    assert [field.encode(a) for a in elements] == list(range(q))
    assert [field.decode(c) for c in range(q)] == list(elements)
    mul = field._mul_conv if k > 1 else lambda a, b: a * b % p
    codes = list(range(q))
    sums, products = code_sums_and_products(field, codes, codes)
    for a in codes:
        for b in codes:
            x, y = elements[a], elements[b]
            assert field.decode(sums[a * q + b]) == field.add(x, y), (x, y)
            assert field.decode(products[a * q + b]) == mul(x, y), (x, y)
            assert field.mul(x, y) == mul(x, y)
    for e in (0, 1, 2, p, q - 2, q - 1, q):
        powers = field.extend_table({e: [field.encode(field.one())]}, codes)
        expected = [field._pow_conv(x, e) if k > 1 else pow(x, e, p) for x in elements]
        assert [field.decode(c) for c in powers] == expected, e
        assert [field.pow(x, e) for x in elements] == expected, e


@pytest.mark.parametrize("p,k", [(17, 2), (2, 16), (3, 10), (7, 5), (251, 2), (257, 2),
                                 (2, 20)])
def test_code_kernels_on_sampled_pairs(p, k):
    field = GF(p, k)
    rng = random.Random(p ** k)
    xs = [0, field.encode(field.one())] + [rng.randrange(1, field.order) for _ in range(100)]
    # b = -a makes every Zech step that lands on zero
    negatives = [field.encode(field.neg(field.decode(a))) for a in xs]
    ys = negatives + [0] + [rng.randrange(1, field.order) for _ in range(100)]
    sums, products = code_sums_and_products(field, xs, ys)
    for i, a in enumerate(xs):
        x = field.decode(a)
        assert field.encode(x) == a
        for j, b in enumerate(ys):
            y = field.decode(b)
            assert field.decode(sums[i * len(ys) + j]) == field.add(x, y)
            assert field.decode(products[i * len(ys) + j]) == field._mul_conv(x, y)
        assert sums[i * len(ys) + i] == 0       # a + (-a)
        assert field.mul(x, field.decode(ys[i])) == field._mul_conv(x, field.decode(ys[i]))


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_field_axioms_prime_field(a, b, c):
    a, b, c = F5.from_int(a), F5.from_int(b), F5.from_int(c)
    assert F5.add(F5.add(a, b), c) == F5.add(a, F5.add(b, c))
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    assert F5.mul(F5.mul(a, b), c) == F5.mul(a, F5.mul(b, c))


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_extension(i, j, k):
    f25 = GF(5, 2)
    els = list(f25.elements())
    a, b, c = els[i], els[j], els[k]
    assert f25.add(f25.add(a, b), c) == f25.add(a, f25.add(b, c))
    assert f25.mul(a, f25.add(b, c)) == f25.add(f25.mul(a, b), f25.mul(a, c))
    assert f25.mul(f25.mul(a, b), c) == f25.mul(a, f25.mul(b, c))


def test_render():
    assert QQ.render(Fraction(-1, 2)) == "-1/2"
    assert QQ.render(Fraction(3)) == "3"
    assert F5.render(3) == "3"
    assert GF(5, 2).render((3, 1)) == "3,1"
    assert ZZ.render(-3) == "-3"
    # a coefficient is negative where its text starts with "-"; no finite
    # field element's does
    assert ZZ.render(ZZ.neg(1)) == "-1"
    assert F5.render(F5.neg(1)) == "4" and GF(5, 2).render(GF(5, 2).neg((1, 1))) == "4,4"


def test_coerce_paths():
    assert coerce(7, ZZ, F5) == 2
    assert coerce(Fraction(1, 2), QQ, F5) == 3
    assert coerce(-3, ZZ, QQ) == Fraction(-3)
    with pytest.raises(RingMismatch):
        coerce(2, F5, GF(7))
    with pytest.raises(RingMismatch):
        coerce((1, 0), GF(5, 2), F5)
    with pytest.raises(RingMismatch):
        coerce(Fraction(1, 2), QQ, ZZ)
    with pytest.raises(DenominatorDivisibleByP):
        coerce(Fraction(1, 5), QQ, GF(5, 2))
    with pytest.raises(RingMismatch):
        coerce(2, F5, GF(7, 2))
    assert coerce(7, ZZ, GF(5, 2)) == (2, 0)


def test_extension_field_equality_and_pickle():
    import pickle
    f25 = GF(5, 2)
    assert f25 == ExtensionField(5, 2) and f25 != GF(5, 3)
    clone = pickle.loads(pickle.dumps(f25))
    assert clone == f25
    assert clone.mul((0, 1), (0, 1)) == f25.mul((0, 1), (0, 1))
    # built tables travel with the pickle
    warm = pickle.loads(pickle.dumps(f25))
    assert warm._exp is not None
    assert warm._tables() == f25._tables()
    assert decoded_tables(warm)[0] == reference_exp(f25)
    # pickling builds none; the copy builds the same ones on first use
    fresh, used = GF(3, 2), GF(3, 2)
    used.mul(used.one(), used.one())
    assert fresh._exp is None
    cold = pickle.loads(pickle.dumps(fresh))
    assert cold._exp is None
    cold.mul(cold.one(), cold.one())
    assert cold._tables() == used._tables()
    assert decoded_tables(cold)[0] == reference_exp(used)


def test_public_error_paths():
    with pytest.raises(ValueError, match="p must be prime"):
        find_irreducible(4, 2)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        find_irreducible(5, 0)
    with pytest.raises(TypeError, match="QQ is not finite"):
        QQ.elements()
    assert hash(ZZ) == hash(ZZ) != hash(QQ)
