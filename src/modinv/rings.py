"""Exact coefficient arithmetic.

Four scalar domains are supported: arbitrary-precision rationals, integers,
prime fields F_p, and small extension fields F_{p^k} with a deterministically
chosen irreducible modulus.  This module holds the first three, coercion,
the budget check and primality; F_{p^k} is in extension.py, which GF
imports only for k >= 2.  Values are plain immutable "raw" values
(Fraction, int, or tuples of residues) that carry no ring; a Ring object does
the arithmetic on them and renders the textual encodings used in reports and
JSON.  Ring's own methods are Python's arithmetic, which Q and Z use as they
are, and its pow is square-and-multiply over mul, which F_{p^k} uses.
Finite fields also number their elements by int codes in elements() order,
and tabulate polynomials on codes (extend_table), which is how the verifier
computes.  Nothing here ever rounds.
"""

import operator
from fractions import Fraction


class RingMismatch(Exception):
    """Operands (or an embedding request) involve incompatible rings."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion by the zero element."""


class NotAField(Exception):
    """Inverse requested in a ring without division (the integers)."""


class DenominatorDivisibleByP(Exception):
    """A rational whose denominator is divisible by p has no image in F_p."""


class BoundExceeded(Exception):
    """A brute-force search was asked to exceed its configured bound."""


class BudgetExceeded(Exception):
    """The requested enumeration is larger than the configured budget."""


DEFAULT_BUDGET = 10_000_000


def check_budget(q: int, n: int, budget: int):
    """Raise BudgetExceeded when the q^n points of a space exceed budget."""
    if n > budget.bit_length() or q ** n > budget:     # q^n >= 2^n > budget
        raise BudgetExceeded(f"{q}^{n} points exceed budget {budget}")


# Miller-Rabin on the first thirteen primes is exact below the smallest strong
# pseudoprime to all of them (twelve bases fail at 318665857834031151167461).
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n that is not an integer, or that
    it cannot decide exactly."""
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"{n!r} is not an integer") from None
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"{n} is too large for the primality test (limit 3.3e24)")
    if n < 2 or n in _PRIME_BASES:
        return n >= 2
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _PRIME_BASES:
        if pow(b, d, n) != 1 and all(pow(b, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# Rings.


class Ring:
    """Interface shared by all coefficient rings.

    Subclasses implement arithmetic on raw values.  Raw values are always
    immutable and hashable and are compared in their natural Python order;
    for finite fields that is the order of ``elements()``, which fixes orbit
    representatives and the order of reports.  The defaults are Python's
    own arithmetic, which is exact on the int and Fraction values of Z and Q.
    """

    is_field = False
    characteristic = 0
    order = None  # number of elements; None when infinite

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        raise NotAField(f"{self!r} has no division")

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one()
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def render(self, a) -> str:
        return str(a)

    def elements(self):
        """Every element in ascending order, as a sequence (finite rings only)."""
        raise TypeError(f"{self!r} is not finite")


class RationalRing(Ring):
    """The rationals; raw values are Fraction (lowest terms, positive denominator)."""

    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if not a:
            raise DivisionByZero("1/0 over Q")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class IntegerRing(Ring):
    """The integers; raw values are int.  Division is refused."""

    def from_int(self, n):
        return int(n)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


QQ = RationalRing()
ZZ = IntegerRing()


class PrimeField(Ring):
    """F_p; raw values are ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.characteristic = p
        self.order = p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 over F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def encode(self, a) -> int:
        """The code of an element (see ExtensionField): the residue itself."""
        return a

    decode = encode

    def extend_table(self, coeffs, xs):
        """Row-major table of sum_e a_e * x^e over every prefix and x in xs,
        on codes.

        coeffs maps each exponent e to the values a_e of its coefficient at
        every prefix point (all of one length); the result lists, prefix by
        prefix, the polynomial's value at each x.  Sums are reduced once per
        value.
        """
        p = self.p
        out = None
        for e, table in coeffs.items():
            powers = [pow(x, e, p) for x in xs]
            part = [a * w for a in table for w in powers]
            out = part if out is None else list(map(operator.add, out, part))
        return [v % p for v in out]

    def render(self, a):
        return str(a % self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int, k: int = 1) -> Ring:
    """Finite field with p^k elements (PrimeField when k == 1).  Any other k
    imports extension.py, so only F_{p^k} work compiles it."""
    if k == 1:
        return PrimeField(p)
    from .extension import ExtensionField
    return ExtensionField(p, k)


# ---------------------------------------------------------------------------
# Reduction and coercion between rings.


def reduce_fraction(a: Fraction, p: int) -> int:
    """Image of a rational in F_p; the denominator must be a unit mod p."""
    if a.denominator % p == 0:
        raise DenominatorDivisibleByP(f"{a} has no image in F_{p}")
    return a.numerator * pow(a.denominator, -1, p) % p


def coerce(value, src: Ring, dst: Ring):
    """Map a raw value along the canonical embedding src -> dst.

    Supported embeddings: identity, Z -> anything, Q -> F_p / F_{p^k}
    (reduction, which may fail on the denominator), F_p -> F_{p^k}.
    """
    if src == dst:
        return value
    if isinstance(src, RationalRing) and dst.characteristic:
        return dst.from_int(reduce_fraction(value, dst.characteristic))
    if isinstance(src, IntegerRing) or (
            isinstance(src, PrimeField) and src.p == dst.characteristic):
        return dst.from_int(value)
    raise RingMismatch(f"no embedding {src!r} -> {dst!r}")
