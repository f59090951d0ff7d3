"""Exact coefficient arithmetic.

Four scalar domains are supported: arbitrary-precision rationals, integers,
prime fields F_p, and small extension fields F_{p^k} with a deterministically
chosen irreducible modulus.  Values are plain immutable "raw" values
(Fraction, int, or tuples of residues) that carry no ring; a Ring object does
the arithmetic on them and renders the textual encodings used in reports and
JSON.  Finite fields also number their elements by int codes in
elements() order, and tabulate polynomials on codes (extend_table), which is
how the verifier computes.  Nothing here ever rounds.
"""

import contextlib
import gc
import itertools
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
    """Deterministic Miller-Rabin; refuses n it cannot decide exactly."""
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


@contextlib.contextmanager
def gc_paused():
    """Suspend the cyclic garbage collector, then restore the caller's state.

    Bulk builds of tuples, ints and flat containers make no reference
    cycles, so the collector's passes over them cost time and free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Modulus search for extension fields.

IRREDUCIBLE_SEARCH_BOUND = 1 << 20

def _poly_deg(coeffs) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _poly_rem(num, den, p):
    """Remainder of num modulo a monic den over F_p (lists, low degree first)."""
    num = [c % p for c in num]
    dn = _poly_deg(den)
    for top in range(len(num) - 1, dn - 1, -1):
        factor = num[top]
        if factor:
            shift = top - dn
            for i in range(dn + 1):
                num[shift + i] = (num[shift + i] - factor * den[i]) % p
    return num[: _poly_deg(num) + 1]


def _poly_mulmod(a, b, f, p):
    """a*b modulo the monic f over F_p."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_rem(prod, f, p)


def _is_irreducible(coeffs, p) -> bool:
    """Ben-Or's test on the monic f of degree k (coeffs low degree first).

    A reducible f has an irreducible factor of some degree i <= k/2, which
    divides x^(p^i) - x; an irreducible f divides no x^(p^i) - x with i < k.
    So f is irreducible iff gcd(f, x^(p^i) - x) = 1 for every i <= k/2, with
    x^(p^i) reduced modulo f."""
    f = list(coeffs)
    h = [0, 1]                          # x^(p^i) mod f
    for _ in range((len(f) - 1) // 2):
        base, h = h, [1]
        for bit in bin(p)[2:]:
            h = _poly_mulmod(h, h, f, p)
            if bit == "1":
                h = _poly_mulmod(h, base, f, p)
        g = h + [0] * (2 - len(h))
        g[1] -= 1
        a, b = f, _poly_rem(g, f, p)
        while b:                        # Euclid, each divisor made monic
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
            a, b = b, _poly_rem(a, b, p)
        if len(a) > 1:
            return False
    return True


def find_irreducible(p: int, k: int, bound: int = IRREDUCIBLE_SEARCH_BOUND) -> tuple:
    """First monic irreducible of degree k over F_p, as a low-degree-first
    coefficient tuple of length k+1.

    Candidates are enumerated by counting upward in base p with the constant
    coefficient as the least significant digit, so the result is canonical:
    (5, 2) gives x^2 + 2 and (2, 2) gives x^2 + x + 1.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError("degree must be at least 1")
    if k > bound.bit_length() or p ** k > bound:     # p^k >= 2^k > bound
        raise BoundExceeded(f"modulus search over {p}^{k} elements exceeds bound {bound}")
    for idx in range(p ** k):
        coeffs = []
        rest = idx
        for _ in range(k):
            coeffs.append(rest % p)
            rest //= p
        candidate = tuple(coeffs) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("unreachable: irreducibles of every degree exist")


# ---------------------------------------------------------------------------
# Rings.


class Ring:
    """Interface shared by all coefficient rings.

    Subclasses implement arithmetic on raw values.  Raw values are always
    immutable and hashable and are compared in their natural Python order;
    for finite fields that is the order of ``elements()``, which fixes orbit
    representatives and the order of reports.
    """

    is_field = False
    characteristic = 0
    order = None  # number of elements; None when infinite

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

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

    def is_negative(self, a) -> bool:
        """Whether the rendered form carries a leading minus sign."""
        return False

    def render(self, a) -> str:
        raise NotImplementedError

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

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("1/0 over Q")
        return 1 / a

    def is_negative(self, a):
        return a < 0

    def render(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class IntegerRing(Ring):
    """The integers; raw values are int.  Division is refused."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_negative(self, a):
        return a < 0

    def render(self, a):
        return str(a)

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

    def zero(self):
        return 0

    def one(self):
        return 1

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


class ExtensionField(Ring):
    """F_{p^k} as F_p[x] modulo a monic irreducible.

    Raw values are length-k tuples of residues, low degree first.  The
    modulus is the canonical one from find_irreducible, so two fields with
    the same (p, k) are interchangeable.  Each element also has a code, its
    rank in elements() order: the residues read as base-p digits, the
    constant one most significant, so codes order like the tuples.  Three
    int tables on codes are built on first use (see _tables); extend_table
    works on codes through them, and mul, pow and inv convert their tuples.
    """

    is_field = True

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = find_irreducible(p, k)
        self.characteristic = p
        self.order = p ** k
        self._zero = (0,) * k
        self._elements = None
        self._log = self._exp = self._zech = None

    def encode(self, a) -> int:
        """The code of an element: its rank in elements()."""
        code = 0
        for r in a:
            code = code * self.p + r
        return code

    def decode(self, code: int) -> tuple:
        """The element with a code."""
        out = [0] * self.k
        for i in range(self.k - 1, -1, -1):
            code, out[i] = divmod(code, self.p)
        return tuple(out)

    def zero(self):
        return self._zero

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul_conv(self, a, b):
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * mod[j]
            prod[i] = 0
        return tuple(c % p for c in prod[:k])

    def _pow_conv(self, a, e):
        acc = self.one()
        while e:
            if e & 1:
                acc = self._mul_conv(acc, a)
            a = self._mul_conv(a, a)
            e >>= 1
        return acc

    def _tables(self):
        """(log, exp, zech) on codes, built on first use.

        g is the first generator of the multiplicative group in code order.
        log[c] is the log of code c to base g, and exp[i] the code of g^i;
        zero's log, log[0], is 2(q - 1), past every sum of two logs, and exp
        is 0 from there on, so a product is exp[log a + log b], zeros
        included.  exp runs through the cycle twice, so a sum of two logs
        needs no reduction.  zech[n] is log(1 + g^n) (zero's log where that
        is 0), so nonzero a and b add to exp[log a + zech[log b - log a]]; a
        negative index wraps like n mod q - 1."""
        if self._log is None:
            self._build_tables()
        return self._log, self._exp, self._zech

    def _build_tables(self):
        # g generates exactly when g^((q-1)/r) != 1 for every prime r | q - 1
        cycle = self.order - 1
        primes = [r for r in range(2, cycle + 1) if cycle % r == 0 and is_prime(r)]
        one = self.one()
        for code in range(1, self.order):
            g = self.decode(code)
            if all(self._pow_conv(g, cycle // r) != one for r in primes):
                break
        # Multiplication by g is F_p-linear: g*v is the sum of v_i * (g*x^i).
        # Residue vectors are packed into one int, w bits per residue, so two
        # add in one int addition.  The sum's residues are at most 2p - 2,
        # and one reached p exactly when adding 2^(w-1) - p sets its top bit;
        # reduce takes p off there.  The images of the low and the high half
        # of the residues are tabulated, so each next power of g is one
        # reduced sum of two table entries.
        p, k, half = self.p, self.k, self.k // 2
        flag = (2 * p - 2).bit_length()     # w - 1, the flag bit of a residue
        w = flag + 1

        def pack(residues):
            return sum(r << (w * i) for i, r in enumerate(residues))

        flags = pack([1 << flag] * k)
        bias = pack([(1 << flag) - p] * k)

        def reduce(x):
            return x - (((x + bias) & flags) * p >> flag)

        def half_tables(lo, hi):
            """packed residues lo..hi-1 -> (packed image under g, their
            share of the code)"""
            images, codes = {0: 0}, {0: 0}
            for i in range(lo, hi):
                column = pack(self._mul_conv(g, tuple(int(i == j) for j in range(k))))
                unit, place = 1 << (w * (i - lo)), p ** (k - 1 - i)
                for key, image in list(images.items()):
                    code = codes[key]
                    for d in range(1, p):
                        image = reduce(image + column)
                        images[key + d * unit] = image
                        codes[key + d * unit] = code + d * place
            return images, codes

        (low, low_code), (high, high_code) = half_tables(0, half), half_tables(half, k)
        shift = w * half
        mask = (1 << shift) - 1
        logs = [0] * self.order     # by code
        exp = [0] * cycle           # by log
        x = 1
        for i in range(cycle):
            lo, hi = x & mask, x >> shift
            exp[i] = code = low_code[lo] + high_code[hi]
            logs[code] = i
            x = low[lo] + high[hi]
            x -= ((x + bias) & flags) * p >> flag     # reduce, inlined
        logs[0] = 2 * cycle
        # adding 1 adds 1 to the most significant digit, place q/p, mod p
        place = self.order // p
        plus_one = logs[place:] + logs[:place]      # log(1 + a) at a's code
        self._zech = list(map(plus_one.__getitem__, exp))
        exp *= 2
        exp.extend(itertools.repeat(0, 2 * cycle + 1))
        self._exp, self._log = exp, logs

    def mul(self, a, b):
        log, exp, _ = self._tables()
        return self.decode(exp[log[self.encode(a)] + log[self.encode(b)]])

    def inv(self, a):
        if a == self._zero:
            raise DivisionByZero(f"1/0 over {self!r}")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        code = self.encode(a)
        if not code:
            return self.one() if e == 0 else self._zero
        log, exp, _ = self._tables()
        return self.decode(exp[log[code] * e % (self.order - 1)])

    def extend_table(self, coeffs, xs):
        # on codes, through the tables: see _tables
        log, exp, zech = self._tables()
        cycle, nolog = self.order - 1, log[0]
        logs = list(map(log.__getitem__, xs))
        out = None
        for e, table in coeffs.items():
            powers = ([0] * len(xs) if e == 0 else logs if e == 1 else
                      [v if v == nolog else v * e % cycle for v in logs])
            part = [exp[a + v] for a in map(log.__getitem__, table) for v in powers]
            out = part if out is None else [
                b if not a else a if not b else exp[(la := log[a]) + zech[log[b] - la]]
                for a, b in zip(out, part)]
        return out

    def render(self, a):
        return ",".join(str(c) for c in a)

    def elements(self):
        # tuple-lexicographic order, the order of codes, built once
        if self._elements is None:
            with gc_paused():
                self._elements = tuple(itertools.product(range(self.p), repeat=self.k))
        return self._elements

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Fpk", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def GF(p: int, k: int = 1) -> Ring:
    """Finite field with p^k elements (PrimeField when k == 1)."""
    if k == 1:
        return PrimeField(p)
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
    if isinstance(src, IntegerRing):
        if isinstance(dst, RationalRing):
            return Fraction(value)
        return dst.from_int(value)
    if isinstance(src, RationalRing):
        if isinstance(dst, PrimeField):
            return reduce_fraction(value, dst.p)
        if isinstance(dst, ExtensionField):
            return dst.from_int(reduce_fraction(value, dst.p))
    if isinstance(src, PrimeField) and isinstance(dst, ExtensionField) and dst.p == src.p:
        return dst.from_int(value)
    raise RingMismatch(f"no embedding {src!r} -> {dst!r}")
