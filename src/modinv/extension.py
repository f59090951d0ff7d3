"""F_{p^k} for k >= 2: the modulus search and the extension field.

ExtensionField is F_p[x] modulo the first monic irreducible of degree k
(find_irreducible), with log, exp and Zech tables on int codes.  Only
rings.GF with k >= 2 imports this module, so commands over Q, Z and F_p
never compile it.
"""

import itertools
import math

from .rings import BoundExceeded, DivisionByZero, Ring, is_prime

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


def find_irreducible(p: int, k: int) -> tuple:
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
    bound = IRREDUCIBLE_SEARCH_BOUND
    if k > bound.bit_length() or p ** k > bound:     # p^k >= 2^k > bound
        raise BoundExceeded(f"modulus search over {p}^{k} elements exceeds bound {bound}")
    # product runs its last digit fastest, hence [::-1]; some candidate is irreducible
    candidates = (c[::-1] + (1,) for c in itertools.product(range(p), repeat=k))
    return next(f for f in candidates if _is_irreducible(f, p))


# ---------------------------------------------------------------------------
# The extension field.


class ExtensionField(Ring):
    """F_{p^k} as F_p[x] modulo a monic irreducible.

    Raw values are length-k tuples of residues, low degree first.  The
    modulus is the canonical one from find_irreducible, so two fields with
    the same (p, k) are interchangeable.  Each element also has a code, its
    rank in elements() order: the residues read as base-p digits, the
    constant one most significant, so codes order like the tuples.  Three
    int tables on codes are built on first use (see _tables); extend_table
    works on codes through them, and mul converts its tuples.  pow and inv
    are Ring's square-and-multiply over that mul.
    """

    is_field = True

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.modulus = find_irreducible(p, k)
        self.characteristic = p
        self.order = p ** k
        self._zero = (0,) * k
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
        prod = _poly_mulmod(a, b, self.modulus, self.p)
        return tuple(prod) + (0,) * (self.k - len(prod))

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
        negative index wraps like n mod q - 1.  Each table is an array of
        the narrowest typecode that holds its values: "B", "H" or "i" for
        exp's codes below q, and the same for the logs up to 2(q - 1) in
        log and zech; since find_irreducible refuses p^k above 2^20, a C int
        holds any of them."""
        if self._log is None:
            self._build_tables()
        return self._log, self._exp, self._zech

    def _build_tables(self):
        from array import array         # only fields that tabulate load it
        # g generates exactly when g^((q-1)/r) != 1 for every prime r | q - 1
        cycle = self.order - 1
        primes = [r for d in range(1, math.isqrt(cycle) + 1) if cycle % d == 0
                  for r in {d, cycle // d} if is_prime(r)]
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
        # reduced sum of two table entries; above bit w*k, the same sum adds
        # up the current power's code from each half's share.
        p, k, half = self.p, self.k, self.k // 2
        flag = (2 * p - 2).bit_length()     # w - 1, the flag bit of a residue
        w = flag + 1

        def pack(residues):
            return sum(r << (w * i) for i, r in enumerate(residues))

        flags = pack([1 << flag] * k)
        bias = pack([(1 << flag) - p] * k)
        high_bit = w * k

        def reduce(x):
            return x - (((x + bias) & flags) * p >> flag)

        def half_table(lo, hi):
            """packed residues lo..hi-1 -> their packed image under g, plus
            their share of the code above bit high_bit"""
            table = {0: 0}
            for i in range(lo, hi):
                column = pack(self._mul_conv(g, tuple(int(i == j) for j in range(k))))
                unit, place = 1 << (w * (i - lo)), p ** (k - 1 - i) << high_bit
                for key, entry in list(table.items()):
                    for d in range(1, p):
                        entry = reduce(entry + column) + place
                        table[key + d * unit] = entry
            return table

        low, high = half_table(0, half), half_table(half, k)
        shift = w * half
        mask, residues = (1 << shift) - 1, (1 << high_bit) - 1
        code_type, log_type = ("B" if top < 1 << 8 else "H" if top < 1 << 16 else "i"
                               for top in (cycle, 2 * cycle))
        exp = array(code_type, [0]) * (4 * cycle + 1)     # by log
        log = array(log_type, [0]) * self.order          # by code
        x = 1
        for i in range(cycle):
            x = low[x & mask] + high[x >> shift]
            x -= ((x + bias) & flags) * p >> flag     # reduce, inlined
            code = x >> high_bit
            exp[i], log[code] = code, i
            x &= residues
        powers = memoryview(exp)[:cycle]
        memoryview(exp)[cycle:2 * cycle] = powers
        log[0] = 2 * cycle
        # adding 1 adds 1 to the most significant digit, place q/p, mod p
        place = self.order // p
        plus_one = array(log_type, [0]) * self.order    # log(1 + a) at a's code
        rotated, logs = memoryview(plus_one), memoryview(log)
        rotated[:-place], rotated[-place:] = logs[place:], logs[:place]
        self._zech = array(log_type, map(plus_one.__getitem__, powers))
        self._exp, self._log = exp, log

    def mul(self, a, b):
        log, exp, _ = self._tables()
        return self.decode(exp[log[self.encode(a)] + log[self.encode(b)]])

    def inv(self, a):
        if a == self._zero:
            raise DivisionByZero(f"1/0 over {self!r}")
        return self.pow(a, self.order - 2)

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
        # tuple-lexicographic order, the order of codes
        return tuple(itertools.product(range(self.p), repeat=self.k))

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("Fpk", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


__all__ = ["ExtensionField", "IRREDUCIBLE_SEARCH_BOUND", "find_irreducible"]
