"""Action of the cyclic group of prime order p on polynomials and points.

The representation is a direct sum of unipotent Jordan blocks over a field of
characteristic p.  On coordinates the generator fixes each block's first
variable and sends every later one to itself plus its predecessor; the same
substitution defines the action on polynomials.  delta = sigma - id is the
difference operator whose kernel is the invariant ring.  Both are computed
in closed form, term by term: sigma of a monomial is a product of binomials
(x_{i-1} + x_i)^a, expanded over Z (in characteristic p, mod p and only
where the binomial coefficient does not vanish) and scaled by the term's
coefficient.

Points are plain tuples of raw field values, one per variable, and the
functions on them take the block sizes and the field alongside the tuple:
act_raw, orbit_raw, in_b_raw (membership of the open set B where every
nontrivial block has a nonzero leading coordinate), the orbit
representative, and the one point renderer: point_texts gives each
coordinate's text and join_point joins them.
"""

from collections import namedtuple
from functools import cached_property
from math import comb

from .poly import Polynomial, Record, VariableTable, key_powers
from .rings import Ring, is_prime


class BlockExceedsP(Exception):
    """A Jordan block larger than p is not unipotent of order p."""


class RepresentationSpec(Record, namedtuple("RepresentationSpec", "p blocks")):
    """Prime p together with the Jordan block sizes, each in 1..p."""

    def __new__(cls, p, blocks):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        blocks = tuple(int(s) for s in blocks)
        if not blocks:
            raise ValueError("at least one block is required")
        for s in blocks:
            if s < 1:
                raise ValueError(f"block sizes must be positive, got {s}")
            if s > p:
                raise BlockExceedsP("block size exceeds p")
        return super().__new__(cls, p, blocks)

    @cached_property
    def n(self) -> int:
        return sum(self.blocks)

    @cached_property
    def m(self) -> int:
        """Number of nontrivial blocks (size >= 2)."""
        return sum(1 for s in self.blocks if s >= 2)

    @cached_property
    def r(self) -> int:
        """Number of trivial blocks (size 1)."""
        return sum(1 for s in self.blocks if s == 1)

    @cached_property
    def table(self) -> VariableTable:
        return VariableTable(self.blocks)


# ---------------------------------------------------------------------------
# Action on polynomials.


def _binomials(a: int, p: int) -> list:
    """(j, comb(a, j)) for j = 0..a, or, when p > 0, reduced mod p and only
    for the j whose base-p digits are each at most a's: by Lucas's theorem
    comb(a, j) is the product of the digits' binomials mod p, and vanishes
    for every other j."""
    if not p:
        return [(j, comb(a, j)) for j in range(a + 1)]
    out, place = [(0, 1)], 1
    while a:
        a, digit = divmod(a, p)
        out = [(j + i * place, c * comb(digit, i) % p)
               for i in range(digit + 1) for j, c in out]
        place *= p
    return out


def _sigma_monomial(table: VariableTable, key: tuple, p: int) -> dict:
    """sigma of the monomial with sparse key `key` (poly.grlex_key) over Z,
    or mod p when p > 0, as {key: int}.

    Each block's first variable is fixed; every later x_i with exponent a
    becomes (x_{i-1} + x_i)^a, expanded by binomial coefficients (mod p,
    only those that do not vanish).  The variables are taken from the first
    up, and each partial product is a key without its degree: its highest
    variable is at most x_{i-1}, the one the expansion of x_i may raise.
    sigma keeps the degree.  The image contains the monomial itself with
    coefficient 1 and otherwise only terms of lower weight; mod p, some of
    those may sum to 0.
    """
    positions = table.positions
    out = {(): 1}
    for i, a in key_powers(key):
        if positions[i][1] == 1:
            out = {(i, a) + k: c for k, c in out.items()}
            continue
        binomials = _binomials(a, p)
        nxt = {}
        for k, c in out.items():
            # k times x_{i-1}^j * x_i^(a-j); k's top variable may be x_{i-1}
            below = k[1] if k and k[0] == i - 1 else 0
            rest = k[2:] if below else k
            for j, b in binomials:
                e = (((i, a - j) if j < a else ())
                     + ((i - 1, below + j) if below + j else ()) + rest)
                v = nxt.get(e, 0) + c * b
                nxt[e] = v % p if p else v
        out = nxt
    degree = key[:1]
    return {degree + k: c for k, c in out.items()}


def _act(f: Polynomial, minus_identity: bool) -> Polynomial:
    """sigma(f), or delta(f) when each term's own monomial is left out."""
    ring = f.ring
    out = {}
    for key, c in f._terms.items():
        for e, k in _sigma_monomial(f.table, key, ring.characteristic).items():
            if minus_identity and e == key:
                continue
            v = c if k == 1 else ring.mul(c, ring.from_int(k))
            out[e] = ring.add(out[e], v) if e in out else v
    return Polynomial.from_keys(ring, f.table, out)


def sigma(f: Polynomial) -> Polynomial:
    """Generator action: first variable of each block fixed, later ones sent
    to themselves plus their predecessor."""
    return _act(f, minus_identity=False)


def delta(f: Polynomial) -> Polynomial:
    """sigma(f) - f; zero exactly on invariants."""
    return _act(f, minus_identity=True)


# ---------------------------------------------------------------------------
# Action on points.


def point_texts(ring: Ring, coords) -> list:
    """The text of each coordinate, as JSON lists it."""
    return [ring.render(c) for c in coords]


def join_point(texts) -> str:
    """Comma-separated coordinate texts; F_{p^k} values are parenthesised."""
    if any("," in t for t in texts):
        texts = [f"({t})" for t in texts]
    return ",".join(texts)


def act_raw(blocks, ring: Ring, coords: tuple) -> tuple:
    """Generator action on raw coordinates, block by block."""
    out = list(coords)
    offset = 0
    for size in blocks:
        for j in range(size - 1, 0, -1):
            out[offset + j] = ring.add(coords[offset + j - 1], coords[offset + j])
        offset += size
    return tuple(out)


def orbit_raw(blocks, ring: Ring, coords: tuple) -> list:
    """Full orbit, starting at coords; length is 1 or p."""
    out = [coords]
    nxt = act_raw(blocks, ring, coords)
    while nxt != coords:
        out.append(nxt)
        nxt = act_raw(blocks, ring, nxt)
    return out


def in_b_raw(blocks, ring: Ring, coords: tuple) -> bool:
    """Whether every nontrivial block has a nonzero leading coordinate."""
    zero = ring.zero()
    offset = 0
    for size in blocks:
        if size >= 2 and coords[offset] == zero:
            return False
        offset += size
    return True


def orbit_rep_raw(blocks, ring: Ring, coords: tuple) -> tuple:
    """Canonical representative: the lexicographically smallest orbit point."""
    return min(orbit_raw(blocks, ring, coords))
