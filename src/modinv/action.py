"""Action of the cyclic group of prime order p on polynomials and points.

The representation is a direct sum of unipotent Jordan blocks over a field of
characteristic p.  On coordinates the generator fixes each block's first
variable and sends every later one to itself plus its predecessor; the same
substitution defines the action on polynomials.  delta = sigma - id is the
difference operator whose kernel is the invariant ring.  Both are computed
in closed form, term by term: sigma of a monomial is a product of binomials
(x_{i-1} + x_i)^a, expanded over Z and scaled by the term's coefficient.

Points are plain tuples of raw field values, one per variable, and the
functions on them take the block sizes and the field alongside the tuple:
act_raw, orbit_raw, in_b_raw (membership of the open set B where every
nontrivial block has a nonzero leading coordinate), the orbit
representative, and point_texts and render_point, the one point renderer.
"""

from collections import namedtuple
from functools import cached_property
from math import comb

from .poly import Polynomial, Record, VariableTable
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


def _sigma_monomial(table: VariableTable, exps: tuple) -> dict:
    """sigma(x^exps) over Z as {exponent tuple: int}.

    Each block's first variable is fixed; every later x_i with exponent a
    becomes (x_{i-1} + x_i)^a, expanded by binomial coefficients.  The image
    contains x^exps itself with coefficient 1 and otherwise only terms of
    lower weight.
    """
    out = {exps: 1}
    for i, a in enumerate(exps):
        if a and table.positions[i][1] > 1:
            # x_i still has exponent a in every term: later variables only
            # move weight onto it after this step
            nxt = {}
            for e, c in out.items():
                for j in range(a + 1):
                    key = e[:i - 1] + (e[i - 1] + j, a - j) + e[i + 1:]
                    nxt[key] = nxt.get(key, 0) + c * comb(a, j)
            out = nxt
    return out


def _act(f: Polynomial, minus_identity: bool) -> Polynomial:
    """sigma(f), or delta(f) when each term's own monomial is left out."""
    ring = f.ring
    zero = ring.zero()
    out = {}
    for exps, c in f._terms.items():
        for e, k in _sigma_monomial(f.table, exps).items():
            if minus_identity and e == exps:
                continue
            v = c if k == 1 else ring.mul(c, ring.from_int(k))
            out[e] = ring.add(out.get(e, zero), v)
    return Polynomial(ring, f.table, out)


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


def render_point(ring: Ring, coords) -> str:
    """Comma-separated coordinates; F_{p^k} values are parenthesised."""
    texts = point_texts(ring, coords)
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


def is_orbit_rep_raw(blocks, coords: tuple) -> bool:
    """Whether coords equals orbit_rep_raw, decided without walking the orbit.

    Let x_i be the first nonzero coordinate that is not last in its block.
    The action fixes x_i and every coordinate before it, and moves x_{i+1}
    through x_{i+1} + t*x_i, t in F_p.  Residues of x_{i+1} before the first
    nonzero residue of x_i stay fixed and the residue there takes every
    value, so the smallest orbit point is the one where that residue is 0;
    over F_p, the one with x_{i+1} == 0.  Points without such an x_i are
    fixed and represent themselves.
    """
    offset = 0
    for size in blocks:
        for i in range(offset, offset + size - 1):
            lead, succ = coords[i], coords[i + 1]
            if not isinstance(lead, tuple):     # F_p: a single residue
                lead, succ = (lead,), (succ,)
            for a, b in zip(lead, succ):
                if a:
                    return b == 0
        offset += size
    return True

