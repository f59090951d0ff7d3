"""Sparse multivariate polynomials over the exact coefficient rings.

A VariableTable fixes the block structure and the flat variable order
x_1 < x_2 < ... < x_n; polynomials are stored as maps from exponent tuples to
nonzero raw coefficients.  The canonical term order is graded lexicographic
with the *last* variable heaviest, iterated in descending order, which is
also the order used for text and JSON serialization.
"""

from collections import namedtuple
from functools import cached_property
from itertools import compress
from math import lcm

from .rings import (ExtensionField, IntegerRing, PrimeField, RationalRing, Ring,
                    coerce)


class TableMismatch(Exception):
    """Operands live over different variable tables."""


class MissingImage(Exception):
    """A substitution omitted a variable that actually occurs."""


class DimensionMismatch(Exception):
    """A point's length does not match the variable table."""


class Record:
    """Mixin for the namedtuple value classes: like a frozen dataclass, an
    instance equals only instances of its own class and takes no attribute
    assignment (cached_property writes to the instance dict directly)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VariableTable(Record, namedtuple("VariableTable", "blocks")):
    """Variables of a direct sum of blocks, flattened block by block.

    Within block b of size s the variables sit at block positions 1..s; the
    flat order concatenates the blocks.  Single-block variables are named
    x1..xn, multi-block ones x<block>_<position>.
    """

    def __new__(cls, blocks):
        if not blocks or any(s < 1 for s in blocks):
            raise ValueError("blocks must be a nonempty tuple of positive sizes")
        return super().__new__(cls, tuple(int(s) for s in blocks))

    @cached_property
    def n(self) -> int:
        return sum(self.blocks)

    @cached_property
    def positions(self) -> tuple:
        """(block index 0-based, position 1-based) for each flat variable."""
        out = []
        for b, size in enumerate(self.blocks):
            out.extend((b, j) for j in range(1, size + 1))
        return tuple(out)

    @cached_property
    def block_offsets(self) -> tuple:
        out = []
        acc = 0
        for size in self.blocks:
            out.append(acc)
            acc += size
        return tuple(out)

    @cached_property
    def names(self) -> tuple:
        """Display name of each flat variable."""
        if len(self.blocks) == 1:
            return tuple(f"x{i}" for i in range(1, self.n + 1))
        return tuple(f"x{b + 1}_{j}" for b, j in self.positions)

    def weight_of(self, exps) -> int:
        """Sum of block positions with multiplicity."""
        return sum(e * self.positions[i][1] for i, e in enumerate(exps) if e)


def grlex_key(exps):
    """Sort key for the canonical order: total degree, then lex with the
    last variable heaviest.  Descending sort by this key is canonical."""
    return (sum(exps), tuple(exps[::-1]))


def monomial_text(table: VariableTable, exps) -> str:
    names = table.names
    return "*".join(names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}"
                    for i in compress(range(len(exps)), exps))


class Polynomial:
    """Immutable sparse polynomial: ring, table, and exponent->coefficient map."""

    def __init__(self, ring: Ring, table: VariableTable, terms: dict):
        zero = ring.zero()
        clean = {}
        n = table.n
        for exps, c in terms.items():
            if len(exps) != n:
                raise DimensionMismatch(f"exponent tuple {exps} for {n} variables")
            if c != zero:
                clean[tuple(exps)] = c
        self.ring = ring
        self.table = table
        self._terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, table):
        return cls(ring, table, {})

    @classmethod
    def constant(cls, ring, table, value):
        return cls(ring, table, {(0,) * table.n: value})

    @classmethod
    def variable(cls, ring, table, i: int):
        exps = [0] * table.n
        exps[i] = 1
        return cls(ring, table, {tuple(exps): ring.one()})

    @classmethod
    def monomial(cls, ring, table, exps, coeff=None):
        return cls(ring, table, {tuple(exps): ring.one() if coeff is None else coeff})

    # -- basic accessors ----------------------------------------------------

    @property
    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def terms(self):
        """Term list [(exps, coeff)] in the canonical descending order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), self.ring.zero())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def lead_term(self):
        """(exps, coeff) maximal in the canonical order; None for zero."""
        if not self._terms:
            return None
        exps = max(self._terms, key=grlex_key)
        return exps, self._terms[exps]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise _ring_mismatch(self.ring, other.ring)
        if other.table != self.table:
            raise TableMismatch(f"{self.table.blocks} vs {other.table.blocks}")
        return other

    def __add__(self, other):
        other = self._check(other)
        ring = self.ring
        out = dict(self._terms)
        zero = ring.zero()
        for exps, c in other._terms.items():
            s = ring.add(out.get(exps, zero), c)
            if s == zero:
                out.pop(exps, None)
            else:
                out[exps] = s
        return Polynomial(ring, self.table, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        ring = self.ring
        return Polynomial(ring, self.table, {e: ring.neg(c) for e, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.from_int(other))
        other = self._check(other)
        ring = self.ring
        zero = ring.zero()
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = ring.add(out.get(exps, zero), ring.mul(c1, c2))
                if s == zero:
                    out.pop(exps, None)
                else:
                    out[exps] = s
        return Polynomial(ring, self.table, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.from_int(other))
        return NotImplemented

    def scale(self, value):
        """Multiply every coefficient by a raw ring value."""
        ring = self.ring
        return Polynomial(ring, self.table,
                          {e: ring.mul(c, value) for e, c in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        acc = Polynomial.constant(self.ring, self.table, self.ring.one())
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.table == self.table and other._terms == self._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.table, frozenset(self._terms.items())))
        return self._hash

    # -- structure ops -------------------------------------------------------

    def weight_components(self) -> dict:
        """Split into weight-homogeneous parts: weight -> Polynomial."""
        buckets = {}
        for exps, c in self._terms.items():
            buckets.setdefault(self.table.weight_of(exps), {})[exps] = c
        return {w: Polynomial(self.ring, self.table, t) for w, t in sorted(buckets.items())}

    def substitute(self, images: dict) -> "Polynomial":
        """Substitute each 0-based variable i by images[i].

        Every variable that actually occurs must have an image; images must
        share this polynomial's ring and table.
        """
        for i, g in images.items():
            if g.ring != self.ring:
                raise _ring_mismatch(self.ring, g.ring)
            if g.table != self.table:
                raise TableMismatch("substitution image over a different table")
        out = Polynomial.zero(self.ring, self.table)
        power_cache = {}
        for exps, c in self._terms.items():
            term = Polynomial.constant(self.ring, self.table, c)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i not in images:
                    raise MissingImage(f"no image for {self.table.names[i]}")
                key = (i, e)
                if key not in power_cache:
                    power_cache[key] = images[i] ** e
                term = term * power_cache[key]
            out = out + term
        return out

    def evaluate_raw(self, coords, ring: Ring):
        """Value at a point given as raw values of `ring`; returns a raw value.

        Coefficients are embedded into `ring` via the canonical coercion,
        so e.g. integer polynomials evaluate at prime-field points.
        """
        if len(coords) != self.table.n:
            raise DimensionMismatch(f"{len(coords)} coordinates for {self.table.n} variables")
        src = self.ring
        same = ring is src or ring == src
        acc = ring.zero()
        for exps, c in self._terms.items():
            val = c if same else coerce(c, src, ring)
            for i, e in enumerate(exps):
                if e:
                    val = ring.mul(val, ring.pow(coords[i], e))
            acc = ring.add(acc, val)
        return acc

    def change_ring(self, ring: Ring) -> "Polynomial":
        """Map coefficients along the canonical embedding (zeros are pruned)."""
        return Polynomial(ring, self.table,
                          {e: coerce(c, self.ring, ring) for e, c in self._terms.items()})

    def denominator_lcm(self) -> int:
        """lcm of coefficient denominators of a rational polynomial."""
        if not isinstance(self.ring, RationalRing):
            raise ValueError("denominator_lcm is defined for rational polynomials")
        out = 1
        for c in self._terms.values():
            out = lcm(out, c.denominator)
        return out

    # -- serialization -------------------------------------------------------

    def render_text(self) -> str:
        """Human-readable form, canonical term order: 'x1*x3 - 1/2*x2^2 + ...'."""
        if not self._terms:
            return "0"
        ring = self.ring
        pieces = []
        for exps, c in self.terms():
            negative = ring.is_negative(c)
            mag = ring.neg(c) if negative else c
            mono = monomial_text(self.table, exps)
            ctext = ring.render(mag)
            if "," in ctext:
                ctext = f"({ctext})"
            if mono and mag == ring.one():
                body = mono
            elif mono:
                body = f"{ctext}*{mono}"
            else:
                body = ctext
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        out = {
            "ring": ring_code(self.ring),
            "p": getattr(self.ring, "p", None),
            "blocks": list(self.table.blocks),
            "terms": [{"coeff": self.ring.render(c), "exps": list(e)}
                      for e, c in self.terms()],
        }
        if isinstance(self.ring, ExtensionField):
            out["k"] = self.ring.k
        return out

    def __repr__(self):
        return f"<Polynomial {self.render_text()} over {self.ring!r}>"


def _ring_mismatch(a, b):
    from .rings import RingMismatch
    return RingMismatch(f"{a!r} vs {b!r}")


def ring_code(ring: Ring) -> str:
    if isinstance(ring, RationalRing):
        return "q"
    if isinstance(ring, IntegerRing):
        return "z"
    if isinstance(ring, (PrimeField, ExtensionField)):
        return "fp"
    raise ValueError(f"no code for {ring!r}")


def embed(f: Polynomial, table: VariableTable, offset: int) -> Polynomial:
    """Re-index f into a larger table, shifting its variables by `offset`."""
    n_old = f.table.n
    if offset < 0 or offset + n_old > table.n:
        raise DimensionMismatch("embedding does not fit in the target table")
    pad_left = (0,) * offset
    pad_right = (0,) * (table.n - offset - n_old)
    return Polynomial(f.ring, table,
                      {pad_left + e + pad_right: c for e, c in f._terms.items()})
