"""Sparse multivariate polynomials over the exact coefficient rings.

A VariableTable fixes the block structure and the flat variable order
x_1 < x_2 < ... < x_n.  A Polynomial maps sparse monomial keys (grlex_key)
to nonzero raw coefficients.  Descending key order is the canonical term
order, graded lexicographic with the *last* variable heaviest, used for
text and JSON.  The public interface speaks dense exponent tuples: the
constructor, monomial, terms(), lead_term() and the JSON `exps` lists.
"""

import operator
from collections import Counter, namedtuple
from functools import cached_property

from .rings import IntegerRing, RationalRing, Ring, RingMismatch, coerce


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


def block_sizes(blocks) -> tuple:
    """blocks as a tuple of ints; a size that is not an integer, such as 2.7
    or "2", raises TypeError naming it rather than being converted."""
    out = []
    for s in blocks:
        try:
            out.append(operator.index(s))
        except TypeError:
            raise TypeError(f"block sizes must be integers, got {s!r}") from None
    return tuple(out)


class VariableTable(Record, namedtuple("VariableTable", "blocks")):
    """Variables of a direct sum of blocks, flattened block by block.

    Within block b of size s the variables sit at block positions 1..s; the
    flat order concatenates the blocks.  Single-block variables are named
    x1..xn, multi-block ones x<block>_<position>.
    """

    def __new__(cls, blocks):
        blocks = block_sizes(blocks)
        if not blocks or any(s < 1 for s in blocks):
            raise ValueError("blocks must be a nonempty tuple of positive sizes")
        return super().__new__(cls, blocks)

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


def grlex_key(exps) -> tuple:
    """Sparse key of a dense exponent tuple, under which a Polynomial keeps
    the term: the total degree, then (index, exponent) for each variable
    that occurs, 0-based and last variable first.  x1^2*x5 has the key
    (3, 4, 1, 0, 2) in a table of any size.

    Keys compare as the canonical order does: total degree, then lex with
    the last variable heaviest.  Descending key order is canonical.
    """
    return _key({i: e for i, e in enumerate(exps) if e})


def _key(powers: dict) -> tuple:
    """Key of the product of x_i^powers[i] over the 0-based indices i."""
    out = [sum(powers.values())]
    for i in sorted(powers, reverse=True):
        out += (i, powers[i])
    return tuple(out)


def product_key(indices) -> tuple:
    """Key of the product of the variables with these 0-based indices, each
    taken as often as it is listed: (4, 0, 0) gives x1^2*x5's key."""
    return _key(Counter(indices))


def key_powers(key):
    """(index, exponent) of each variable of a key, first variable first."""
    return zip(key[-2:0:-2], key[:0:-2])


def _key_mul(a, b) -> tuple:
    """Key of the product of two monomials."""
    powers = dict(key_powers(a))
    for i, e in key_powers(b):
        powers[i] = powers.get(i, 0) + e
    return _key(powers)


def _dense(n, key) -> list:
    """Exponent list over n variables of a key."""
    out = [0] * n
    for i, e in key_powers(key):
        out[i] = e
    return out


def key_text(table: VariableTable, key) -> str:
    """Name of the monomial with this key, first variable first: 'x1^2*x3'."""
    names = table.names
    return "*".join([names[i] if e == 1 else f"{names[i]}^{e}"
                     for i, e in key_powers(key)])


def monomial_text(table: VariableTable, exps) -> str:
    """Name of the monomial with dense exponent tuple exps."""
    return key_text(table, grlex_key(exps))


class Polynomial:
    """Immutable sparse polynomial: ring, table, and key->coefficient map."""

    def __init__(self, ring: Ring, table: VariableTable, terms: dict):
        """terms maps dense exponent tuples to raw coefficients; zeros are
        dropped."""
        zero = ring.zero()
        clean = {}
        n = table.n
        for exps, c in terms.items():
            if len(exps) != n:
                raise DimensionMismatch(f"exponent tuple {exps} for {n} variables")
            if c != zero:
                clean[grlex_key(exps)] = c
        self.ring = ring
        self.table = table
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_keys(cls, ring, table, terms: dict):
        """Polynomial whose terms map sparse keys (see grlex_key) to raw
        coefficients.  It keeps `terms` as its own map, without a copy:
        zero coefficients are deleted from it, and nothing may change it
        afterwards."""
        zero = ring.zero()
        for key in [k for k, c in terms.items() if c == zero]:
            del terms[key]
        return cls.from_nonzero_keys(ring, table, terms)

    @classmethod
    def from_nonzero_keys(cls, ring, table, terms: dict):
        """from_keys for terms known to be nonzero: no coefficient is tested."""
        f = cls.__new__(cls)
        f.ring, f.table, f._terms = ring, table, terms
        return f

    @classmethod
    def zero(cls, ring, table):
        return cls.from_keys(ring, table, {})

    @classmethod
    def constant(cls, ring, table, value):
        return cls.from_keys(ring, table, {(0,): value})

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

    def _sorted_keys(self) -> list:
        return sorted(self._terms, reverse=True)

    def terms(self):
        """Term list [(exps, coeff)] in the canonical descending order."""
        n, terms = self.table.n, self._terms
        return [(tuple(_dense(n, k)), terms[k]) for k in self._sorted_keys()]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self._terms)[0] if self._terms else -1

    def lead_term(self):
        """(exps, coeff) maximal in the canonical order; None for zero."""
        if not self._terms:
            return None
        key = max(self._terms)
        return tuple(_dense(self.table.n, key)), self._terms[key]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")
        if other.table != self.table:
            raise TableMismatch(f"{self.table.blocks} vs {other.table.blocks}")
        return other

    def __add__(self, other):
        other = self._check(other)
        add = self.ring.add
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = add(out[k], c) if k in out else c
        return Polynomial.from_keys(self.ring, self.table, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.ring.neg
        return Polynomial.from_keys(self.ring, self.table,
                                    {k: neg(c) for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.from_int(other))
        other = self._check(other)
        ring = self.ring
        out = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = _key_mul(k1, k2)
                c = ring.mul(c1, c2)
                out[k] = ring.add(out[k], c) if k in out else c
        return Polynomial.from_keys(ring, self.table, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(self.ring.from_int(other))
        return NotImplemented

    def scale(self, value):
        """Multiply every coefficient by a raw ring value."""
        mul = self.ring.mul
        return Polynomial.from_keys(self.ring, self.table,
                                    {k: mul(c, value) for k, c in self._terms.items()})

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
        return hash((self.ring, self.table, frozenset(self._terms.items())))

    # -- structure ops -------------------------------------------------------

    def substitute(self, images: dict) -> "Polynomial":
        """Substitute each 0-based variable i by images[i].

        Every variable that actually occurs must have an image; images must
        share this polynomial's ring and table.
        """
        for i, g in images.items():
            if g.ring != self.ring:
                raise RingMismatch(f"{self.ring!r} vs {g.ring!r}")
            if g.table != self.table:
                raise TableMismatch("substitution image over a different table")
        out = Polynomial.zero(self.ring, self.table)
        power_cache = {}
        for key, c in self._terms.items():
            term = Polynomial.constant(self.ring, self.table, c)
            for power in key_powers(key):
                if power not in power_cache:
                    i, e = power
                    if i not in images:
                        raise MissingImage(f"no image for {self.table.names[i]}")
                    power_cache[power] = images[i] ** e
                term = term * power_cache[power]
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
        for key, c in self._terms.items():
            val = c if same else coerce(c, src, ring)
            for i, e in key_powers(key):
                val = ring.mul(val, ring.pow(coords[i], e))
            acc = ring.add(acc, val)
        return acc

    def change_ring(self, ring: Ring) -> "Polynomial":
        """Map coefficients along the canonical embedding (zeros are pruned).
        The result shares this polynomial's keys."""
        src = self.ring
        return Polynomial.from_keys(ring, self.table,
                                    {k: coerce(c, src, ring) for k, c in self._terms.items()})

    # -- serialization -------------------------------------------------------

    def term_texts(self):
        """(key, coefficient text) of each term in canonical order, as
        render_text, to_json_dict and the CLI's JSON read them."""
        render, terms = self.ring.render, self._terms
        return ((k, render(terms[k])) for k in self._sorted_keys())

    def render_text(self) -> str:
        """Human-readable form, canonical term order: 'x1*x3 - 1/2*x2^2 + ...'.
        A coefficient is negative where its text starts with '-'."""
        table, one = self.table, self.ring.render(self.ring.one())
        pieces = []
        for key, text in self.term_texts():
            negative = text[0] == "-"
            mag = text[1:] if negative else text
            mono = key_text(table, key)
            if mono and mag == one:
                body = mono
            else:
                body = f"({mag})" if "," in mag else mag
                body = f"{body}*{mono}" if mono else body
            sign = ("- " if negative else "+ ") if pieces else "-" if negative else ""
            pieces.append(sign + body)
        return " ".join(pieces) if pieces else "0"

    def to_json_dict(self) -> dict:
        ring, n = self.ring, self.table.n
        out = {"ring": ring_code(ring), "p": getattr(ring, "p", None),
               "blocks": list(self.table.blocks),
               "terms": [{"coeff": t, "exps": _dense(n, k)} for k, t in self.term_texts()]}
        if hasattr(ring, "k"):      # F_{p^k}
            out["k"] = ring.k
        return out

    def __repr__(self):
        return f"<Polynomial {self.render_text()} over {self.ring!r}>"


def ring_code(ring: Ring) -> str:
    if isinstance(ring, RationalRing):
        return "q"
    if isinstance(ring, IntegerRing):
        return "z"
    if ring.characteristic:     # F_p or F_{p^k}
        return "fp"
    raise ValueError(f"no code for {ring!r}")


def embed(f: Polynomial, table: VariableTable, offset: int) -> Polynomial:
    """Re-index f into a larger table, shifting its variables by `offset`.
    At offset 0 the keys stay as they are, and the result shares f's terms."""
    if offset < 0 or offset + f.table.n > table.n:
        raise DimensionMismatch("embedding does not fit in the target table")
    if not offset:
        return Polynomial.from_nonzero_keys(f.ring, table, f._terms)
    terms = {}
    for key, c in f._terms.items():
        shifted = list(key)
        shifted[1::2] = [i + offset for i in key[1::2]]
        terms[tuple(shifted)] = c
    return Polynomial.from_nonzero_keys(f.ring, table, terms)


def json_terms(n: int, texts, newline: str):
    """json.dumps(sort_keys=True, indent=2) of the "terms" list of texts, a
    term_texts() over n variables, at the indent `newline` opens: one chunk
    per term, cut from the exponent rows of the constant monomial."""
    # imported here: importing poly, which every command does first, loads no json
    from json.encoder import encode_basestring_ascii as quoted
    inner = newline + "  "
    field, row = inner + "  ", "," + inner + "    "
    zeros, step = row.join(["0"] * n), len(row) + 1
    head, tail = "{" + field + '"coeff": ', field + "]" + inner + "}"
    middle, opening = "," + field + '"exps": [' + row[1:], "[" + inner
    for key, text in texts:
        chunk, at = opening + head + quoted(text) + middle, 0
        for i, e in key_powers(key):
            chunk += zeros[at:i * step] + str(e)
            at = i * step + 1
        yield chunk + zeros[at:] + tail
        opening = "," + inner
    yield "[]" if opening[0] == "[" else newline + "]"
