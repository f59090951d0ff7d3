"""The invariant suites: norms, integral forms and the blockwise suite
(build_suite).  builder re-exports every public name of this module."""

from collections import namedtuple
from math import lcm

from .action import RepresentationSpec
from .builder import ConnectingInvariant, _connecting_rational, connecting_degree
from .poly import Polynomial, Record, VariableTable, embed, ring_code
from .rings import GF, QQ, ZZ, DenominatorDivisibleByP, RationalRing, Ring


# ---------------------------------------------------------------------------
# Norms and integral forms.


def norm_invariant(p: int, ring: Ring, table: VariableTable, offset: int = 0) -> Polynomial:
    """Orbit product of the block's second variable: x1^(p-1)*x2 - x2^p,
    placed at `offset` within `table`.

    Its reduction mod p is invariant; over Q or Z it is the canonical
    integer-coefficient lift of that invariant.
    """
    one, second = ring.one(), offset + 1
    return Polynomial.from_nonzero_keys(ring, table, {
        (p, second, 1, offset, p - 1): one, (p, second, p): ring.neg(one)})


def _integral_terms(f, p: int) -> dict:
    """f_m's terms from its numerators v over D, g = gcd(D, every v): v/g over
    Z (p = 0), and v/g * (D/g)^-1 over F_p, zeros dropped.  D/g is the lcm of
    the reduced denominators, so this fails where change_ring would."""
    g, scale = f.gcd, f.denominator // f.gcd
    if p and scale % p == 0:
        raise DenominatorDivisibleByP(f"f{f.table.n} has a denominator divisible by {p}")
    if not p:
        return {k: v // g for k, v in f.numerators.items()}
    inverse = pow(scale, -1, p)
    return {k: c for k, v in f.numerators.items() if (c := v // g * inverse % p)}


def integral_form(f) -> Polynomial:
    """Clear denominators of a rational polynomial by the lcm of its
    coefficient denominators."""
    if isinstance(f, ConnectingInvariant):
        f = f.polynomial
    if not isinstance(f.ring, RationalRing):
        raise ValueError("integral_form expects a rational polynomial")
    scale = lcm(*(c.denominator for c in f._terms.values()))
    return Polynomial.from_nonzero_keys(
        ZZ, f.table, {k: (c * scale).numerator for k, c in f._terms.items()})


# ---------------------------------------------------------------------------
# Suites.


class SuiteEntry(Record, namedtuple(
        "SuiteEntry", "name block_index degree kind polynomial")):
    """One suite entry; block_index is 1-based and kind is "linear", "norm"
    or "connecting"."""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "blockIndex": self.block_index,
            "degree": self.degree,
            "kind": self.kind,
            "polynomial": self.polynomial.to_json_dict(),
        }


class InvariantSuite(Record, namedtuple("InvariantSuite", "spec ring entries")):
    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "spec": {"p": self.spec.p, "blocks": list(self.spec.blocks)},
            "ring": ring_code(self.ring),
            "entries": [e.to_json_dict() for e in self.entries],
        }


def _entry_name(spec: RepresentationSpec, block: int, j: int) -> str:
    """Name of block's connecting invariant f_j."""
    return f"f{j}" if len(spec.blocks) == 1 else f"f{block}_{j}"


def build_suite(spec: RepresentationSpec, ring: str = "fp") -> InvariantSuite:
    """Blockwise invariant suite for a representation.

    Per block of size s: the fixed leading variable; for s >= 2 the norm of
    the second variable; for each 3 <= j <= s the connecting invariant f_j.
    ring selects the coefficient domain: "q" (rationals, as constructed),
    "z" (denominators cleared), or "fp" (reduced mod p).  Over Z and F_p the
    connecting invariants are read off the construction's integers, and
    over Q its Fraction terms are made once, when first read.
    """
    if ring not in ("q", "z", "fp"):
        raise ValueError(f"ring must be q, z, or fp, got {ring!r}")
    target = {"q": QQ, "z": ZZ, "fp": GF(spec.p)}[ring]
    table = spec.table
    entries = []
    for b, size in enumerate(spec.blocks, start=1):
        offset = table.block_offsets[b - 1]
        entries.append(SuiteEntry(
            table.names[offset], b, 1, "linear",
            Polynomial.variable(target, table, offset)))
        if size >= 2:
            entries.append(SuiteEntry(
                f"N({table.names[offset + 1]})", b, spec.p, "norm",
                norm_invariant(spec.p, target, table, offset)))
        for j in range(3, size + 1):
            f = _connecting_rational(j).polynomial
            if ring != "q":
                f = Polynomial.from_nonzero_keys(
                    target, f.table, _integral_terms(f, target.characteristic))
            entries.append(SuiteEntry(
                _entry_name(spec, b, j), b, connecting_degree(j),
                "connecting", embed(f, table, offset)))
    return InvariantSuite(spec, target, tuple(entries))


def suite_construction_steps(spec: RepresentationSpec) -> list:
    """Elimination-step records for every connecting invariant of a suite."""
    out = []
    for b, size in enumerate(spec.blocks, start=1):
        for j in range(3, size + 1):
            ci = _connecting_rational(j)
            out.append({
                "blockIndex": b,
                "name": _entry_name(spec, b, j),
                "n": ci.n,
                "degree": ci.degree,
                "steps": ci.steps,
            })
    return out


__all__ = [
    "InvariantSuite", "SuiteEntry", "build_suite", "integral_form", "norm_invariant",
    "suite_construction_steps",
]
