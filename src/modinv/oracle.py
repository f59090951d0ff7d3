"""Brute-force verification over small finite fields.

Everything here is an independent check on the symbolic construction: suites
are re-evaluated pointwise over an exhaustively enumerated field, orbits are
computed by iterating the group action, and separation is decided by
comparing invariant fibers against actual orbits inside the open set B where
every nontrivial block has a nonzero leading coordinate.

Enumeration cost is q^n points; every entry point checks that against an
explicit budget before starting.  Orbits are counted by rep ownership: a
point is processed only when it is the smallest element of its own orbit in
the natural order of raw tuples, which action.is_orbit_rep_raw decides in
closed form.  The constancy check walks each orbit from that point, so
every point is evaluated once.  Worker partitioning by first coordinate is
exact (the first coordinate is fixed by the action, so an orbit never
crosses chunks) and the result independent of the worker count.
"""

import itertools
import multiprocessing
import os
from dataclasses import dataclass

from .action import (RepresentationSpec, act_raw, in_b_raw, is_orbit_rep_raw,
                     orbit_raw, render_point)
from .builder import InvariantSuite, _connecting_rational
from .rings import Ring


class BudgetExceeded(Exception):
    """The requested enumeration is larger than the configured budget."""


class OrbitConstancyError(Exception):
    """A suite entry changed along an orbit (it is not invariant)."""


DEFAULT_BUDGET = 10_000_000

# at most this many smallest representatives are retained per fiber
_KEEP_REPS = 11
_MAX_WITNESS_PAIRS = 10


def _check_budget(q: int, n: int, budget: int):
    if q ** n > budget:
        raise BudgetExceeded(f"{q}^{n} points exceed budget {budget}")


def _check_field(spec: RepresentationSpec, ring: Ring):
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if getattr(ring, "p", None) != spec.p:
        raise ValueError(f"field characteristic must be {spec.p}")


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else MODINV_THREADS, else 1."""
    if workers is None:
        raw = os.environ.get("MODINV_THREADS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"MODINV_THREADS must be an integer, got {raw!r}")
    return max(1, workers)


# ---------------------------------------------------------------------------
# Orbit constancy.


def verify_orbit_constancy(suite: InvariantSuite, ring: Ring,
                           budget: int = DEFAULT_BUDGET):
    """Check f(g.v) == f(v) for every point and entry; None when all hold.

    Each orbit is walked once from its representative, comparing the values
    at consecutive points; around the closed cycle that is the check at
    every point, for one evaluation per point.  On failure returns (entry
    name, coordinates of the first violating point in row-major enumeration
    order), naming the first entry that differs there.
    """
    spec = suite.spec
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
    polys = [e.polynomial.change_ring(ring) for e in suite.entries]
    blocks = spec.blocks
    witness = None      # (entry name, point), smallest point so far
    for rep in itertools.product(ring.elements(), repeat=spec.n):
        if witness is not None and rep > witness[1]:
            break       # later orbits lie above their representatives
        if not is_orbit_rep_raw(blocks, rep):
            continue
        orbit = orbit_raw(blocks, ring, rep)
        if len(orbit) == 1:
            continue    # fixed point
        values = [tuple(f.evaluate_raw(x, ring) for f in polys) for x in orbit]
        for point, here, after in zip(orbit, values, values[1:] + values[:1]):
            if here != after and (witness is None or point < witness[1]):
                entry = next(e for e, a, b in zip(suite.entries, here, after)
                             if a != b)
                witness = (entry.name, point)
    return witness


def require_orbit_constancy(suite: InvariantSuite, ring: Ring,
                            budget: int = DEFAULT_BUDGET):
    witness = verify_orbit_constancy(suite, ring, budget)
    if witness is not None:
        name, coords = witness
        raise OrbitConstancyError(
            f"{name} varies on the orbit of ({render_point(ring, coords)})")


# ---------------------------------------------------------------------------
# Separation.


def _scan_chunk(args):
    """Count B-points and collect invariant fibers for a set of first
    coordinates; returns (pointsInB, {key: [orbitCount, smallestReps]}).

    firsts ascend, so representatives arrive in ascending order and each
    fiber keeps the first _KEEP_REPS it meets."""
    suite, ring, firsts = args
    spec = suite.spec
    blocks = spec.blocks
    n = spec.n
    polys = [e.polynomial.change_ring(ring) for e in suite.entries]
    points_in_b = 0
    fibers = {}
    for first in firsts:
        for rest in itertools.product(ring.elements(), repeat=n - 1):
            coords = (first,) + rest
            if not in_b_raw(blocks, ring, coords):
                continue
            points_in_b += 1
            if not is_orbit_rep_raw(blocks, coords):
                continue  # another orbit point owns this orbit
            key = tuple(f.evaluate_raw(coords, ring) for f in polys)
            slot = fibers.get(key)
            if slot is None:
                fibers[key] = [1, [coords]]
            else:
                slot[0] += 1
                if len(slot[1]) < _KEEP_REPS:
                    slot[1].append(coords)
    return points_in_b, fibers


def _merge_fibers(results):
    points_in_b = 0
    merged = {}
    for pb, fibers in results:
        points_in_b += pb
        for key, (count, reps) in fibers.items():
            slot = merged.get(key)
            if slot is None:
                merged[key] = [count, list(reps)]
            else:
                slot[0] += count
                slot[1].extend(reps)
    return points_in_b, merged


@dataclass(frozen=True)
class SeparationReport:
    """Outcome of one exhaustive separation check."""

    spec: RepresentationSpec
    ring: Ring
    total_points: int
    points_in_b: int
    orbit_count_in_b: int
    fiber_count: int
    separated: bool
    witness_pairs: tuple    # pairs of raw coordinate tuples, canonical order

    def _coord_texts(self, coords):
        return [self.ring.render(c) for c in coords]

    def to_json_dict(self) -> dict:
        return {
            "spec": {"p": self.spec.p, "blocks": list(self.spec.blocks)},
            "field": {"p": self.ring.p, "k": getattr(self.ring, "k", 1),
                      "order": self.ring.order},
            "totalPoints": self.total_points,
            "pointsInB": self.points_in_b,
            "orbitCountInB": self.orbit_count_in_b,
            "fiberCount": self.fiber_count,
            "separated": self.separated,
            "witnessPairs": [[self._coord_texts(a), self._coord_texts(b)]
                             for a, b in self.witness_pairs],
        }

    def render(self) -> str:
        k = getattr(self.ring, "k", 1)
        field = f"F_{self.ring.p}" if k == 1 else f"F_{self.ring.p}^{k}"
        lines = [
            f"p={self.spec.p} blocks={list(self.spec.blocks)} field={field}",
            f"  totalPoints    {self.total_points}",
            f"  pointsInB      {self.points_in_b}",
            f"  orbitCountInB  {self.orbit_count_in_b}",
            f"  fiberCount     {self.fiber_count}",
            f"  separated      {'yes' if self.separated else 'no'}",
        ]
        if self.witness_pairs:
            lines.append("  witnessPairs")
            for a, b in self.witness_pairs:
                lines.append(f"    ({render_point(self.ring, a)}) ~ "
                             f"({render_point(self.ring, b)})")
        return "\n".join(lines)


def separation_report(suite: InvariantSuite, ring: Ring,
                      budget: int = DEFAULT_BUDGET,
                      workers=None) -> SeparationReport:
    """Exhaustively compare invariant fibers with orbits inside B.

    The suite separates B exactly when distinct orbits give distinct value
    tuples, i.e. fiberCount == orbitCountInB.  Witness pairs list up to ten
    pairs of distinct orbit representatives sharing a fiber, ordered by the
    fiber's smallest representative and then lexicographically.
    """
    spec = suite.spec
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
    firsts = list(ring.elements())
    # no more processes than chunks of first coordinates, or than CPUs
    workers = min(resolve_workers(workers), ring.order, os.cpu_count() or 1)
    if workers > 1:
        chunks = [firsts[i::workers] for i in range(workers)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            results = pool.map(
                _scan_chunk, [(suite, ring, chunk) for chunk in chunks])
    else:
        results = [_scan_chunk((suite, ring, firsts))]
    points_in_b, fibers = _merge_fibers(results)
    orbit_count = sum(count for count, _ in fibers.values())
    for slot in fibers.values():
        slot[1].sort()
        del slot[1][_KEEP_REPS:]
    pairs = []
    for count, reps in sorted(fibers.values(), key=lambda slot: slot[1][0]):
        if count < 2:
            continue
        for a, b in itertools.combinations(reps, 2):
            pairs.append((a, b))
            if len(pairs) == _MAX_WITNESS_PAIRS:
                break
        if len(pairs) == _MAX_WITNESS_PAIRS:
            break
    return SeparationReport(
        spec=spec,
        ring=ring,
        total_points=ring.order ** spec.n,
        points_in_b=points_in_b,
        orbit_count_in_b=orbit_count,
        fiber_count=len(fibers),
        separated=len(fibers) == orbit_count,
        witness_pairs=tuple(pairs),
    )


# ---------------------------------------------------------------------------
# Lifting and orbit census.


def verify_lifting(n: int, ring: Ring, budget: int = DEFAULT_BUDGET):
    """Check that the top connecting invariant of a size-n block is injective
    in the last coordinate once the leading coordinate is nonzero.

    This is the step that lets separating sets grow one variable at a time.
    Returns None, or a pair of points agreeing except in the last coordinate
    on which the invariant collides.
    """
    if n < 3:
        raise ValueError("connecting invariants start at block size 3")
    if ring.order is None:
        raise ValueError("brute-force verification needs a finite field")
    if n > ring.characteristic:
        raise ValueError("block size exceeds p")
    _check_budget(ring.order, n, budget)
    f = _connecting_rational(n).polynomial.change_ring(ring)
    zero = ring.zero()
    lasts = list(ring.elements())
    for prefix in itertools.product(ring.elements(), repeat=n - 1):
        if prefix[0] == zero:
            continue
        seen = {}
        for last in lasts:
            val = f.evaluate_raw(prefix + (last,), ring)
            if val in seen:
                return prefix + (seen[val],), prefix + (last,)
            seen[val] = last
    return None


def fixed_point_census(spec: RepresentationSpec, ring: Ring,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Brute-force orbit census; orbits have length 1 (fixed) or p."""
    _check_field(spec, ring)
    _check_budget(ring.order, spec.n, budget)
    blocks = spec.blocks
    total = ring.order ** spec.n
    in_b = fixed = fixed_b = 0
    for coords in itertools.product(ring.elements(), repeat=spec.n):
        b = in_b_raw(blocks, ring, coords)
        in_b += b
        if act_raw(blocks, ring, coords) == coords:
            fixed += 1
            fixed_b += b
    if (total - fixed) % spec.p or (in_b - fixed_b) % spec.p:
        raise AssertionError("non-fixed points do not split into p-orbits")
    return {
        "totalPoints": total,
        "pointsInB": in_b,
        "fixedPoints": fixed,
        "fixedPointsInB": fixed_b,
        "orbitCount": fixed + (total - fixed) // spec.p,
        "orbitCountInB": fixed_b + (in_b - fixed_b) // spec.p,
    }


__all__ = [
    "BudgetExceeded", "DEFAULT_BUDGET", "OrbitConstancyError",
    "SeparationReport", "fixed_point_census", "require_orbit_constancy",
    "resolve_workers", "separation_report", "verify_lifting",
    "verify_orbit_constancy",
]
