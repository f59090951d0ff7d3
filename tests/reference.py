"""Brute-force references the tests check the verifier against.

fixed_point_census walks every point of the whole space and counts orbits
from the fixed points alone, since every other orbit has exactly p points.
No command calls it: the separation scan counts orbits its own way, and
the tests compare the two.
"""

import itertools

from modinv.action import RepresentationSpec, act_raw, in_b_raw
from modinv.oracle import _check_field
from modinv.rings import DEFAULT_BUDGET, Ring, check_budget


def fixed_point_census(spec: RepresentationSpec, ring: Ring,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Brute-force orbit census; orbits have length 1 (fixed) or p."""
    _check_field(spec, ring)
    check_budget(ring.order, spec.n, budget)
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
