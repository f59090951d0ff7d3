"""Dense-exponent references the tests check the library against.

The library's builder works on sparse monomial keys; these helpers read
polynomials the slow, obvious way, straight from their exponent tuples.
"""

from modinv.poly import Polynomial


def exps(n, *indices):
    """Exponent tuple over n variables for a product of 1-based indices."""
    out = [0] * n
    for i in indices:
        out[i - 1] += 1
    return tuple(out)


def weight_of(table, exps):
    """Sum of block positions with multiplicity."""
    return sum(e * table.positions[i][1] for i, e in enumerate(exps) if e)


def weight_components(f):
    """Split f into weight-homogeneous parts: weight -> Polynomial."""
    buckets = {}
    for e, c in f._terms.items():
        buckets.setdefault(weight_of(f.table, e), {})[e] = c
    return {w: Polynomial(f.ring, f.table, t) for w, t in sorted(buckets.items())}


def coefficient(f, exps):
    return f._terms.get(tuple(exps), f.ring.zero())
