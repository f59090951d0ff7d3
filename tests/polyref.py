"""Dense-exponent references the tests check the library against.

The library's builder and Polynomial work on sparse monomial keys; these
helpers read and compute polynomials the slow, obvious way, on dense
exponent tuples, through Polynomial's public interface only.
"""

from modinv.poly import Polynomial, ring_code
from modinv.rings import coerce


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
    for e, c in f.terms():
        buckets.setdefault(weight_of(f.table, e), {})[e] = c
    return {w: Polynomial(f.ring, f.table, t) for w, t in sorted(buckets.items())}


def coefficient(f, exps):
    return dict(f.terms()).get(tuple(exps), f.ring.zero())


# -- a dense reference for the sparse Polynomial ---------------------------------
#
# Each function takes and returns {dense exponent tuple: raw coefficient}
# maps without zero coefficients, and works the obvious way, as Polynomial
# did before it kept sparse keys.


def grlex_order(exps):
    """Sort key of the canonical order on a dense tuple: total degree, then
    lex with the last variable heaviest."""
    return (sum(exps), tuple(exps[::-1]))


def dense_clean(ring, terms):
    zero = ring.zero()
    return {tuple(e): c for e, c in terms.items() if c != zero}


def dense_add(ring, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = ring.add(out.get(e, ring.zero()), c)
    return dense_clean(ring, out)


def dense_neg(ring, a):
    return {e: ring.neg(c) for e, c in a.items()}


def dense_scale(ring, a, value):
    return dense_clean(ring, {e: ring.mul(c, value) for e, c in a.items()})


def dense_mul(ring, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = ring.add(out.get(e, ring.zero()), ring.mul(c1, c2))
    return dense_clean(ring, out)


def dense_pow(ring, n, a, k):
    out = {(0,) * n: ring.one()}
    for _ in range(k):
        out = dense_mul(ring, out, a)
    return out


def dense_substitute(ring, n, a, images):
    """images: one dense map per variable."""
    out = {}
    for e, c in a.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            term = dense_mul(ring, term, dense_pow(ring, n, images[i], k))
        out = dense_add(ring, out, term)
    return out


def dense_evaluate(src, a, coords, ring):
    acc = ring.zero()
    for e, c in a.items():
        val = coerce(c, src, ring)
        for x, k in zip(coords, e):
            val = ring.mul(val, ring.pow(x, k))
        acc = ring.add(acc, val)
    return acc


def dense_change_ring(src, a, ring):
    return dense_clean(ring, {e: coerce(c, src, ring) for e, c in a.items()})


def dense_terms(a):
    return sorted(a.items(), key=lambda t: grlex_order(t[0]), reverse=True)


def dense_render(ring, table, a):
    if not a:
        return "0"
    pieces = []
    for e, c in dense_terms(a):
        negative = not ring.characteristic and c < 0     # Q and Z only
        mag = ring.neg(c) if negative else c
        mono = "*".join(table.names[i] if k == 1 else f"{table.names[i]}^{k}"
                        for i, k in enumerate(e) if k)
        ctext = ring.render(mag)
        if "," in ctext:
            ctext = f"({ctext})"
        body = mono if mono and mag == ring.one() else f"{ctext}*{mono}" if mono else ctext
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces)


def dense_json(ring, table, a):
    out = {"ring": ring_code(ring), "p": getattr(ring, "p", None),
           "blocks": list(table.blocks),
           "terms": [{"coeff": ring.render(c), "exps": list(e)} for e, c in dense_terms(a)]}
    if hasattr(ring, "k"):
        out["k"] = ring.k
    return out
