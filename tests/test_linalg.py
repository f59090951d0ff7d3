from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.linalg import (InconsistentSystem, IntegerSystem, UnderdeterminedSystem,
                           det_int, solve_unique)
from modinv.rings import GF, QQ

F7 = GF(7)
F9 = GF(3, 2)


def dense_solve_reference(ring, rows, rhs):
    """Gauss-Jordan elimination rebuilding every augmented row on every
    pivot: the solver as it was before row updates became sparse."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    zero = ring.zero()
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, m) if aug[i][col] != zero), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        scale = ring.inv(aug[r][col])
        aug[r] = [ring.mul(scale, v) for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != zero:
                factor = aug[i][col]
                aug[i] = [ring.sub(v, ring.mul(factor, w)) for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if aug[i][ncols] != zero:
            raise InconsistentSystem("rhs outside column span")
    if len(pivots) < ncols:
        raise UnderdeterminedSystem(f"{ncols - len(pivots)} free columns")
    solution = [zero] * ncols
    for row, col in enumerate(pivots):
        solution[col] = aug[row][ncols]
    return solution


def outcome(solver, ring, rows, rhs):
    try:
        return solver(ring, rows, rhs)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        return type(exc)


# Small entries, zero half the time, so singular and inconsistent systems
# come up as often as invertible ones.
FIELDS = [
    (QQ, st.one_of(st.just(0), st.integers(-3, 3)).map(Fraction)),
    (F7, st.one_of(st.just(0), st.integers(0, 6))),
    (F9, st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 2), st.integers(0, 2)))),
]


@given(st.data())
def test_solve_unique_matches_dense_reference(data):
    ring, entries = data.draw(st.sampled_from(FIELDS))
    m = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(m)]
    rhs = [data.draw(entries) for _ in range(m)]
    copies = [list(r) for r in rows], list(rhs)
    assert (outcome(solve_unique, ring, rows, rhs)
            == outcome(dense_solve_reference, ring, rows, rhs))
    assert (rows, rhs) == copies          # inputs are left untouched


@pytest.mark.parametrize("ring", [QQ, F7, F9])
def test_solve_unique_singular_and_inconsistent(ring):
    one, two = ring.one(), ring.from_int(2)
    zero = ring.zero()
    singular = [[one, two], [two, ring.from_int(4)]]
    with pytest.raises(UnderdeterminedSystem):
        solve_unique(ring, singular, [one, two])
    with pytest.raises(InconsistentSystem):
        solve_unique(ring, singular, [one, one])
    # overdetermined but consistent: a unique solution
    tall = [[one, zero], [zero, one], [one, one]]
    assert solve_unique(ring, tall, [one, two, ring.from_int(3)]) == [one, two]



def integer_solution(rows, rhs, modulus=0):
    """IntegerSystem's solution as field values, or None when it fails."""
    try:
        system = IntegerSystem(rows, len(rows[0]))
        y = system.solve(rhs, modulus)
    except (InconsistentSystem, UnderdeterminedSystem):
        return None
    if modulus:
        return [v * pow(system.scale, -1, modulus) % modulus for v in y]
    return [Fraction(v, system.scale) for v in y]


@given(st.data())
def test_integer_system_matches_solve_unique(data):
    small = st.one_of(st.just(0), st.integers(-3, 3))
    m = data.draw(st.integers(1, 5))
    square = data.draw(st.booleans())
    ncols = m if square else data.draw(st.integers(1, 5))
    rows = [[data.draw(small) for _ in range(ncols)] for _ in range(m)]
    rhs = [data.draw(small) for _ in range(m)]
    expected = outcome(solve_unique, QQ, [[Fraction(v) for v in r] for r in rows],
                       [Fraction(v) for v in rhs])
    assert integer_solution(rows, rhs) == (expected if isinstance(expected, list) else None)
    if square:
        # mod p a square system fails exactly when its determinant vanishes mod p
        expected = outcome(solve_unique, F7, [[v % 7 for v in r] for r in rows],
                           [v % 7 for v in rhs])
        assert integer_solution(rows, rhs, 7) == (
            expected if isinstance(expected, list) else None)


@given(st.data())
def test_integer_system_adjugate_and_determinant(data):
    m = data.draw(st.integers(1, 6))
    ncols = data.draw(st.integers(1, m))
    rows = [[data.draw(st.one_of(st.just(0), st.integers(-5, 5))) for _ in range(ncols)]
            for _ in range(m)]
    try:
        system = IntegerSystem(rows, ncols)
    except UnderdeterminedSystem:
        assert m != ncols or det_int(rows) == 0
        return
    assert system.det == (det_int(rows) if m == ncols else None)
    assert system.scale > 0
    for k, adj_row in enumerate(system.adjugate):
        for col in range(ncols):
            assert sum(v * rows[i][col] for i, v in adj_row) == (
                system.scale if col == k else 0)
