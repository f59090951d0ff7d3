from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modinv.builder import connecting_degree, construct_connecting
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


def assert_matches_solve_unique(rows, rhs, modulus=0):
    """IntegerSystem agrees with solve_unique over Q, or over F_modulus.

    Mod p a square system fails exactly when its determinant vanishes mod
    p.  A tall one also fails when the minor of the rows it pivots on over
    Z vanishes mod p, though other rows may still fix the solution there.
    """
    ring = GF(modulus) if modulus else QQ
    expected = outcome(solve_unique, ring, [[ring.from_int(v) for v in r] for r in rows],
                       [ring.from_int(v) for v in rhs])
    expected = expected if isinstance(expected, list) else None
    got = integer_solution(rows, [v % modulus for v in rhs] if modulus else rhs, modulus)
    if modulus and got is None and expected is not None and len(rows) > len(rows[0]):
        assert IntegerSystem(rows, len(rows[0])).scale % modulus == 0
    else:
        assert got == expected


def draw_matrix(data, m, ncols):
    """Small integer entries: dense, zero half the time, or sparse with at
    most three nonzeros a row, as in the builder's delta systems."""
    small = st.one_of(st.just(0), st.integers(-3, 3))
    if data.draw(st.booleans()):
        return [[data.draw(small) for _ in range(ncols)] for _ in range(m)]
    rows = []
    for _ in range(m):
        row = [0] * ncols
        for j in data.draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
            row[j] = data.draw(st.integers(-3, 3))
        rows.append(row)
    return rows


@given(st.data())
def test_integer_system_matches_solve_unique(data):
    m = data.draw(st.integers(1, 8))
    shape = data.draw(st.sampled_from(["square", "tall", "any"]))
    ncols = m if shape == "square" else data.draw(st.integers(1, m if shape == "tall" else 8))
    rows = draw_matrix(data, m, ncols)
    if data.draw(st.booleans()):
        rhs = [data.draw(st.integers(-3, 3)) for _ in range(m)]
    else:                               # consistent, also when tall
        x = [data.draw(st.integers(-3, 3)) for _ in range(ncols)]
        rhs = [sum(a * v for a, v in zip(r, x)) for r in rows]
    assert_matches_solve_unique(rows, rhs)
    assert_matches_solve_unique(rows, rhs, 7)


def test_integer_system_late_swap_of_an_updated_row():
    # Column 0 turns row 1 into zeros; column 1 then swaps it below row 2.
    # A solve that permuted rhs up front by the final row order would apply
    # the column-0 update to the wrong entry.  Row 2 also skips column 0's
    # scaling by 2, which it catches up on when it becomes the pivot.
    rows = [[2, 1], [4, 2], [0, 3]]
    system = IntegerSystem(rows, 2)
    assert (system.det, system.scale) == (None, 6)
    assert system.solve([3, 6, 3]) == [6, 6]
    assert system.solve([3, 1, 3], 5) == [1, 1]
    with pytest.raises(InconsistentSystem):
        system.solve([3, 7, 3])
    assert IntegerSystem([[1, 0], [1, 0], [0, 1]], 2).solve([1, 1, 5]) == [1, 5]


@given(st.data())
def test_integer_system_solves_to_scale_and_determinant(data):
    m = data.draw(st.integers(1, 8))
    ncols = data.draw(st.integers(1, m))
    rows = draw_matrix(data, m, ncols)
    try:
        system = IntegerSystem(rows, ncols)
    except UnderdeterminedSystem:
        assert m != ncols or det_int(rows) == 0
        return
    assert system.det == (det_int(rows) if m == ncols else None)
    assert system.scale > 0
    x = [data.draw(st.integers(-9, 9)) for _ in range(ncols)]
    rhs = [sum(a * v for a, v in zip(r, x)) for r in rows]
    assert system.solve(rhs) == [system.scale * v for v in x]


def test_builder_systems_match_solve_unique(monkeypatch):
    # every distinct system f_3..f_41 meet, with the right-hand sides of
    # one build, over Q and mod 41 and 43
    met = {}
    solve = IntegerSystem.solve

    def record(system, rhs, modulus=0):
        met.setdefault(system, set()).add(tuple(rhs))
        return solve(system, rhs, modulus)

    monkeypatch.setattr(IntegerSystem, "solve", record)
    for n in range(3, 42):
        construct_connecting(n, connecting_degree(n))
    monkeypatch.undo()
    assert (len(met), sum(map(len, met.values()))) == (78, 800)
    for system, rhss in met.items():
        for rhs in rhss:
            for modulus in (0, 41, 43):
                assert_matches_solve_unique(system.rows, list(rhs), modulus)
