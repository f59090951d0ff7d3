"""Differential checks of the builder's elimination loop against a reference.

reference_connecting is the elimination loop as it was before it ran in
integers, on dense exponent tuples and none of the builder's own helpers:
t and the residual are Polynomials over the target ring, every pass reads
its matrix off action.delta of each dense source monomial (the component
one weight down, coefficient by coefficient in the target basis), solves it
over the ring with linalg.solve_unique, subtracts delta of the correction
and records det_int.  construct_connecting must give an equal
ConnectingInvariant (polynomial and every EliminationStep field) over Q for
every 3 <= n <= 41 and natively over F_p for p in {3, 5, 7, 11, 13} and
every n <= p + 3 (and over F_9 for n <= 6), and raise the same NoSolution
text wherever the reference does.
"""

import pytest

from modinv import linalg
from modinv.action import delta
from modinv.builder import (ConnectingInvariant, EliminationStep, NoSolution,
                            _designated_family, connecting_degree,
                            construct_connecting, weight_basis)
from modinv.poly import Polynomial, VariableTable, monomial_text
from modinv.rings import GF, QQ, ZZ
from polyref import coefficient, exps, weight_components


def delta_matrix(source, target, weight, table):
    """Columns: the weight-`weight` part of delta(m) for each source monomial
    m, written in the target basis."""
    rows = [[0] * len(source) for _ in target]
    for col, e in enumerate(source):
        part = weight_components(delta(Polynomial.monomial(ZZ, table, e))).get(weight)
        if part is None:
            continue
        assert {e for e, _ in part.terms()} <= set(target), "image outside the target span"
        for row, t in enumerate(target):
            rows[row][col] = coefficient(part, t)
    return rows


def reference_connecting(n, degree, ring=QQ):
    table = VariableTable((n,))
    lead = exps(n, 1, n) if degree == 2 else exps(n, 1, 1, n)
    t = Polynomial.monomial(ring, table, lead)
    target_family = "W" if degree == 2 else "S"
    steps = []
    residual = delta(t)
    while not residual.is_zero:
        components = weight_components(residual)
        top = max(components)
        d = top + 1
        family = _designated_family(degree, d)
        source = tuple(e for e in weight_basis(family, d, n).monomials if e[n - 1] == 0)
        target = weight_basis(target_family, top, n)
        matrix = delta_matrix(source, target.monomials, top, table)
        rhs = [coefficient(components[top], e) for e in target.monomials]
        rows = [[ring.from_int(v) for v in row] for row in matrix]
        try:
            solution = linalg.solve_unique(ring, rows, rhs)
        except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem) as exc:
            raise NoSolution(
                f"no invariant {monomial_text(table, lead)} + h with h free of x{n}: "
                f"weight-{top} residual has no unique preimage in {family}_{d}") from exc
        g = Polynomial(ring, table, dict(zip(source, solution)))
        t = t - g
        residual = residual - delta(g)
        steps.append(EliminationStep(
            weight=d,
            family=family,
            source=tuple(monomial_text(table, e) for e in source),
            target=tuple(monomial_text(table, e) for e in target.monomials),
            matrix=tuple(tuple(row) for row in matrix),
            det=linalg.det_int(matrix) if len(matrix) == len(source) else None,
            solution=tuple(ring.render(c) for c in solution),
        ))
    return ConnectingInvariant(n, degree, t, tuple(steps))


def outcome(build, n, degree, ring):
    try:
        return build(n, degree, ring)
    except NoSolution as exc:
        return f"NoSolution: {exc}"


def assert_same(n, degree, ring):
    ours = outcome(construct_connecting, n, degree, ring)
    ref = outcome(reference_connecting, n, degree, ring)
    if isinstance(ref, str):
        assert ours == ref
        return
    assert isinstance(ours, ConnectingInvariant), ours
    assert ours.polynomial == ref.polynomial
    assert ours.steps == ref.steps
    assert ours == ref


@pytest.mark.parametrize("n", range(3, 42))
def test_matches_reference_over_q(n):
    assert_same(n, connecting_degree(n), QQ)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_matches_reference_over_fp(p):
    # n > p too: there a scale divisible by p must fail where the field loop does
    for n in range(2, p + 4):
        for degree in (2, 3):
            assert_same(n, degree, GF(p))


def test_matches_reference_over_extension_field():
    for n in range(2, 7):
        for degree in (2, 3):
            assert_same(n, degree, GF(3, 2))


@pytest.mark.parametrize("n,degree", [(4, 2), (2, 3)])
def test_negative_controls_raise_the_same_text(n, degree):
    ref = outcome(reference_connecting, n, degree, QQ)
    assert ref.startswith("NoSolution: ")
    with pytest.raises(NoSolution) as info:
        construct_connecting(n, degree)
    assert f"NoSolution: {info.value}" == ref
