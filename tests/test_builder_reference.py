"""Differential checks of the builder's elimination loop against a reference.

reference_connecting is the elimination loop as it was before it ran in
integers, on dense exponent tuples and none of the builder's own helpers:
t and the residual are Polynomials over Q, every pass reads its matrix off
action.delta of each dense source monomial (the component one weight down,
coefficient by coefficient in the target basis), solves it over Q with
linalg.solve_unique, subtracts delta of the correction and records
det_int.  The builder constructs over Q only.  construct_connecting must
give an equal ConnectingInvariant (polynomial and every EliminationStep
field) for every 3 <= n <= 41, and raise the same NoSolution text wherever
the reference does.  Its step records are made only when
steps is read: building f_3..f_41 and the p = 29 suite over Q renders no
rational and keeps no dense matrix, and the records read afterwards still
equal the reference's.
"""

from fractions import Fraction

import pytest

from modinv import builder, linalg
from modinv.action import RepresentationSpec, delta
from modinv.builder import (ConnectingInvariant, EliminationStep, NoSolution,
                            _designated_family, build_suite, connecting_degree,
                            construct_connecting, weight_basis)
from modinv.poly import Polynomial, VariableTable, monomial_text
from modinv.rings import QQ, ZZ
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


def reference_connecting(n, degree):
    table = VariableTable((n,))
    lead = exps(n, 1, n) if degree == 2 else exps(n, 1, 1, n)
    t = Polynomial.monomial(QQ, table, lead)
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
        rows = [[QQ.from_int(v) for v in row] for row in matrix]
        try:
            solution = linalg.solve_unique(QQ, rows, rhs)
        except (linalg.InconsistentSystem, linalg.UnderdeterminedSystem) as exc:
            raise NoSolution(
                f"no invariant {monomial_text(table, lead)} + h with h free of x{n}: "
                f"weight-{top} residual has no unique preimage in {family}_{d}") from exc
        g = Polynomial(QQ, table, dict(zip(source, solution)))
        t = t - g
        residual = residual - delta(g)
        steps.append(EliminationStep(
            weight=d,
            family=family,
            source=tuple(monomial_text(table, e) for e in source),
            target=tuple(monomial_text(table, e) for e in target.monomials),
            matrix=tuple(tuple(row) for row in matrix),
            det=linalg.det_int(matrix) if len(matrix) == len(source) else None,
            solution=tuple(QQ.render(c) for c in solution),
        ))
    return ConnectingInvariant(n, degree, t, tuple(steps))


def outcome(build, n, degree):
    try:
        return build(n, degree)
    except NoSolution as exc:
        return f"NoSolution: {exc}"


def assert_same(n, degree):
    ours = outcome(construct_connecting, n, degree)
    ref = outcome(reference_connecting, n, degree)
    if isinstance(ref, str):
        assert ours == ref
        return
    assert isinstance(ours, ConnectingInvariant), ours
    assert ours.polynomial == ref.polynomial
    assert ours.steps == ref.steps
    assert ours == ref


@pytest.mark.parametrize("n", range(3, 42))
def test_matches_reference_over_q(n):
    assert_same(n, connecting_degree(n))


@pytest.mark.parametrize("n,degree", [(4, 2), (2, 3)])
def test_negative_controls_raise_the_same_text(n, degree):
    ref = outcome(reference_connecting, n, degree)
    assert ref.startswith("NoSolution: ")
    with pytest.raises(NoSolution) as info:
        construct_connecting(n, degree)
    assert f"NoSolution: {info.value}" == ref


def test_construction_makes_no_step_record(monkeypatch):
    # construct and verify never read steps: while f_3..f_41 and the p = 29
    # suite over Q are built, rendering a rational fails and no system keeps
    # its dense rows; the records read afterwards are the reference's
    systems = []
    init = linalg.IntegerSystem.__init__

    def recording(self, rows, ncols):
        init(self, rows, ncols)
        systems.append(self)

    def refuse(value):
        raise AssertionError(f"rendered {value!r} during construction")

    monkeypatch.setattr(linalg.IntegerSystem, "__init__", recording)
    monkeypatch.setattr(Fraction, "__str__", refuse)
    builder._connecting_rational.cache_clear()
    builder._system.cache_clear()
    built = [builder._connecting_rational(n) for n in range(3, 42)]
    build_suite(RepresentationSpec(29, (29,)), "q")
    assert [len(ci.steps) for ci in built] == [2 * ((n - 1) // 2) for n in range(3, 42)]
    monkeypatch.undo()
    assert len(systems) == 78
    for system in systems:
        assert "rows" not in vars(system) and system.rows not in vars(system).values()
    for ci in built:
        ref = reference_connecting(ci.n, ci.degree)
        assert ci.steps == ref.steps and ref.steps == ci.steps
        assert ci == ref and hash(ci) == hash(ref)
        assert ci.steps[-1] == ref.steps[-1] and ci.steps[1:] == ref.steps[1:]
