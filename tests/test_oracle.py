import json
import tracemalloc

import pytest

from modinv import oracle
from modinv.action import RepresentationSpec, orbit_raw
from modinv.builder import _Rational, build_suite, connecting_degree
from modinv.oracle import separation_report, verify_lifting, verify_orbit_constancy
from modinv.poly import Polynomial, product_key
from modinv.rings import DEFAULT_BUDGET, GF, QQ, BudgetExceeded
from reference import fixed_point_census


def fp_suite(p, blocks):
    return build_suite(RepresentationSpec(p, blocks), "fp")


def doctored_suite(p, blocks, entry_index, bump_variable):
    """Replace one entry's polynomial f by f + x_{bump}; breaks invariance."""
    suite = fp_suite(p, blocks)
    entry = suite.entries[entry_index]
    bumped = entry.polynomial + Polynomial.variable(
        entry.polynomial.ring, entry.polynomial.table, bump_variable)
    entries = list(suite.entries)
    entries[entry_index] = entry._replace(polynomial=bumped)
    return suite._replace(entries=tuple(entries))


# -- orbit constancy ----------------------------------------------------------


def test_constancy_holds_for_built_suites():
    assert verify_orbit_constancy(fp_suite(5, (3,)), GF(5)) is None
    assert verify_orbit_constancy(fp_suite(5, (2, 2)), GF(5)) is None
    assert verify_orbit_constancy(fp_suite(3, (3,)), GF(3, 2)) is None
    assert verify_orbit_constancy(fp_suite(7, (4,)), GF(7)) is None


@pytest.mark.parametrize("p,k,blocks", [
    (2, 1, (2, 1, 2)), (2, 2, (2, 2)), (3, 1, (3,)), (3, 1, (1, 3, 2)),
    (3, 2, (3,)), (3, 2, (2, 1)), (5, 1, (5,)), (5, 1, (4, 2)), (5, 2, (2,)),
    (7, 1, (7,)), (7, 2, (3,))])
def test_built_suites_never_tabulate_in_constancy(monkeypatch, p, k, blocks):
    # delta f is the zero polynomial for every built entry, so no point of
    # the space is evaluated
    def refuse(*_):
        raise AssertionError("constancy tabulated a built entry")

    monkeypatch.setattr(oracle, "_table", refuse)
    assert verify_orbit_constancy(fp_suite(p, blocks), GF(p, k)) is None


def test_constancy_detects_doctored_entry():
    # f3 + x2 changes along orbits exactly where x1 != 0; the first such
    # point in row-major order over F_5^3 is (1,0,0)
    doctored = doctored_suite(5, (3,), 2, 1)
    assert verify_orbit_constancy(doctored, GF(5)) == ("f3", (1, 0, 0))


def test_constancy_field_checks():
    suite = fp_suite(5, (3,))
    with pytest.raises(ValueError, match="finite field"):
        verify_orbit_constancy(suite, QQ)
    with pytest.raises(ValueError, match="characteristic"):
        verify_orbit_constancy(suite, GF(7))
    with pytest.raises(BudgetExceeded):
        verify_orbit_constancy(suite, GF(5), budget=100)


# -- separation: single blocks ------------------------------------------------


def test_separation_single_block_3_over_f5():
    report = separation_report(fp_suite(5, (3,)), GF(5))
    assert report.total_points == 125
    assert report.points_in_b == 100
    assert report.orbit_count_in_b == 20
    assert report.fiber_count == 20
    assert report.separated is True
    assert report.witness_pairs == ()


def test_separation_single_block_3_over_f7():
    report = separation_report(fp_suite(7, (3,)), GF(7))
    assert (report.points_in_b, report.orbit_count_in_b) == (294, 42)
    assert report.separated and report.fiber_count == 42


def test_separation_block_2_over_f25():
    report = separation_report(fp_suite(5, (2,)), GF(5, 2))
    assert report.total_points == 625
    assert report.points_in_b == 600
    assert report.orbit_count_in_b == 120
    assert report.fiber_count == 120
    assert report.separated is True


def test_separation_trivial_block():
    report = separation_report(fp_suite(5, (1,)), GF(5))
    assert (report.total_points, report.points_in_b) == (5, 5)
    assert report.orbit_count_in_b == 5 and report.fiber_count == 5
    assert report.separated


# -- separation: the decomposable counterexample ------------------------------


def test_separation_2_2_over_f5_fails():
    report = separation_report(fp_suite(5, (2, 2)), GF(5))
    assert report.total_points == 625
    assert report.points_in_b == 400
    assert report.orbit_count_in_b == 80
    assert report.fiber_count == 16
    assert report.separated is False
    assert len(report.witness_pairs) == 10
    assert report.witness_pairs[0] == ((1, 0, 1, 0), (1, 0, 1, 1))


def test_witness_pair_is_adjudicated_pointwise():
    # same invariant values, different orbits -- over F_5 and again over F_25
    spec = RepresentationSpec(5, (2, 2))
    for field in (GF(5), GF(5, 2)):
        suite = build_suite(spec, "fp")
        v = tuple(field.from_int(c) for c in (1, 0, 1, 0))
        w = tuple(field.from_int(c) for c in (1, 0, 1, 1))
        assert min(orbit_raw(spec.blocks, field, v)) != min(
            orbit_raw(spec.blocks, field, w))
        values_v = tuple(e.polynomial.evaluate_raw(v, field) for e in suite.entries)
        values_w = tuple(e.polynomial.evaluate_raw(w, field) for e in suite.entries)
        assert values_v == values_w


def test_separation_2_2_report_fields_serialize():
    report = separation_report(fp_suite(5, (2, 2)), GF(5))
    data = report.to_json_dict()
    assert data["spec"] == {"p": 5, "blocks": [2, 2]}
    assert data["field"] == {"p": 5, "k": 1, "order": 5}
    assert data["separated"] is False
    assert data["witnessPairs"][0] == [["1", "0", "1", "0"], ["1", "0", "1", "1"]]
    assert "elapsedSeconds" not in data
    text = report.render()
    assert "separated      no" in text
    assert "(1,0,1,0) ~ (1,0,1,1)" in text


# -- determinism and invariance of the report ---------------------------------


def test_report_is_deterministic():
    a = separation_report(fp_suite(5, (2, 2)), GF(5))
    b = separation_report(fp_suite(5, (2, 2)), GF(5))
    assert a.to_json_dict() == b.to_json_dict()
    assert (json.dumps(a.to_json_dict(), sort_keys=True)
            == json.dumps(b.to_json_dict(), sort_keys=True))


def test_separation_holds_one_slab_of_fibers():
    # x1 tells the slabs apart, so the scan holds one slab's 4096 fibers at
    # a time, not all 65536
    field = GF(2, 16)
    field.mul(field.one(), field.one())     # builds the tables
    suite = fp_suite(2, (1,))
    tracemalloc.start()
    try:
        report = separation_report(suite, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.fiber_count == report.orbit_count_in_b == 65536
    assert peak < 2 * 2 ** 20


def test_fibers_invariant_under_scaling_and_order():
    # scaling entries by units and permuting them cannot change the fiber
    # partition, hence not the report
    spec = RepresentationSpec(5, (2, 2))
    suite = build_suite(spec, "fp")
    scaled = suite._replace(entries=tuple(
        e._replace(polynomial=e.polynomial.scale(3))
        for e in suite.entries))
    permuted = suite._replace(entries=tuple(reversed(suite.entries)))
    base = separation_report(suite, GF(5))
    for variant in (scaled, permuted):
        report = separation_report(variant, GF(5))
        assert report.fiber_count == base.fiber_count
        assert report.orbit_count_in_b == base.orbit_count_in_b
        assert report.separated == base.separated
        assert report.witness_pairs == base.witness_pairs


# -- lifting -------------------------------------------------------------------


def test_lifting_holds_in_range():
    assert verify_lifting(3, GF(5)) is None
    assert verify_lifting(4, GF(5)) is None
    assert verify_lifting(3, GF(3, 2)) is None


def doctored_connecting(n, changes):
    """f_n plus the monomials with these keys, each times its coefficient,
    in the builder's integer form; terms that cancel are dropped."""
    connecting = oracle._connecting_rational(n)
    f = connecting.polynomial
    numerators = dict(f.numerators)
    for key, times in changes.items():
        numerators[key] = numerators.get(key, 0) + times * f.denominator
    numerators = {k: v for k, v in numerators.items() if v}
    return connecting._replace(polynomial=_Rational(n, numerators, f.denominator))


@pytest.mark.parametrize("n", range(3, 8))
def test_lifting_refuses_other_terms_in_the_last_coordinate(monkeypatch, n):
    # f_n + x_n^2 and f_n + x2*x_n collide in x_n for some prefix.  With
    # its lead doubled f_n is still a bijection over F_7, but the
    # certificate asks for coefficient 1, a unit in every field.  Without
    # its lead f_n does not read x_n, and with x2^e*x_n in its place it
    # collides where x2 = 0
    e = connecting_degree(n) - 1
    lead = product_key([0] * e + [n - 1])
    for changes in ({product_key((n - 1, n - 1)): 1}, {product_key((1, n - 1)): 1},
                    {lead: 1}, {lead: -1}, {lead: -1, product_key([1] * e + [n - 1]): 1}):
        doctored = doctored_connecting(n, changes)
        monkeypatch.setattr(oracle, "_connecting_rational", lambda _: doctored)
        with pytest.raises(AssertionError, match=f"f_{n} is not"):
            verify_lifting(n, GF(7))
        monkeypatch.undo()
    assert verify_lifting(n, GF(7)) is None


def test_lifting_argument_errors():
    with pytest.raises(ValueError, match="block size 3"):
        verify_lifting(2, GF(5))
    with pytest.raises(ValueError, match="characteristic p >= 3"):
        verify_lifting(3, QQ)
    for n, field in ((4, GF(3)), (5, GF(3)), (4, GF(3, 2))):
        with pytest.raises(ValueError, match="block size exceeds p"):
            verify_lifting(n, field)


# -- orbit census ---------------------------------------------------------------


def test_census_block_3_over_f5():
    census = fixed_point_census(RepresentationSpec(5, (3,)), GF(5))
    assert census == {
        "totalPoints": 125,
        "pointsInB": 100,
        "fixedPoints": 5,
        "fixedPointsInB": 0,
        "orbitCount": 29,
        "orbitCountInB": 20,
    }


def test_census_block_2_norm_vanishes_on_b():
    # on B the norm is identically zero, so x1 alone carries the separation
    spec = RepresentationSpec(5, (2,))
    census = fixed_point_census(spec, GF(5))
    assert census["orbitCountInB"] == 4 and census["pointsInB"] == 20
    suite = build_suite(spec, "fp")
    norm = suite.entries[1].polynomial
    for c1 in range(1, 5):
        for c2 in range(5):
            assert norm.evaluate_raw((c1, c2), GF(5)) == 0


def test_census_trivial_block():
    census = fixed_point_census(RepresentationSpec(5, (1,)), GF(5))
    assert census == {
        "totalPoints": 5,
        "pointsInB": 5,
        "fixedPoints": 5,
        "fixedPointsInB": 5,
        "orbitCount": 5,
        "orbitCountInB": 5,
    }


def test_census_matches_separation_counts():
    spec = RepresentationSpec(5, (2, 2))
    census = fixed_point_census(spec, GF(5))
    report = separation_report(build_suite(spec, "fp"), GF(5))
    assert census["orbitCountInB"] == report.orbit_count_in_b
    assert census["pointsInB"] == report.points_in_b


def test_budget_guard():
    suite = fp_suite(5, (3,))
    with pytest.raises(BudgetExceeded, match=r"5\^3 points exceed budget 100"):
        separation_report(suite, GF(5), budget=100)
    assert DEFAULT_BUDGET == 10_000_000
