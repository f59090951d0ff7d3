import gc
import json

import pytest

from modinv.action import RepresentationSpec, orbit_rep_raw
from modinv import oracle
from modinv.builder import build_suite
from modinv.oracle import (DEFAULT_BUDGET, BudgetExceeded, fixed_point_census,
                           separation_report, verify_lifting,
                           verify_orbit_constancy)
from modinv.poly import Polynomial
from modinv.rings import GF, QQ


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
        assert orbit_rep_raw(spec.blocks, field, v) != orbit_rep_raw(
            spec.blocks, field, w)
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


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_scan_pauses_gc_and_restores_it(monkeypatch, enabled):
    during = []
    scan = oracle._scan_fibers

    def recording_scan(*args):
        during.append(gc.isenabled())
        return scan(*args)

    monkeypatch.setattr(oracle, "_scan_fibers", recording_scan)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        separation_report(fp_suite(5, (2, 2)), GF(5))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_failing_scan_restores_gc(monkeypatch):
    def failing_scan(*args):
        raise RuntimeError("scan failed")

    monkeypatch.setattr(oracle, "_scan_fibers", failing_scan)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="scan failed"):
        separation_report(fp_suite(5, (2, 2)), GF(5))
    assert gc.isenabled()


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


def test_lifting_argument_errors():
    with pytest.raises(ValueError, match="block size 3"):
        verify_lifting(2, GF(5))
    with pytest.raises(ValueError, match="finite field"):
        verify_lifting(3, QQ)
    with pytest.raises(BudgetExceeded):
        verify_lifting(3, GF(5), budget=10)
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
    with pytest.raises(BudgetExceeded):
        fixed_point_census(RepresentationSpec(5, (3,)), GF(5), budget=100)
    assert DEFAULT_BUDGET == 10_000_000
