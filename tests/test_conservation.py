"""Conservation of the index under deformations with finite zero sets."""

from fractions import Fraction

import pytest

from eqidx import equiv_index
from eqidx.equiv_index import (
    DiagonalAction,
    OneForm,
    conservation_check,
    hom_index,
)
from eqidx.errors import (
    DimensionGuardFailedError,
    GloballyNonZeroDimensionalError,
    NonIsolatedError,
    NotInvariantError,
)
from eqidx.poly import parse_polynomial
from eqidx.rep_rings import CyclicGroup, RepRingElement


def make_case(m, weights, texts):
    n = len(weights)
    form = OneForm(tuple(parse_polynomial(t, n) for t in texts))
    action = DiagonalAction(CyclicGroup(m), tuple(weights))
    return form, action


def rep(m, coeffs):
    return RepRingElement(CyclicGroup(m), tuple(coeffs))


def test_pointwise_cubic_family():
    form, action = make_case(2, (1,), ("z1^3",))
    deformed, _ = make_case(2, (1,), ("z1^3 - z1",))
    report = conservation_check(form, deformed, action, points=[("1",)])
    assert report.mode == "pointwise"
    assert report.reference == rep(2, (1, 2))
    assert report.origin == rep(2, (0, 1))
    assert len(report.orbits) == 1
    orbit = report.orbits[0]
    assert orbit.representative == (Fraction(1),)
    assert orbit.isotropy_order == 1
    assert orbit.local_index == rep(1, (1,))
    assert orbit.induced == rep(2, (1, 1))
    assert report.total == rep(2, (1, 2))
    assert report.matched


def test_pointwise_two_variable_family():
    form, action = make_case(2, (1, 0), ("z1^3", "z2^3"))
    deformed, _ = make_case(2, (1, 0), ("z1^3 - z1", "z2^3 - z2"))
    points = [("0", "1"), ("0", "-1"), ("1", "0"), ("1", "1"), ("1", "-1")]
    report = conservation_check(form, deformed, action, points=points)
    assert report.mode == "pointwise"
    assert report.reference == rep(2, (3, 6))
    assert [orbit.isotropy_order for orbit in report.orbits] == [2, 2, 1, 1, 1]
    assert report.total == report.reference
    assert report.matched


def test_pointwise_check_checks_each_form_and_point_once(monkeypatch):
    # the bundled family-001: the two forms are each checked for invariance
    # once, and each of the five points gets its isotropy subgroup once
    # (checking the deformation again per point made 13 and 10 calls)
    calls = {"_invariance_violation": 0, "isotropy_subgroup": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(equiv_index, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(equiv_index, name, counted)
    form, action = make_case(2, (1, 0), ("z1^3", "z2^3"))
    deformed, _ = make_case(2, (1, 0), ("z1^3 - z1", "z2^3 - z2"))
    points = [("0", "1"), ("0", "-1"), ("1", "0"), ("1", "1"), ("1", "-1")]
    assert conservation_check(form, deformed, action, points=points).matched
    assert calls == {"_invariance_violation": 2, "isotropy_subgroup": 5}


def test_global_families():
    families = [
        (2, (1,), ("z1^5",), ("z1^5 - z1^3",)),
        (2, (1, 1), ("z1^3", "z2^3"), ("z1^3 - z1", "z2^3 - z2")),
        (3, (1, 2), ("z1^2", "z2^2"), ("z1^2 - z2", "z2^2 - z1")),
        (4, (1, 2), ("z1^3", "z2"), ("z1^3 - z1*z2", "z2")),
        (1, (0,), ("z1^4",), ("z1^4 - z1^2",)),
        (6, (1, 5), ("z1^5", "z2^5"), ("z1^5 - z2", "z2^5 - z1")),
    ]
    for m, weights, texts, dtexts in families:
        form, action = make_case(m, weights, texts)
        deformed, _ = make_case(m, weights, dtexts)
        report = conservation_check(form, deformed, action)
        assert report.mode == "global"
        assert report.origin is None and report.orbits == ()
        assert report.reference == hom_index(form, action)
        assert report.total == report.reference
        assert report.matched


def test_trivial_deformation_matches():
    form, action = make_case(2, (1,), ("z1^3",))
    report = conservation_check(form, form, action)
    assert report.mode == "global"
    assert report.total == report.reference == rep(2, (1, 2))
    assert report.matched


def test_dimension_guard_failure():
    form, action = make_case(1, (0,), ("z1^3",))
    escaped, _ = make_case(1, (0,), ("z1^4 - z1",))
    with pytest.raises(DimensionGuardFailedError):
        conservation_check(form, escaped, action)


def test_infinite_deformation_zero_set():
    form, action = make_case(1, (0, 0), ("z1^2", "z2^2"))
    bad, _ = make_case(1, (0, 0), ("z1^2", "z1*z2"))
    with pytest.raises(GloballyNonZeroDimensionalError):
        conservation_check(form, bad, action)


def test_non_invariant_deformation_rejected():
    form, action = make_case(2, (1,), ("z1^3",))
    bad, _ = make_case(2, (1,), ("z1^2",))
    with pytest.raises(NotInvariantError):
        conservation_check(form, bad, action)


def test_non_isolated_origin_rejected():
    form, action = make_case(1, (0, 0), ("z1*z2", "z1*z2"))
    with pytest.raises(NonIsolatedError):
        conservation_check(form, form, action)


def test_incomplete_points_do_not_match():
    form, action = make_case(2, (1,), ("z1^3",))
    deformed, _ = make_case(2, (1,), ("z1^3 - z1",))
    report = conservation_check(form, deformed, action, points=[])
    assert report.mode == "pointwise"
    assert report.total == rep(2, (0, 1))
    assert not report.matched
