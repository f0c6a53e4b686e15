"""Eisenstein cohomology, its identities, ghost statuses, and the report."""
import pytest
from hypothesis import given, strategies as st

from sl3coh.boundary import CUSP, TRIVIAL, case_profile
from sl3coh.eisenstein import (
    GHOST_DEGREES,
    UNDETERMINED,
    ZERO,
    cohomology_report,
    eisenstein_case_profile,
    ghost_report,
    gl3_vanishes,
    verify_identities,
)
from sl3coh.parity import case_classifier
from sl3coh.rootsystem import HighestWeight

small = st.integers(min_value=0, max_value=30)

# expected Eisenstein profiles at one representative weight per parity case
PROFILES = {
    1: ((0, 0), {0: {(TRIVIAL, None): 1}}),
    2: ((0, 4), {3: {(CUSP, 6): 1}}),
    3: ((4, 0), {3: {(CUSP, 6): 1}}),
    4: ((2, 4), {3: {(TRIVIAL, None): 1, (CUSP, 4): 1, (CUSP, 6): 1}}),
    5: ((2, 3), {2: {(CUSP, 8): 1}, 3: {(CUSP, 4): 1}}),
    6: ((0, 3), {2: {(TRIVIAL, None): 1, (CUSP, 6): 1}}),
    7: ((3, 0), {2: {(TRIVIAL, None): 1, (CUSP, 6): 1}}),
    8: ((3, 2), {2: {(CUSP, 8): 1}, 3: {(CUSP, 4): 1}}),
    9: ((1, 1), {}),
}


@pytest.mark.parametrize("case", sorted(PROFILES))
def test_eisenstein_case_profiles(case):
    (m1, m2), expected = PROFILES[case]
    lam = HighestWeight(m1, m2)
    profile = eisenstein_case_profile(lam)
    assert case_classifier(lam) == case
    assert profile.degrees() == tuple(sorted(expected))
    for q, multiset in expected.items():
        assert profile.multiset(q) == multiset


@given(small, small)
def test_eisenstein_sits_inside_the_boundary(m1, m2):
    lam = HighestWeight(m1, m2)
    eis = eisenstein_case_profile(lam)
    bd = case_profile(lam)
    for q in eis.degrees():
        inner = eis.multiset(q)
        outer = bd.multiset(q)
        for key, mult in inner.items():
            assert outer.get(key, 0) >= mult


@given(small, small)
def test_identities_hold(m1, m2):
    flags = verify_identities(HighestWeight(m1, m2))
    assert flags == {
        "chi_eis_equals_chi_h": True,
        "half_boundary": True,
        "poincare_pair": True,
    }


def test_chi_eis_pins():
    def chi_eis(m1, m2):
        return cohomology_report(HighestWeight(m1, m2))["eisenstein"]["chi_eis"]

    assert chi_eis(0, 0) == 1
    assert chi_eis(0, 11) == 1
    assert chi_eis(4, 2) == -1
    assert chi_eis(1, 1) == 0


def test_ghost_statuses():
    report = ghost_report(HighestWeight(0, 3))
    assert list(report) == list(GHOST_DEGREES)
    assert report[2] == UNDETERMINED
    assert all(report[q] == ZERO for q in (0, 1, 3, 4))
    report = ghost_report(HighestWeight(3, 0))
    assert report[2] == UNDETERMINED
    for m1, m2 in [(0, 0), (0, 4), (2, 4), (2, 3), (3, 2), (1, 1)]:
        report = ghost_report(HighestWeight(m1, m2))
        assert all(report[q] == ZERO for q in GHOST_DEGREES)


@given(small, small)
def test_ghosts_only_in_degree_two_of_the_half_odd_cases(m1, m2):
    report = ghost_report(HighestWeight(m1, m2))
    undetermined = [q for q, s in report.items() if s == UNDETERMINED]
    one_zero_odd = (m1 == 0 and m2 % 2 == 1) or (m2 == 0 and m1 % 2 == 1)
    assert undetermined == ([2] if one_zero_odd else [])


def test_total_cohomology_sl3():
    report = cohomology_report(HighestWeight(4, 2))
    assert report["group"] == "sl3"
    assert report["total"] == {"self_dual": False, "inner_known": True}
    assert report["eisenstein"]["profile"]["3"] == [
        {"kind": "TrivialLine", "k": None, "mult": 1},
        {"kind": "Cusp", "k": 4, "mult": 1},
        {"kind": "Cusp", "k": 6, "mult": 1},
    ]
    report = cohomology_report(HighestWeight(2, 2))
    assert report["total"] == {"self_dual": True, "inner_known": False}


def test_total_cohomology_gl3():
    report = cohomology_report(HighestWeight(0, 0, 1), group="gl3")
    assert report["vanishes"]
    assert report["total"]["inner_known"]
    assert all(s == [] for s in report["eisenstein"]["profile"].values())
    report = cohomology_report(HighestWeight(2, 1, 0), group="gl3")
    assert not report["vanishes"]
    sl3 = cohomology_report(HighestWeight(2, 1))
    assert report["eisenstein"] == sl3["eisenstein"]
    assert report["total"]["inner_known"]


def test_total_cohomology_validation():
    with pytest.raises(ValueError):
        cohomology_report(HighestWeight(2, 1), group="gl3")
    with pytest.raises(ValueError):
        cohomology_report(HighestWeight(2, 1, 0), group="sl3")
    with pytest.raises(ValueError):
        cohomology_report(HighestWeight(2, 1), group="so5")


def test_gl3_vanishing():
    assert gl3_vanishes(HighestWeight(1, 0, 0))
    assert gl3_vanishes(HighestWeight(0, 2, 1))
    assert not gl3_vanishes(HighestWeight(1, 0, 1))
    assert not gl3_vanishes(HighestWeight(2, 5, 0))
    with pytest.raises(ValueError):
        gl3_vanishes(HighestWeight(1, 0))
