"""Eisenstein cohomology, its identities, ghost statuses, and the report."""
import pytest
from hypothesis import given, strategies as st

from sl3coh.boundary import BOUNDARY_CASES, boundary_profile, case_profile, e1_page
from sl3coh.eisenstein import (
    EISENSTEIN_CASES,
    GHOST_DEGREES,
    UNDETERMINED,
    ZERO,
    cohomology_report,
    eisenstein_case_profile,
    ghost_report,
    gl3_vanishes,
)
from sl3coh.euler import euler_report
from sl3coh.parity import case_classifier, survivor_sets
from sl3coh.rootsystem import HighestWeight

# expected Eisenstein profiles at one representative weight per parity case,
# written as degree -> summands (k, mult), k None for trivial lines
PROFILES = {
    1: ((0, 0), {0: ((None, 1),)}),
    2: ((0, 4), {3: ((6, 1),)}),
    3: ((4, 0), {3: ((6, 1),)}),
    4: ((2, 4), {3: ((None, 1), (4, 1), (6, 1))}),
    5: ((2, 3), {2: ((8, 1),), 3: ((4, 1),)}),
    6: ((0, 3), {2: ((None, 1), (6, 1))}),
    7: ((3, 0), {2: ((None, 1), (6, 1))}),
    8: ((3, 2), {2: ((8, 1),), 3: ((4, 1),)}),
    9: ((1, 1), {}),
}


@pytest.mark.parametrize("case", sorted(PROFILES))
def test_eisenstein_case_profiles(case):
    (m1, m2), expected = PROFILES[case]
    lam = HighestWeight(m1, m2)
    profile = eisenstein_case_profile(lam)
    assert case_classifier(lam) == case
    assert profile == tuple(expected.get(q, ()) for q in range(5))



def test_an_edited_case_row_is_read_after_first_use(monkeypatch, cold_caches):
    # the parsed summands are keyed by their strings, not by table and case
    lam = HighestWeight(2, 3)  # case 5
    case_profile(lam), eisenstein_case_profile(lam)
    monkeypatch.setitem(BOUNDARY_CASES[5], 2, ("m1+m2+5",))
    monkeypatch.setitem(EISENSTEIN_CASES[5], 2, ("1", "m2+7"))
    case_profile.cache_clear()
    assert case_profile(lam)[2] == ((10, 1),)
    assert eisenstein_case_profile(lam)[2] == ((None, 1), (10, 1))

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
    report = cohomology_report(HighestWeight(0, 0, 1))
    assert report["vanishes"]
    assert report["total"]["inner_known"]
    assert all(s == [] for s in report["eisenstein"]["profile"].values())
    report = cohomology_report(HighestWeight(2, 1, 0))
    assert not report["vanishes"]
    sl3 = cohomology_report(HighestWeight(2, 1))
    assert report["eisenstein"] == sl3["eisenstein"]
    assert report["total"]["inner_known"]


def test_total_cohomology_validation():
    # the group is read off m3; a group argument is refused, not ignored
    assert cohomology_report(HighestWeight(2, 1))["group"] == "sl3"
    assert cohomology_report(HighestWeight(2, 1, 0))["group"] == "gl3"
    with pytest.raises(TypeError):
        cohomology_report(HighestWeight(2, 1), "gl3")


def test_gl3_vanishing():
    assert gl3_vanishes(HighestWeight(1, 0, 0))
    assert gl3_vanishes(HighestWeight(0, 2, 1))
    assert not gl3_vanishes(HighestWeight(1, 0, 1))
    assert not gl3_vanishes(HighestWeight(2, 5, 0))
    with pytest.raises(ValueError):
        gl3_vanishes(HighestWeight(1, 0))


PER_WEIGHT = (
    e1_page,
    survivor_sets,
    boundary_profile,
    case_profile,
    eisenstein_case_profile,
    ghost_report,
    euler_report,
)


@pytest.mark.parametrize("fn", PER_WEIGHT, ids=lambda fn: fn.__name__)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(-5, 5))
def test_a_gl3_weight_gets_the_answer_of_its_sl3_part(fn, m1, m2, m3):
    # m3 shifts every coordinate of w . lam alike, and the per-weight
    # functions read only m1, m2 or coordinate differences
    assert fn(HighestWeight(m1, m2, m3)) == fn(HighestWeight(m1, m2))
