"""Boundary cohomology: E1 page, the differential, and the nine-case formula."""
import pytest
from hypothesis import given, strategies as st

from sl3coh.boundary import (
    CUSP,
    CohomologySummand,
    GradedProfile,
    TRIVIAL,
    boundary_profile,
    case_profile,
    cusp,
    d1_rank,
    e1_page,
    trivial_line,
)
from sl3coh.parity import case_classifier
from sl3coh.rootsystem import HighestWeight

small = st.integers(min_value=0, max_value=40)

# expected boundary profiles at one representative weight per parity case,
# written as degree -> {(kind, k): mult}
PROFILES = {
    1: ((0, 0), {0: {(TRIVIAL, None): 1}, 4: {(TRIVIAL, None): 1}}),
    2: ((0, 4), {1: {(CUSP, 6): 1}, 3: {(CUSP, 6): 1}}),
    3: ((4, 0), {1: {(CUSP, 6): 1}, 3: {(CUSP, 6): 1}}),
    4: (
        (2, 4),
        {
            1: {(TRIVIAL, None): 1, (CUSP, 4): 1, (CUSP, 6): 1},
            3: {(TRIVIAL, None): 1, (CUSP, 4): 1, (CUSP, 6): 1},
        },
    ),
    5: ((2, 3), {1: {(CUSP, 4): 1}, 2: {(CUSP, 8): 2}, 3: {(CUSP, 4): 1}}),
    6: ((0, 3), {2: {(TRIVIAL, None): 2, (CUSP, 6): 2}}),
    7: ((3, 0), {2: {(TRIVIAL, None): 2, (CUSP, 6): 2}}),
    8: ((3, 2), {1: {(CUSP, 4): 1}, 2: {(CUSP, 8): 2}, 3: {(CUSP, 4): 1}}),
    9: ((1, 1), {}),
}


def test_e1_page_of_the_trivial_weight():
    col0, col1 = e1_page(HighestWeight(0, 0))
    assert sorted(col0) == [0]
    assert sorted((t.parabolic, t.w, t.face_degree) for t in col0[0]) == [
        ("P1", "e", 0),
        ("P2", "e", 0),
    ]
    assert all(t.summands == (trivial_line(),) for t in col0[0])
    assert sorted(col1) == [0, 3]
    assert [t.w for t in col1[0]] == ["e"]
    assert [t.w for t in col1[3]] == ["s1s2s1"]


def test_e1_page_with_modular_blocks():
    col0, col1 = e1_page(HighestWeight(0, 11))
    assert sorted(col0) == [2]
    by_face = {(t.parabolic, t.w): t for t in col0[2]}
    assert set(by_face) == {("P1", "s1"), ("P1", "s1s2"), ("P2", "s2")}
    assert by_face[("P1", "s1")].summands == (cusp(14),)
    assert by_face[("P1", "s1")].face_degree == 1
    assert by_face[("P1", "s1s2")].summands == (trivial_line(),)
    assert by_face[("P1", "s1s2")].face_degree == 0
    assert by_face[("P2", "s2")].summands == (cusp(14), trivial_line())
    assert by_face[("P2", "s2")].trivial_lines() == 1
    assert sorted(col1) == [1, 2]
    # read-only columns: the cache hands the same two mappings out
    with pytest.raises(TypeError):
        col0[2] = ()


def test_d1_ranks():
    def rank(m1, m2, q):
        lam = HighestWeight(m1, m2)
        return d1_rank(lam, *e1_page(lam), q)

    assert rank(0, 0, 0) == 1
    assert rank(0, 0, 3) == 0
    assert rank(0, 11, 1) == 0
    assert rank(0, 11, 2) == 1
    assert rank(4, 2, 0) == 0
    assert rank(4, 2, 3) == 1


@pytest.mark.parametrize("case", sorted(PROFILES))
def test_case_profiles(case):
    (m1, m2), expected = PROFILES[case]
    lam = HighestWeight(m1, m2)
    profile = boundary_profile(lam, cross_check=False)
    assert profile == case_profile(lam)
    assert case_classifier(lam) == case
    assert profile.degrees() == tuple(sorted(expected))
    for q, multiset in expected.items():
        assert profile.multiset(q) == multiset


@given(small, small)
def test_profile_support(m1, m2):
    profile = case_profile(HighestWeight(m1, m2))
    assert all(0 <= q <= 4 for q in profile.degrees())
    assert all(profile.summands(q) for q in profile.degrees())
    assert profile.summands(7) == ()


def test_summand_validation():
    with pytest.raises(ValueError):
        CohomologySummand("Line")
    with pytest.raises(ValueError):
        CohomologySummand(TRIVIAL, k=4)
    with pytest.raises(ValueError):
        CohomologySummand(CUSP)
    with pytest.raises(ValueError):
        CohomologySummand(TRIVIAL, mult=0)
    # no level-one cusp forms below weight 2: refused when the summand is made
    with pytest.raises(ValueError, match="got 1"):
        cusp(1)
    with pytest.raises(ValueError, match="got -4"):
        cusp(-4)
    # ghost statuses live in ghost_report, not in a summand kind
    with pytest.raises(ValueError, match="unknown summand kind"):
        CohomologySummand("GhostCandidateLine")
    assert cusp(12, mult=3).dimension() == 3
    assert trivial_line(2).dimension() == 2


def test_graded_profile_helpers():
    profile = GradedProfile.build({1: [cusp(4), trivial_line(), cusp(4)], 3: []})
    assert profile.degrees() == (1,)
    assert profile.summands(1) == (trivial_line(), cusp(4, mult=2))
    assert profile.multiset(1) == {(TRIVIAL, None): 1, (CUSP, 4): 2}
    assert profile.dimension(1) == 1
    assert profile.total_dimension() == 1
    assert profile.euler_characteristic() == -1
