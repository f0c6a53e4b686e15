"""Boundary cohomology: E1 page, the differential, and the nine-case formula."""
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sl3coh.boundary import (
    E1Term,
    GradedProfile,
    boundary_profile,
    case_profile,
    d1_rank,
    e1_page,
)
from sl3coh.euler import SymbolicCell
from sl3coh.gl2 import GL2Weight
from sl3coh.parity import case_classifier
from sl3coh.rootsystem import HighestWeight, Parabolic, WeylElement
from sl3coh.traces import TorsionClass

small = st.integers(min_value=0, max_value=40)

# expected boundary profiles at one representative weight per parity case,
# written as degree -> summands (k, mult), k None for trivial lines
PROFILES = {
    1: ((0, 0), {0: ((None, 1),), 4: ((None, 1),)}),
    2: ((0, 4), {1: ((6, 1),), 3: ((6, 1),)}),
    3: ((4, 0), {1: ((6, 1),), 3: ((6, 1),)}),
    4: ((2, 4), {1: ((None, 1), (4, 1), (6, 1)), 3: ((None, 1), (4, 1), (6, 1))}),
    5: ((2, 3), {1: ((4, 1),), 2: ((8, 2),), 3: ((4, 1),)}),
    6: ((0, 3), {2: ((None, 2), (6, 2))}),
    7: ((3, 0), {2: ((None, 2), (6, 2))}),
    8: ((3, 2), {1: ((4, 1),), 2: ((8, 2),), 3: ((4, 1),)}),
    9: ((1, 1), {}),
}


def test_e1_page_of_the_trivial_weight():
    col0, col1 = e1_page(HighestWeight(0, 0))
    assert sorted(col0) == [0]
    assert sorted((t.parabolic, t.w, t.face_degree) for t in col0[0]) == [
        ("P1", "e", 0),
        ("P2", "e", 0),
    ]
    assert all(t.summands == ((None, 1),) for t in col0[0])
    assert sorted(col1) == [0, 3]
    assert [t.w for t in col1[0]] == ["e"]
    assert [t.w for t in col1[3]] == ["s1s2s1"]


def test_e1_page_with_modular_blocks():
    col0, col1 = e1_page(HighestWeight(0, 11))
    assert sorted(col0) == [2]
    by_face = {(t.parabolic, t.w): t for t in col0[2]}
    assert set(by_face) == {("P1", "s1"), ("P1", "s1s2"), ("P2", "s2")}
    assert by_face[("P1", "s1")].summands == ((14, 1),)
    assert by_face[("P1", "s1")].face_degree == 1
    assert by_face[("P1", "s1s2")].summands == ((None, 1),)
    assert by_face[("P1", "s1s2")].face_degree == 0
    # an H^1 block that splits off its Eisenstein line
    assert by_face[("P2", "s2")].summands == ((14, 1), (None, 1))
    assert sorted(col1) == [1, 2]


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
    assert len(profile) == len(case_profile(lam)) == 5
    assert case_classifier(lam) == case
    assert profile == tuple(expected.get(q, ()) for q in range(5))


@given(small, small)
def test_profile_support(m1, m2):
    profile = case_profile(HighestWeight(m1, m2))
    assert len(profile) == 5 and profile[5:] == ()
    assert all(type(row) is tuple and all(m > 0 for _, m in row) for row in profile)


def test_graded_profile_helpers():
    # degrees and weights out of order, a zero multiplicity, an empty degree
    profile = GradedProfile.build(
        {3: {}, 1: {30: 1, 4: 2, None: 1, 6: 0}, 0: {None: 0}}
    )
    assert profile == ((), ((None, 1), (4, 2), (30, 1)), (), (), ())
    assert profile[1] == ((None, 1), (4, 2), (30, 1))
    assert profile[0] == ()
    assert dict(profile[1]) == {None: 1, 4: 2, 30: 1}
    assert dict(profile[0]) == {}
    # dim S_4 = 0 and dim S_30 = 2
    assert sum(profile.dimensions()) == 3
    assert profile.euler_characteristic() == -3
    assert (profile.dimensions(), GradedProfile(((),) * 5).dimensions()) == (
        [0, 3, 0, 0, 0],
        [0, 0, 0, 0, 0],
    )


@pytest.mark.parametrize("q", [-1, 5])
def test_build_rejects_a_degree_outside_0_to_4(q):
    # a row index of -1 would otherwise land silently in degree 4
    error = f"degree {q} is outside 0..4"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        GradedProfile.build({q: {None: 1}})


@pytest.mark.parametrize("rows", [(), ((),) * 4, ((),) * 6])
def test_a_profile_is_five_rows(rows):
    error = f"a profile has five rows, degrees 0..4, got {len(rows)}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        GradedProfile(rows)


# one instance of each value type; the per-weight caches keep many of them
VALUES = [
    HighestWeight(2, 4),
    WeylElement("s1", (2, 1, 3), (1,)),
    Parabolic("P1"),
    GL2Weight(2, 4),
    GradedProfile.build({1: {4: 1}}),
    E1Term("P1", "e", 0, ((None, 1),)),
    SymbolicCell("sum", offset=2, shift=1),
    TorsionClass("phi1*phi3", Fraction(1, 6), 3, 3),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_slotted(value):
    assert not hasattr(value, "__dict__")
    assert isinstance(value, tuple)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_survive_pickle(value):
    # WeylElement's __new__ takes three of its four fields
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value


# _replace builds through _make, so one bad field raises the constructor's
# own error, text and all
@pytest.mark.parametrize(
    "value, change, error",
    [
        (HighestWeight(2, 4), {"m1": -1}, "weight must be dominant, got (-1, 4, 0)"),
        (GL2Weight(2, 4), {"n": 3}, "a and n must have equal parity, got (2, 3)"),
        (
            SymbolicCell("zero"),
            {"offset": 2},
            "a zero cell has no offset or shift, "
            "got SymbolicCell(kind='zero', offset=2, shift=0)",
        ),
        (
            WeylElement("s1", (2, 1, 3), (1,)),
            {"perm": (1, 1, 1)},
            "perm must be a permutation of (1, 2, 3), got (1, 1, 1)",
        ),
        (Parabolic("P1"), {"tag": "P7"}, "unknown parabolic 'P7'"),
    ],
    ids=["HighestWeight", "GL2Weight", "SymbolicCell", "WeylElement", "Parabolic"],
)
def test_replace_keeps_validation(value, change, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        value._replace(**change)
