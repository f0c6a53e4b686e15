"""Survivor sets and the nine-case classification."""
import pytest
from hypothesis import given, strategies as st

from sl3coh import checks
from sl3coh.gl2 import survives
from sl3coh.parity import (
    case_classifier,
    minimal_parabolic_survives,
    survivor_sets,
)
from sl3coh.rootsystem import (
    E,
    P0,
    P1,
    P2,
    S1,
    S12,
    HighestWeight,
    WEYL_GROUP,
    restrict_to_levi,
)

small = st.integers(min_value=0, max_value=30)

# representative weight and expected survivor names on P0, P1, P2 per case
CASES = {
    1: ((0, 0), ["e", "s1s2s1"], ["e"], ["e"]),
    2: ((0, 4), ["e", "s1s2s1"], ["e"], ["e", "s2s1"]),
    3: ((4, 0), ["e", "s1s2s1"], ["e", "s1s2"], ["e"]),
    4: ((2, 4), ["e", "s1s2s1"], ["e", "s1s2"], ["e", "s2s1"]),
    5: ((2, 3), ["s1", "s1s2"], ["s1", "s1s2"], ["e", "s2"]),
    6: ((0, 3), ["s1", "s1s2"], ["s1", "s1s2"], ["s2"]),
    7: ((3, 0), ["s2", "s2s1"], ["s1"], ["s2", "s2s1"]),
    8: ((3, 2), ["s2", "s2s1"], ["e", "s1"], ["s2", "s2s1"]),
    9: ((1, 1), [], [], []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_survivor_sets_by_case(case):
    (m1, m2), *names = CASES[case]
    lam = HighestWeight(m1, m2)
    assert case_classifier(lam) == case
    sets = survivor_sets(lam)
    assert [[w.name for w in sets[p]] for p in (P0, P1, P2)] == names


def test_minimal_survivor_is_parity_of_coordinates():
    lam = HighestWeight(0, 0)
    assert minimal_parabolic_survives(E, lam)
    # s1 . (0,0) = (-2, 1): second coordinate odd
    assert not minimal_parabolic_survives(S1, lam)


def test_maximal_survivor_examples():
    # (a, n) = (1, 3) for w = s1 at the trivial weight: n odd, killed
    lam = HighestWeight(0, 0)
    assert not survives(restrict_to_levi(S1, lam, P1))
    # (a, n) = (0, 6) for w = s1s2 at the trivial weight: n/2 odd, killed
    assert not survives(restrict_to_levi(S12, lam, P1))
    # (a, n) = (0, 0) for w = e: survives
    assert survives(restrict_to_levi(E, lam, P1))


@given(small, small)
def test_survivors_depend_only_on_parity_class(m1, m2):
    lam = HighestWeight(m1, m2)
    # bumping a nonzero coordinate by 2 never changes the survivor names
    bumped = HighestWeight(m1 + 2 if m1 else 0, m2 + 2 if m2 else 0)
    a, b = survivor_sets(lam), survivor_sets(bumped)
    for p in (P0, P1, P2):
        assert [w.name for w in a[p]] == [w.name for w in b[p]]


@given(small, small)
def test_survivor_reflection_symmetry(m1, m2):
    # swapping (m1, m2) mirrors the picture through the diagram automorphism
    failures = checks.survivors_at(HighestWeight(m1, m2))
    assert [f for f in failures if f["check"] == "survivor_reflection"] == []


@given(small, small)
def test_at_most_one_minimal_survivor_per_degree(m1, m2):
    sets = survivor_sets(HighestWeight(m1, m2))
    lengths = [w.length for w in sets[P0]]
    assert len(lengths) == len(set(lengths))
    assert len(lengths) <= 2


@given(small, small)
def test_case_classifier_partition(m1, m2):
    case = case_classifier(HighestWeight(m1, m2))
    assert 1 <= case <= 9
    if m1 % 2 == 1 and m2 % 2 == 1:
        assert case == 9
    if case == 1:
        assert (m1, m2) == (0, 0)
    if case in (2, 3, 4):
        assert m1 % 2 == 0 and m2 % 2 == 0


def test_survivor_sets_ordered_by_length():
    for case in CASES:
        (m1, m2), *_ = CASES[case]
        sets = survivor_sets(HighestWeight(m1, m2))
        for ws in sets.values():
            assert list(ws) == sorted(ws, key=lambda w: w.length)


def test_full_weyl_orbit_parity_count():
    # across the full dot orbit of a strictly dominant even weight exactly
    # half the translates have both coordinates even
    lam = HighestWeight(2, 4)
    survivors = [w for w in WEYL_GROUP if minimal_parabolic_survives(w, lam)]
    assert [w.name for w in survivors] == ["e", "s1s2s1"]
