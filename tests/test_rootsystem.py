"""Weyl group, dot action, Kostant sets, and Levi restriction."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sl3coh import checks
from sl3coh.parity import survivor_sets
from sl3coh.rootsystem import (
    E,
    HighestWeight,
    P0,
    P1,
    P2,
    Parabolic,
    S1,
    S2,
    S12,
    S21,
    W0,
    WEYL_GROUP,
    WeylElement,
    kostant_set,
    restrict_to_levi,
)

small = st.integers(min_value=0, max_value=20)

_BY_PERM = {w.perm: w for w in WEYL_GROUP}


def _times(u, v):
    """The product u v (v acts first), by composing permutations."""
    return _BY_PERM[tuple(u.perm[v.perm[i] - 1] for i in range(3))]


def _inverse(w):
    inv = [0, 0, 0]
    for i in range(3):
        inv[w.perm[i] - 1] = i + 1
    return _BY_PERM[tuple(inv)]


def _normalized(c):
    """The representative with c3 = 0 of the class of c mod (1, 1, 1)."""
    return (c[0] - c[2], c[1] - c[2], 0)


def _fundamental(c):
    """Fundamental coordinates of the epsilon triple c (mod the center)."""
    return (c[0] - c[1], c[1] - c[2])


def _dot_action(w, lam):
    """w . lam as an epsilon triple, normalized to c3 = 0 for SL3 weights."""
    moved = w.dot(lam)
    return _normalized(moved) if lam.m3 is None else moved


def test_weyl_group_table():
    assert [w.name for w in WEYL_GROUP] == ["e", "s1", "s2", "s1s2", "s2s1", "s1s2s1"]
    assert [w.length for w in WEYL_GROUP] == [0, 1, 1, 2, 2, 3]
    assert S12.perm == (2, 3, 1)
    assert S21.perm == (3, 1, 2)
    assert W0.perm == (3, 2, 1)
    # a perm that is not a permutation of (1, 2, 3) is refused when made
    with pytest.raises(ValueError, match=r"got \(1, 1, 1\)"):
        WeylElement("x", (1, 1, 1), ())


def test_weyl_products_and_inverses():
    assert _times(S1, S2) is S12
    assert _times(S2, S1) is S21
    assert _times(S1, _times(S2, S1)) is W0
    for w in WEYL_GROUP:
        assert _times(w, _inverse(w)) is E
        # length is additive against the long element
        assert w.length + _times(_inverse(w), W0).length == 3


@given(small, small)
def test_dot_action_in_fundamental_coordinates(m1, m2):
    lam = HighestWeight(m1, m2)
    expected = {
        "e": (m1, m2),
        "s1": (-m1 - 2, m1 + m2 + 1),
        "s2": (m1 + m2 + 1, -m2 - 2),
        "s1s2": (-m1 - m2 - 3, m1),
        "s2s1": (m2, -m1 - m2 - 3),
        "s1s2s1": (-m2 - 2, -m1 - 2),
    }
    for w in WEYL_GROUP:
        assert _fundamental(_dot_action(w, lam)) == expected[w.name]


def test_dot_action_normalizes_sl3():
    # an SL3 weight acts as m3 = 0; only its class mod (1, 1, 1) is normalized
    assert W0.dot(HighestWeight(0, 0)) == W0.dot(HighestWeight(0, 0, 0)) == (-2, 0, 2)
    assert _dot_action(W0, HighestWeight(0, 0)) == (-4, -2, 0)


def test_epsilon_coordinates():
    # the identity's dot action is the weight itself, as an epsilon triple
    assert E.dot(HighestWeight(2, 3)) == (5, 3, 0)
    assert E.dot(HighestWeight(1, 1, 1)) == (3, 2, 1)
    assert _fundamental((5, 3, 0)) == _fundamental((7, 5, 2)) == (2, 3)
    assert _normalized((7, 5, 2)) == (5, 3, 0)
    assert HighestWeight(2, 3).dual() == HighestWeight(3, 2)


def test_dominance_validation():
    with pytest.raises(ValueError):
        HighestWeight(-1, 0)
    with pytest.raises(ValueError):
        HighestWeight(0, -2)
    # the determinant power may be negative
    HighestWeight(0, 0, -5)


def test_kostant_sets():
    assert [w.name for w in kostant_set(P0)] == [
        "e", "s1", "s2", "s1s2", "s2s1", "s1s2s1",
    ]
    assert [w.name for w in kostant_set(P1)] == ["e", "s1", "s1s2"]
    assert [w.name for w in kostant_set(P2)] == ["e", "s2", "s2s1"]


def test_kostant_criterion_via_levi_root():
    # w is a minimal coset representative iff the inverse sends the Levi's
    # simple root to a positive root (alpha2 for P1, alpha1 for P2)
    def positive(root):
        return root > (0, 0, 0)

    def apply(w, root):
        out = [0, 0, 0]
        for i, c in enumerate(root):
            out[w.perm[i] - 1] = c
        return tuple(out)

    alpha1, alpha2 = (1, -1, 0), (0, 1, -1)
    for w in WEYL_GROUP:
        inv = _inverse(w)
        assert (w in kostant_set(P1)) == positive(apply(inv, alpha2))
        assert (w in kostant_set(P2)) == positive(apply(inv, alpha1))


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_levi_restriction_formulas(m1, m2):
    # the registry's table of (a, n) per Kostant representative, and the
    # survivors' parity
    failures = checks.survivors_at(HighestWeight(m1, m2))
    levi = {"levi_weight", "survivor_parity"}
    assert [f for f in failures if f["check"] in levi] == []


def _solve3(cols, rhs):
    """Solve the 3x3 system with the given columns, over Fraction."""

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    matrix = [[cols[j][i] for j in range(3)] for i in range(3)]
    d = det(matrix)
    assert d != 0
    out = []
    for j in range(3):
        replaced = [row[:] for row in matrix]
        for i in range(3):
            replaced[i][j] = rhs[i]
        out.append(det(replaced) / d)
    return out


@given(small, small)
def test_levi_restriction_by_linear_algebra(m1, m2):
    # expand w . lam in the basis (gamma, kappa, center) of the Levi's
    # character lattice and compare with restrict_to_levi
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    bases = {
        P1: ((0, half, -half), (-third, sixth, sixth)),
        P2: ((half, -half, 0), (sixth, sixth, -third)),
    }
    lam = HighestWeight(m1, m2)
    for p, (gamma, kappa) in bases.items():
        center = (1, 1, 1)
        for w in kostant_set(p):
            rhs = [Fraction(c) for c in w.dot(lam)]
            a, n, _ = _solve3((gamma, kappa, center), rhs)
            r = restrict_to_levi(w, lam, p)
            assert (a, n) == (r.a, r.n)


def test_levi_restriction_rejects_bad_input():
    lam = HighestWeight(1, 1)
    with pytest.raises(ValueError):
        restrict_to_levi(S2, lam, P1)
    with pytest.raises(ValueError):
        restrict_to_levi(S1, lam, P2)
    # P0's Levi is the torus: there is no GL2 weight to restrict to
    with pytest.raises(ValueError, match="P0 has no Levi GL2"):
        restrict_to_levi(E, lam, P0)
    # a name or tag in place of a WeylElement or Parabolic
    with pytest.raises(TypeError):
        restrict_to_levi("e", HighestWeight(2, 1), P1)
    with pytest.raises(TypeError):
        restrict_to_levi(E, lam, "P1")
    with pytest.raises(TypeError):
        kostant_set("P1")
    # one read-only entry per face: the cache hands the same mapping out
    sets = survivor_sets(lam)
    assert set(sets) == {P0, P1, P2}
    with pytest.raises(TypeError):
        sets[P1] = ()


def test_value_types_compare_by_value():
    # a user-built element is the library's: equal, same hash, same answers
    s1 = WeylElement("s1", (2, 1, 3), (1,))
    assert s1 == S1 and hash(s1) == hash(S1) and s1 is not S1
    lam = HighestWeight(5, 2)
    assert restrict_to_levi(s1, lam, P1) == restrict_to_levi(S1, lam, P1)
    assert Parabolic("P1") == P1 and hash(Parabolic("P1")) == hash(P1)
    assert kostant_set(Parabolic("P1")) is kostant_set(P1)
    # a plain tuple equal to P1 still misses the cache and is refused
    with pytest.raises(TypeError, match="p must be a Parabolic"):
        kostant_set(("P1",))
    # _replace derives source from the new perm, as the constructor does
    assert S1._replace(name="s2", perm=(1, 3, 2), reduced_word=(2,)) == S2


def test_parabolic_data():
    assert len(P0.nilradical_roots()) == 3
    assert len(P1.nilradical_roots()) == 2
    # an unknown tag is refused when the parabolic is made
    with pytest.raises(ValueError, match="unknown parabolic"):
        Parabolic("P7")


# test-only copies of the epsilon-coordinate route that the dot action and
# restrict_to_levi took before their integer form
def _epsilon(lam):
    m3 = lam.m3 or 0
    return (lam.m1 + lam.m2 + m3, lam.m2 + m3, m3)


def _epsilon_apply(w, eps):
    out = [0, 0, 0]
    for i, c in enumerate(eps):
        out[w.perm[i] - 1] = c
    return tuple(out)


def _epsilon_dot_action(w, lam):
    c1, c2, c3 = _epsilon(lam)
    d1, d2, d3 = _epsilon_apply(w, (c1 + 1, c2, c3 - 1))
    result = (d1 - 1, d2, d3 + 1)
    return _normalized(result) if lam.m3 is None else result


def _epsilon_levi_weight(w, lam, p):
    c1, c2, c3 = _epsilon_dot_action(w, lam)
    if p == P1:
        return c2 - c3, c2 + c3 - 2 * c1
    return c1 - c2, c1 + c2 - 2 * c3


weights = st.builds(
    HighestWeight,
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.none() | st.integers(min_value=-5, max_value=5),
)


@given(weights)
def test_dot_action_matches_the_epsilon_weight_route(lam):
    for w in WEYL_GROUP:
        assert _dot_action(w, lam) == _epsilon_dot_action(w, lam)


@given(weights)
def test_levi_restriction_matches_the_epsilon_weight_route(lam):
    for p in (P1, P2):
        for w in WEYL_GROUP:
            if w in kostant_set(p):
                r = restrict_to_levi(w, lam, p)
                assert (r.a, r.n) == _epsilon_levi_weight(w, lam, p)
            else:
                with pytest.raises(ValueError, match="not a Kostant"):
                    restrict_to_levi(w, lam, p)


def test_sl3_part_keeps_sl3_weights():
    lam = HighestWeight(3, 4)
    assert lam.sl3_part() is lam
    assert HighestWeight(3, 4, -2).sl3_part() == lam
