"""Cyclotomic integer arithmetic and the three trace routes."""
import pytest
from hypothesis import given, strategies as st

from sl3coh import traces
from sl3coh.rootsystem import HighestWeight
from sl3coh.traces import (
    CyclotomicInt,
    SL3_TORSION_CLASSES,
    closed_trace,
    gt_character,
    gt_trace,
    weyl_det_trace,
)

ORDERS = (1, 2, 3, 4, 6)
TRACE_ORDERS = (2, 3, 4, 6)


def _elements(order):
    coeff = st.integers(min_value=-9, max_value=9)
    width = 1 if order in (1, 2) else 2
    return st.tuples(*([coeff] * width)).map(lambda c: CyclotomicInt(order, c))


@pytest.mark.parametrize("order", ORDERS)
def test_zeta_power_table_matches_repeated_multiplication(order):
    z = CyclotomicInt.zeta_power(order, 1)
    for e in range(2 * order + 1):
        assert CyclotomicInt.zeta_power(order, e) == z.power(e)
    assert z.power(order) == CyclotomicInt.integer(order, 1)


def test_sixth_root_satisfies_its_minimal_polynomial():
    z = CyclotomicInt.zeta_power(6, 1)
    one = CyclotomicInt.integer(6, 1)
    assert z * z - z + one == CyclotomicInt.zero(6)


def _same_order_triples():
    return st.sampled_from(ORDERS).flatmap(
        lambda order: st.tuples(_elements(order), _elements(order), _elements(order))
    )


@given(_same_order_triples())
def test_ring_laws(xyz):
    x, y, z = xyz
    zero = CyclotomicInt.zero(x.order)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == zero
    assert x + (-x) == zero
    assert x.scale(3) == x + x + x


def test_cyclotomic_validation():
    with pytest.raises(ValueError):
        CyclotomicInt(5, (1, 0))
    with pytest.raises(ValueError):
        CyclotomicInt(6, (1,))
    with pytest.raises(ValueError):
        CyclotomicInt.integer(3, 1) + CyclotomicInt.integer(4, 1)
    with pytest.raises(ValueError):
        CyclotomicInt.zeta_power(6, 1).power(-1)
    with pytest.raises(ValueError):
        CyclotomicInt(6, (1, 2)).to_int()
    assert CyclotomicInt(4, (7, 0)).to_int() == 7
    assert CyclotomicInt(1, (5,)).is_integer()


def test_six_consecutive_even_powers_cancel():
    # three consecutive zeta^(l+2j) + zeta^(-(l+2j)) sum to zero; this is
    # what makes the inner run of the triple sum periodic for k = 6
    for ell in range(6):
        total = CyclotomicInt.zero(6)
        for j in (1, 2, 3):
            e = ell + 2 * j
            total = total + CyclotomicInt.zeta_power(6, e)
            total = total + CyclotomicInt.zeta_power(6, -e)
        assert total == CyclotomicInt.zero(6)


def test_dimension_from_character_at_identity():
    one = CyclotomicInt.integer(1, 1)
    for m1 in range(5):
        for m2 in range(5):
            dim = gt_character(m1, m2, 0, one, one, one).to_int()
            assert 2 * dim == (m1 + 1) * (m2 + 1) * (m1 + m2 + 2)


@pytest.mark.parametrize("k", TRACE_ORDERS)
@pytest.mark.parametrize("m3", [0, 1])
def test_grouped_trace_matches_direct_character(k, m3):
    t1 = CyclotomicInt.integer(k, 1)
    t2 = CyclotomicInt.zeta_power(k, 1)
    t3 = CyclotomicInt.zeta_power(k, k - 1)
    for m1 in range(11):
        for m2 in range(11):
            direct = gt_character(m1, m2, m3, t1, t2, t3).to_int()
            assert gt_trace(m1, m2, m3, k) == direct


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(TRACE_ORDERS),
)
def test_trace_ignores_determinant_twist(m1, m2, m3, k):
    assert gt_trace(m1, m2, m3, k) == gt_trace(m1, m2, 0, k)
    assert closed_trace(m1, m2, m3, k) == closed_trace(m1, m2, 0, k)


def test_trace_pins():
    for k in TRACE_ORDERS:
        assert closed_trace(0, 0, 0, k) == 1
    assert closed_trace(3, 3, 0, 6) == -3
    assert closed_trace(1, 1, 0, 6) == 3
    assert closed_trace(2, 0, 0, 2) == 2
    assert weyl_det_trace(2, 0, 4) == 0
    assert weyl_det_trace(1, 1, 6) == 3


def test_trace_validation():
    with pytest.raises(ValueError):
        gt_trace(0, 0, 0, 5)
    with pytest.raises(ValueError):
        closed_trace(-1, 0, 0, 2)
    with pytest.raises(ValueError):
        weyl_det_trace(0, -2, 3)
    with pytest.raises(ValueError):
        gt_trace(-3, 0, 0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gt_trace(True, 2, 0, 3),
        lambda: gt_trace(1.5, 2, 0, 3),
        lambda: gt_trace(4, 2.0, 0, 6),
        lambda: gt_trace(4, 2, 0.0, 6),
        lambda: gt_trace(4, "2", 0, 6),
        lambda: weyl_det_trace(True, 2, 3),
        lambda: weyl_det_trace(2, 1.0, 4),
        lambda: closed_trace(3.0, 0, 0, 2),
        lambda: closed_trace(1, 1, 0, 6.0),
        lambda: gt_trace(1, 1, 0, 6.0),
        lambda: HighestWeight(True, 2),
        lambda: HighestWeight(1.5, 2),
        lambda: HighestWeight(1, 2.0),
        lambda: HighestWeight(1, 2, False),
        lambda: HighestWeight(1, 2, 0.5),
    ],
)
def test_non_integer_weights_and_orders_are_rejected(call):
    with pytest.raises(TypeError, match="must (be an|have) int"):
        call()


# test-only reference for the closed progression sums of gt_trace: the
# direct O(m1 + m2) loop over d = p1 - p2
def _gt_trace_by_d(m1, m2, m3, k):
    lo1, hi1 = m2 + m3, m1 + m2 + m3
    lo2, hi2 = m3, m2 + m3
    counts = [0] * k
    period = k // 2 if k % 2 == 0 else k
    for d in range(0, m1 + m2 + 1):
        pairs = min(hi2, hi1 - d) - max(lo2, lo1 - d) + 1
        if pairs <= 0:
            continue
        for r in range(min(period, d + 1)):
            e = (2 * r - d) % k
            counts[e] += pairs * ((d - r) // period + 1)
    total = CyclotomicInt.zero(k)
    for e, c in enumerate(counts):
        total = total + CyclotomicInt.zeta_power(k, e).scale(c)
    return total.to_int()


# test-only reference for the closed progression sums of _h_row: the
# direct O(m^2) monomial enumeration
def _h_row_by_monomials(m, k):
    if m < 0:
        return 0
    counts = [0] * k
    for b in range(m + 1):
        for c in range(m + 1 - b):
            counts[(b - c) % k] += 1
    total = CyclotomicInt.zero(k)
    for e, cnt in enumerate(counts):
        total = total + CyclotomicInt.zeta_power(k, e).scale(cnt)
    return total.to_int()


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(TRACE_ORDERS),
)
def test_gt_trace_matches_the_loop_over_d(m1, m2, m3, k):
    assert gt_trace(m1, m2, m3, k) == _gt_trace_by_d(m1, m2, m3, k)


# test-only copy of the per-piece form of _gt_counts: its inner residue
# loop runs once per (piece, first term) instead of once per first mod k
def _gt_counts_per_piece(m1, m2, m3, k):
    lo1, hi1 = m2 + m3, m1 + m2 + m3
    lo2, hi2 = m3, m2 + m3
    counts = [0] * k
    period = k // 2 if k % 2 == 0 else k
    step = k // period
    low, high = min(m1, m2), max(m1, m2)
    for a, b in ((0, low), (low + 1, high), (high + 1, m1 + m2)):
        alpha, beta = (hi2, 0) if b <= m1 else (hi1, -1)
        if b <= m2:
            alpha, beta = alpha - lo1 + 1, beta + 1
        else:
            alpha -= lo2 - 1
        for first in range(a, min(a + k, b + 1)):
            n = (b - first) // k + 1
            s1, s2 = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
            p, q = alpha + beta * first, beta * k
            x, y = p * n + q * s1, step * (p * s1 + q * s2)
            for r in range(period):
                counts[(2 * r - first) % k] += ((first - r) // period + 1) * x + y
    return counts


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(TRACE_ORDERS),
)
def test_gt_counts_match_the_per_piece_loop(m1, m2, m3, k):
    assert traces._gt_counts(m1, m2, m3, k) == _gt_counts_per_piece(m1, m2, m3, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_gt_counts_at_piece_edges(k):
    for m1, m2 in _EDGE_WEIGHTS:
        for m3 in (-3, 0, 2):
            assert traces._gt_counts(m1, m2, m3, k) == _gt_counts_per_piece(
                m1, m2, m3, k
            )


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_character_matches_gt_trace_for_any_determinant_power(k):
    t1 = CyclotomicInt.integer(k, 1)
    t2 = CyclotomicInt.zeta_power(k, 1)
    t3 = CyclotomicInt.zeta_power(k, k - 1)
    for m3 in range(-3, 4):
        for m1 in range(5):
            for m2 in range(5):
                direct = gt_character(m1, m2, m3, t1, t2, t3).to_int()
                assert direct == gt_trace(m1, m2, m3, k)


def test_character_needs_roots_of_unity_for_negative_exponents():
    one = CyclotomicInt.integer(6, 1)
    two = CyclotomicInt.integer(6, 2)
    with pytest.raises(ValueError, match="root of unity"):
        gt_character(1, 0, -1, one, one, two)
    # the module (0, 0, -1) is det^-1
    z = CyclotomicInt.zeta_power(6, 1)
    assert gt_character(0, 0, -1, z, one, one) == CyclotomicInt.zeta_power(6, 5)
    # -zeta_6 has order 3
    t = -z
    assert gt_character(0, 0, -1, t, t, t) == one


@given(st.integers(min_value=-2, max_value=400), st.sampled_from(TRACE_ORDERS))
def test_h_row_matches_monomial_enumeration(m, k):
    assert traces._h_row(m, k) == _h_row_by_monomials(m, k)


# the piece edges of pairs(d): m1 = m2, min(m1, m2) < period,
# m1 + m2 < period, and a zero coordinate
_EDGE_WEIGHTS = [(m, m) for m in (0, 1, 2, 5, 6, 7, 37)] + [
    (0, 0), (0, 1), (1, 0), (2, 0), (0, 3), (1, 1), (2, 3), (4, 1),
    (0, 50), (50, 0), (1, 50), (50, 2), (5, 61), (61, 2), (0, 400), (400, 0),
]


@pytest.mark.parametrize("k", TRACE_ORDERS)
@pytest.mark.parametrize("m3", [-3, 0, 2])
def test_gt_trace_at_piece_edges(k, m3):
    for m1, m2 in _EDGE_WEIGHTS:
        assert gt_trace(m1, m2, m3, k) == _gt_trace_by_d(m1, m2, m3, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_h_row_at_small_and_period_edges(k):
    for m in range(-2, 4 * k + 3):
        assert traces._h_row(m, k) == _h_row_by_monomials(m, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_routes_agree_near_10_to_the_12(k):
    # no enumerating route reaches these weights; all three do not grow
    # with the weight, so every residue cell mod 12 is checked directly
    big = 10**12
    for a in range(12):
        for b in range(12):
            for m1, m2 in ((big + a, big + b), (big + a, b), (a, big + b)):
                value = closed_trace(m1, m2, 0, k)
                assert gt_trace(m1, m2, 0, k) == value
                assert gt_trace(m1, m2, 7, k) == value
                assert weyl_det_trace(m1, m2, k) == value


# in the order-R ring holding -1, the eigenvalues 1, zeta_k, zeta_k^-1 and
# their negatives, as powers of zeta_R
_NEGATION = {
    2: (2, (0, 1, 1)),
    3: (6, (0, 2, 4)),
    4: (4, (0, 1, 3)),
    6: (6, (0, 1, 5)),
}


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_central_sign_rule(k):
    # -1 in GL3 acts on the (m1, m2, m3) module by (-1)^(m1 + m3)
    ring, exps = _NEGATION[k]
    half = ring // 2
    plain = [CyclotomicInt.zeta_power(ring, e) for e in exps]
    negated = [CyclotomicInt.zeta_power(ring, e + half) for e in exps]
    for m1 in range(4):
        for m2 in range(4):
            for m3 in range(2):
                base = gt_character(m1, m2, m3, *plain).to_int()
                assert base == gt_trace(m1, m2, m3, k)
                sign = -1 if (m1 + m3) % 2 else 1
                assert gt_character(m1, m2, m3, *negated).to_int() == sign * base


def test_torsion_class_table_shape():
    labels = [c.label for c in SL3_TORSION_CLASSES]
    assert labels[0] == "phi1^3"
    assert len(labels) == len(set(labels)) == 5
    assert all(c.order in (0, 2, 3, 4, 6) for c in SL3_TORSION_CLASSES)
    assert sum(c.order == 0 for c in SL3_TORSION_CLASSES) == 1
