"""The three trace routes, against a direct enumeration of the basis."""
import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sl3coh import traces
from sl3coh.checks import CHECKS
from sl3coh.rootsystem import HighestWeight
from sl3coh.traces import (
    SL3_TORSION_CLASSES,
    closed_trace,
    gt_trace,
    weyl_det_trace,
)

TRACE_ORDERS = (2, 3, 4, 6)

# the low coefficients c_i of the minimal polynomial x^phi + sum c_i x^i of
# zeta_R, for every order R a test evaluates a character at
_MINIMAL = {1: (-1,), 2: (1,), 3: (1, 1), 4: (1, 0), 6: (1, -1)}


def _times_zeta(v, order):
    """zeta_R times the element with coefficients v in the basis 1, zeta_R."""
    top = v[-1]
    shifted = (0,) + v[:-1]
    return tuple(c - top * low for c, low in zip(shifted, _MINIMAL[order]))


def _in_zeta_basis(counts, order):
    """sum_r counts[r] zeta_R^r by Horner's rule, in the basis 1, zeta_R."""
    acc = (0,) * len(_MINIMAL[order])
    for count in reversed(counts):
        acc = _times_zeta(acc, order)
        acc = (acc[0] + count,) + acc[1:]
    return list(acc)


def _evaluate(counts, order):
    """sum_r counts[r] zeta_R^r; fails unless a rational integer."""
    acc = _in_zeta_basis(counts, order)
    assert not any(acc[1:]), f"{acc} is not a rational integer"
    return acc[0]


def _character(m1, m2, m3, exps, order):
    """Character value at diag(zeta_R^e1, zeta_R^e2, zeta_R^e3), directly.

    Each basis vector of the (m1, m2, m3) module has weight
    (q, p1 + p2 - q, m1 + 2 m2 + 3 m3 - p1 - p2); its exponent is counted
    mod R, which also folds the negative exponents of m3 < 0.  Cubic in the
    weight, so only for small m.
    """
    e1, e2, e3 = exps
    lam_sum = m1 + 2 * m2 + 3 * m3
    counts = [0] * order
    for p1 in range(m2 + m3, m1 + m2 + m3 + 1):
        for p2 in range(m3, m2 + m3 + 1):
            for q in range(p2, p1 + 1):
                e = e1 * q + e2 * (p1 + p2 - q) + e3 * (lam_sum - p1 - p2)
                counts[e % order] += 1
    return _evaluate(counts, order)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_zeta_power_table_matches_repeated_multiplication(k):
    powers = traces._ZETA_POWERS[k]
    assert len(powers) == k
    assert powers[0] == (1,) + (0,) * (len(_MINIMAL[k]) - 1)
    for e in range(k):
        assert powers[(e + 1) % k] == _times_zeta(powers[e], k)


def test_sixth_root_satisfies_its_minimal_polynomial():
    one, z, z2 = traces._ZETA_POWERS[6][:3]
    assert tuple(a - b + c for a, b, c in zip(z2, z, one)) == (0, 0)


def test_six_consecutive_even_powers_cancel():
    # three consecutive zeta^(l+2j) + zeta^(-(l+2j)) sum to zero; this is
    # what makes the inner run of the triple sum periodic for k = 6
    for ell in range(6):
        counts = [0] * 6
        for j in (1, 2, 3):
            e = ell + 2 * j
            counts[e % 6] += 1
            counts[-e % 6] += 1
        assert _evaluate(counts, 6) == 0


def test_dimension_from_character_at_identity():
    for m1 in range(5):
        for m2 in range(5):
            dim = _character(m1, m2, 0, (0, 0, 0), 1)
            assert 2 * dim == (m1 + 1) * (m2 + 1) * (m1 + m2 + 2)


@pytest.mark.parametrize("k", TRACE_ORDERS)
@pytest.mark.parametrize("m3", [0, 1])
def test_grouped_trace_matches_direct_character(k, m3):
    for m1 in range(11):
        for m2 in range(11):
            direct = _character(m1, m2, m3, (0, 1, k - 1), k)
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
    return _evaluate(counts, k)


# test-only reference for the closed progression sums of _h_row: the
# direct O(m^2) monomial enumeration
def _h_row_by_monomials(m, k):
    if m < 0:
        return 0
    counts = [0] * k
    for b in range(m + 1):
        for c in range(m + 1 - b):
            counts[(b - c) % k] += 1
    return _evaluate(counts, k)


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(TRACE_ORDERS),
)
def test_gt_trace_matches_the_loop_over_d(m1, m2, m3, k):
    assert gt_trace(m1, m2, m3, k) == _gt_trace_by_d(m1, m2, m3, k)


# test-only copy of the per-piece count of basis vectors per exponent mod k:
# its inner residue loop runs once per (piece, first term) instead of once
# per first mod k; _gt_coordinates holds these counts in the basis 1, zeta_k
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


def _gt_by_piece(m1, m2, m3, k):
    # both coordinates of the per-piece counts, not only the trace
    return _in_zeta_basis(_gt_counts_per_piece(m1, m2, m3, k), k)


@given(
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(TRACE_ORDERS),
)
def test_gt_counts_match_the_per_piece_loop(m1, m2, m3, k):
    assert traces._gt_coordinates(m1, m2, m3, k) == _gt_by_piece(m1, m2, m3, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_gt_counts_at_piece_edges(k):
    for m1, m2 in _EDGE_WEIGHTS:
        for m3 in (-3, 0, 2):
            assert traces._gt_coordinates(m1, m2, m3, k) == _gt_by_piece(m1, m2, m3, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_character_matches_gt_trace_for_any_determinant_power(k):
    for m3 in range(-3, 4):
        for m1 in range(5):
            for m2 in range(5):
                direct = _character(m1, m2, m3, (0, 1, k - 1), k)
                assert direct == gt_trace(m1, m2, m3, k)


@given(st.integers(min_value=-2, max_value=400), st.sampled_from(TRACE_ORDERS))
def test_h_row_matches_monomial_enumeration(m, k):
    assert traces._h_row(m, k) == _h_row_by_monomials(m, k)


# test-only copy of the progression count of monomials per exponent b - c
# mod k: one closed sum per residue s mod 2k of u = b - c, folded onto the
# exponents +s and -s
def _h_counts_by_progression(m, k):
    counts = [0] * k
    for s in range(min(2 * k, m + 1)):
        n = (m - s) // (2 * k) + 1
        weight = n * ((m - s) // 2 + 1) - k * (n * (n - 1) // 2)
        counts[s % k] += weight
        counts[-s % k] += weight
    counts[0] -= m // 2 + 1
    return counts


def _h_by_progression(m, k):
    # what _h_coordinates holds: the cosine sum sum_e counts[e] (zeta^e +
    # zeta^-e), then counts[e] - counts[-e] for 0 < e < k/2
    counts = _h_counts_by_progression(m, k)
    mirrored = [c + counts[-e] for e, c in enumerate(counts)]
    return [_evaluate(mirrored, k)] + [
        counts[e] - counts[-e] for e in range(1, (k + 1) // 2)
    ]


@given(st.integers(min_value=0, max_value=400), st.sampled_from(TRACE_ORDERS))
def test_h_counts_match_the_progression_loop(m, k):
    assert traces._h_coordinates(m, k) == _h_by_progression(m, k)


@pytest.mark.parametrize("k", TRACE_ORDERS)
def test_counts_match_their_loops_near_10_to_the_12(k):
    # every residue cell of each table: m mod 2k for the h rows, and
    # (m1 mod k, m2 mod k) for the gt rows, with small and large partners
    big = 10**12
    for r in range(2 * k):
        assert traces._h_coordinates(big + r, k) == _h_by_progression(big + r, k)
    for a in range(k):
        for b in range(k):
            for m1, m2 in ((big + a, big + b), (big + a, b), (a, big + b)):
                for m3 in (-3, 0, 2):
                    assert traces._gt_coordinates(m1, m2, m3, k) == _gt_by_piece(
                        m1, m2, m3, k
                    )


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


def test_h_row_cache_holds_the_trace_sweep():
    # trace_routes(60) reads _h_row at m = -1 .. 121 for each of the 4
    # orders, 492 keys; a cache smaller than that evicts keys it reads again
    traces._h_row.cache_clear()
    dict(CHECKS)["trace_routes"](60, 0)
    assert traces._h_row.cache_info().misses == 492


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
    negated = tuple(e + ring // 2 for e in exps)
    for m1 in range(4):
        for m2 in range(4):
            for m3 in range(2):
                base = _character(m1, m2, m3, exps, ring)
                assert base == gt_trace(m1, m2, m3, k)
                sign = -1 if (m1 + m3) % 2 else 1
                assert _character(m1, m2, m3, negated, ring) == sign * base


def test_torsion_class_table_shape():
    labels = [c.label for c in SL3_TORSION_CLASSES]
    assert labels[0] == "phi1^3"
    assert len(labels) == len(set(labels)) == 5
    assert all(c.order in (0, 2, 3, 4, 6) for c in SL3_TORSION_CLASSES)
    assert sum(c.order == 0 for c in SL3_TORSION_CLASSES) == 1


def test_each_counting_route_reads_only_its_own_tables():
    # the names each function of the traces module reads
    tree = ast.parse(Path(traces.__file__).read_text(encoding="utf-8"))
    reads = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    assert {f for f, names in reads.items() if "_ZETA_POWERS" in names} == {"_gt_prefix"}
    assert {f for f, names in reads.items() if "_TWO_COS" in names} == {"_h_rows"}
    closed = {"M3", "M4", "M6", "closed_trace"}
    gt = ("gt_trace", "_gt_coordinates", "_gt_prefix")
    det = ("weyl_det_trace", "_h_row", "_h_coordinates", "_h_rows")
    gt_reads = set().union(*(reads[f] for f in gt))
    det_reads = set().union(*(reads[f] for f in det))
    assert not gt_reads & (closed | {"_TWO_COS", "_H_ROWS", "_h_row", "_h_coordinates"})
    assert not det_reads & (closed | {"_ZETA_POWERS", "_GT_PREFIX", "_gt_coordinates"})
