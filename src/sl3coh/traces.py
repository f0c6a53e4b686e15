"""Exact traces of finite-order elements on irreducible SL3/GL3 modules.

Three independent routes compute the trace of an order-k element
(k in {2, 3, 4, 6}, eigenvalues 1, zeta_k, zeta_k^-1) on the module with
highest weight (m1, m2, m3):

* gt_trace: the triple sum over the integral basis of the module, each
  basis vector contributing zeta_k^(2q - p1 - p2).  The basis is counted
  per residue class of the exponent by closed sums over arithmetic
  progressions, and the trace is sum_e count_e zeta_k^e, a rational
  integer; O(k^2) per call.
* closed_trace: periodicity tables in (m1 mod k, m2 mod k), plus the
  symbolic k = 2 form; O(1) per call.
* weyl_det_trace: a 2x2 determinant in complete homogeneous symmetric sums
  of the eigenvalues (the one-row traces), with H_{-1} = 0.  Each one-row
  trace counts monomials per residue class of the exponent, again by
  closed progression sums; O(k) per call.

None of the three costs more as the weight grows.  All three are
independent implementations: gt_trace and weyl_det_trace count basis
vectors or monomials and never read the tables M3/M4/M6 or call
closed_trace, and weyl_det_trace sums its symmetric counts against its own
table of 2 cos(2 pi e / k), not gt_trace's powers of zeta_k, so the
verification suite and the acceptance tests can pin them against each
other.  All arithmetic is on Python integers.  Traces do not depend on m3
for determinant-one elements, so the closed and determinant routes take
(m1, m2) only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import CrossCheckError
from .rootsystem import check_weight

# zeta_k^e for e = 0..k-1, as (constant, coefficient of zeta_k) tuples;
# k = 2 needs no zeta_k coefficient
_ZETA_POWERS = {
    2: ((1,), (-1,)),
    3: ((1, 0), (0, 1), (-1, -1)),
    4: ((1, 0), (0, 1), (-1, 0), (0, -1)),
    6: ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}

# the same, by coefficient: _ZETA_COLUMNS[k][i][e] is coefficient i of
# zeta_k^e
_ZETA_COLUMNS = {k: tuple(zip(*powers)) for k, powers in _ZETA_POWERS.items()}


@dataclass(frozen=True, slots=True)
class TorsionClass:
    """A conjugacy class of finite-order elements in SL3(Z).

    label names the class by the cyclotomic factorization of its
    characteristic polynomial; centralizer_chi is the Euler characteristic
    of the centralizer, resultant the number of classes sharing the
    polynomial; order is the element order driving the trace (0 for the
    identity class, whose trace term drops out of the Euler sum).
    """

    label: str
    centralizer_chi: Fraction
    resultant: int
    order: int


SL3_TORSION_CLASSES: tuple[TorsionClass, ...] = (
    TorsionClass("phi1^3", Fraction(0), 0, 0),
    TorsionClass("phi1*phi2^2", Fraction(-1, 24), 4, 2),
    TorsionClass("phi1*phi3", Fraction(1, 6), 3, 3),
    TorsionClass("phi1*phi4", Fraction(1, 4), 2, 4),
    TorsionClass("phi1*phi6", Fraction(1, 6), 1, 6),
)


def _check_order(k: int) -> None:
    if type(k) is not int:
        raise TypeError(f"order must be an int, got {k!r}")
    if k not in (2, 3, 4, 6):
        raise ValueError(f"order must be one of 2, 3, 4, 6, got {k!r}")


def _zeta_sum(counts: list[int], k: int) -> int:
    """The rational integer sum_e counts[e] zeta_k^e; fails if it is not one."""
    columns = _ZETA_COLUMNS[k]
    constant = sum(map(mul, counts, columns[0]))
    # phi(k) <= 2: at most one coefficient besides the constant
    if len(columns) > 1:
        linear = sum(map(mul, counts, columns[1]))
        if linear:
            raise CrossCheckError(f"{constant} + {linear} zeta_{k} is not an integer")
    return constant


def gt_trace(m1: int, m2: int, m3: int, k: int) -> int:
    """Trace of the order-k element via the triple sum, exactly.

    The summand zeta_k^(2q - p1 - p2) only depends on d = p1 - p2 and on
    q - p2, so the triple sum collapses to a sum over d of (number of
    (p1, p2) pairs at distance d) times (sum over one inner run).  Both
    factors come from elementary interval counting and are linear in d on
    arithmetic progressions d = first + k t, so each residue class of the
    exponent is a closed sum over t.  Cost O(k^2), whatever the weight.
    """
    check_weight(m1, m2, m3)
    _check_order(k)
    return _zeta_sum(_gt_counts(m1, m2, m3, k), k)


def _inner_runs(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per f = d mod k, the (exponent mod k, count) pairs of the run at d = f.

    The inner run over j = q - p2 in [0, d] has exponent 2j - d, whose
    pattern repeats with period k / gcd(2, k); residue r < period occurs
    (d - r) // period + 1 times, which is 0 when r > d.
    """
    period = k // 2 if k % 2 == 0 else k
    return tuple(
        tuple(((2 * r - f) % k, (f - r) // period + 1) for r in range(period))
        for f in range(k)
    )


_INNER_RUNS = {k: _inner_runs(k) for k in (2, 3, 4, 6)}


def _gt_counts(m1: int, m2: int, m3: int, k: int) -> list[int]:
    """Basis vectors of the (m1, m2, m3) module per exponent mod k."""
    lo1, hi1 = m2 + m3, m1 + m2 + m3
    lo2, hi2 = m3, m2 + m3
    # moving d up by k adds k / period = gcd(2, k) to every run count
    step = 2 if k % 2 == 0 else 1
    # pairs(d) = min(hi2, hi1 - d) - max(lo2, lo1 - d) + 1 is linear in d,
    # alpha + beta d, between its breaks at d = hi1 - hi2 = m1 and
    # d = lo1 - lo2 = m2
    low, high = (m1, m2) if m1 <= m2 else (m2, m1)
    # xs[f] sums pairs(d), ys[f] sums (d // k) pairs(d), over d = f mod k
    xs, ys = [0] * k, [0] * k
    for a, b in ((0, low), (low + 1, high), (high + 1, m1 + m2)):
        alpha, beta = (hi2, 0) if b <= m1 else (hi1, -1)
        if b <= m2:
            alpha, beta = alpha - lo1 + 1, beta + 1
        else:
            alpha -= lo2 - 1
        q = beta * k
        # on d = first + k t, t = 0..n-1, pairs(d) = p + q t; with
        # first = k j + f, d // k = j + t.  j and f step along with first.
        j, f = divmod(a, k)
        for first in range(a, min(a + k, b + 1)):
            n = (b - first) // k + 1
            s1 = n * (n - 1) // 2
            p = alpha + beta * first
            x = p * n + q * s1
            xs[f] += x
            # sum_t (j + t)(p + q t), with sum_t t^2 = s1 (2n - 1) / 3
            ys[f] += j * x + p * s1 + q * (s1 * (2 * n - 1) // 3)
            f += 1
            if f == k:
                j, f = j + 1, 0
    # at d = k J + f the run count of a residue is its count at d = f plus
    # step J, so the residue gains count x + step y
    counts = [0] * k
    for runs, x, y in zip(_INNER_RUNS[k], xs, ys):
        y *= step
        for e, count in runs:
            counts[e] += count * x + y
    return counts


# trace periodicity tables, indexed [m1 mod k][m2 mod k]
M6 = (
    (1, 2, 2, 1, 0, 0),
    (2, 3, 2, 0, -1, 0),
    (2, 2, 0, -2, -2, 0),
    (1, 0, -2, -3, -2, 0),
    (0, -1, -2, -2, -1, 0),
    (0, 0, 0, 0, 0, 0),
)
M4 = (
    (1, 1, 0, 0),
    (1, 0, -1, 0),
    (0, -1, -1, 0),
    (0, 0, 0, 0),
)
M3 = (
    (1, 0, 0),
    (0, -1, 0),
    (0, 0, 0),
)


def closed_trace(m1: int, m2: int, m3: int, k: int) -> int:
    """Trace of the order-k element from the periodicity tables.

    k = 3, 4, 6 depend only on (m1 mod k, m2 mod k); k = 2 is polynomial in
    (m1, m2) on each parity class.  m3 never enters (the elements have
    determinant one).
    """
    check_weight(m1, m2, m3)
    _check_order(k)
    if k == 6:
        return M6[m1 % 6][m2 % 6]
    if k == 4:
        return M4[m1 % 4][m2 % 4]
    if k == 3:
        return M3[m1 % 3][m2 % 3]
    if m1 % 2 == 0 and m2 % 2 == 0:
        return 1 + (m1 + m2) // 2
    if m1 % 2 == 0:
        return -(m2 + 1) // 2
    if m2 % 2 == 0:
        return -(m1 + 1) // 2
    return 0


# 2 cos(2 pi e / k) for e = 0..k-1, exactly
_TWO_COS = {2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0), 6: (2, 1, -1, -2, -1, 1)}


@lru_cache(maxsize=1024)
def _h_row(m: int, k: int) -> int:
    """Complete homogeneous symmetric sum h_m(1, zeta_k, zeta_k^-1).

    h_m = 0 for m < 0.  The counts at e and -e are equal, so h_m is the
    rational integer sum_e counts[e] 2 cos(2 pi e / k) / 2.  Cost O(k),
    whatever m.
    """
    counts = _h_counts(m, k) if m >= 0 else [0] * k
    if counts[1:] != counts[:0:-1]:
        raise CrossCheckError(f"exponent counts {counts} of h_{m} are not symmetric")
    return sum(map(mul, counts, _TWO_COS[k])) // 2


def _h_counts(m: int, k: int) -> list[int]:
    """Monomials x^a y^b z^c of degree m >= 0 per exponent b - c mod k.

    Exactly (m - u) // 2 + 1 monomials have b - c = u, and as many have
    b - c = -u, for 0 <= u <= m.  On u = s + 2k t that count is linear in
    t, so each residue s mod 2k is one closed sum, folded onto the
    exponents +s and -s mod k.
    """
    counts = [0] * k
    for s in range(min(2 * k, m + 1)):
        n = (m - s) // (2 * k) + 1
        # sum of (m - s) // 2 + 1 - k t over t = 0..n-1
        weight = n * ((m - s) // 2 + 1) - k * (n * (n - 1) // 2)
        counts[s % k] += weight
        counts[-s % k] += weight
    # u = 0 was folded twice
    counts[0] -= m // 2 + 1
    return counts


def weyl_det_trace(m1: int, m2: int, k: int) -> int:
    """Trace of the order-k element as a 2x2 determinant of one-row traces.

    H_{m1,m2} = H_{m1+m2} H_{m2} - H_{m1+m2+1} H_{m2-1}, where H_m is the
    trace on the m-th symmetric power of the standard module.
    """
    check_weight(m1, m2)
    _check_order(k)
    return _h_row(m1 + m2, k) * _h_row(m2, k) - _h_row(m1 + m2 + 1, k) * _h_row(
        m2 - 1, k
    )
