"""Exact traces of finite-order elements on irreducible SL3/GL3 modules.

Three independent routes compute the trace of an order-k element
(k in {2, 3, 4, 6}, eigenvalues 1, zeta_k, zeta_k^-1) on the module with
highest weight (m1, m2, m3):

* gt_trace: the triple sum over the integral basis of the module, each
  basis vector contributing zeta_k^(2q - p1 - p2).  The basis is counted
  per residue class of the exponent: the pairs (p1, p2) form a box, and
  the count over it is three evaluations of a cubic read from a table
  built once at import, as forward differences of the cubic tabulated
  from its definition.  The trace is sum_e count_e zeta_k^e, a rational
  integer.
* closed_trace: periodicity tables in (m1 mod k, m2 mod k), plus the
  symbolic k = 2 form.
* weyl_det_trace: a 2x2 determinant in complete homogeneous symmetric sums
  of the eigenvalues (the one-row traces), with H_{-1} = 0.  Each one-row
  trace counts monomials per residue class of the exponent by evaluating
  one row of its own import-time table, a quadratic in m // 2k whose
  coefficients are forward differences of the tabulated monomial counts.

Each call reads a fixed number of table rows and does a fixed number of
integer operations per exponent, so none of the three costs more as the
weight grows.  All three are independent implementations: gt_trace and
weyl_det_trace count basis vectors or monomials, each from its own table,
and never read the tables M3/M4/M6 or call closed_trace, and
weyl_det_trace sums its symmetric counts against its own table of
2 cos(2 pi e / k), not gt_trace's powers of zeta_k, so the verification
suite and the acceptance tests can pin them against each other.  All
arithmetic is on Python integers.  Traces do not depend on m3 for
determinant-one elements, so the closed and determinant routes take
(m1, m2) only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

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
    q - p2, so the basis is counted per residue class of the exponent by
    three reads of a table built once at import; the trace is
    sum_e count_e zeta_k^e.  The same cost whatever the weight.
    """
    check_weight(m1, m2, m3)
    _check_order(k)
    return _zeta_sum(_gt_counts(m1, m2, m3, k), k)


def _gt_prefix() -> dict[tuple[int, int], tuple[int, ...]]:
    """Per (k, r), the cubic G(k Q + r) = sum_{i < kQ + r} sum_{d < i} run(d).

    run(d)[e] counts the j in [0, d] with 2j - d = e mod k, the inner run
    of the triple sum.  On each residue r, G is cubic in Q, so its
    coefficients on C(Q, 3), C(Q, 2), Q and 1 are its forward differences
    at n = r, r + k, r + 2k and r + 3k, read off G tabulated below 4k.  A
    row holds those four coefficients for e = 0, then for e = 1, and so on.
    """
    rows = {}
    for k in (2, 3, 4, 6):
        run, inner, outer, table = [0] * k, [0] * k, [0] * k, []
        for d in range(4 * k):
            # outer is G(d), inner the sum of run(d') over d' < d
            table.append(outer)
            outer = list(map(add, outer, inner))
            # the j < d keep their exponents 2j - (d - 1), each moved down
            # by one, and j = d adds the exponent d
            run = run[1:] + run[:1]
            run[d % k] += 1
            inner = list(map(add, inner, run))
        for r in range(k):
            row = []
            for g0, g1, g2, g3 in zip(*table[r::k]):
                row += (g3 - 3 * g2 + 3 * g1 - g0, g2 - 2 * g1 + g0, g1 - g0, g0)
            rows[k, r] = tuple(row)
    return rows


_GT_PREFIX = _gt_prefix()


def _gt_counts(m1: int, m2: int, m3: int, k: int) -> list[int]:
    """Basis vectors of the (m1, m2, m3) module per exponent mod k.

    The interlacing bounds of lambda = (m1 + m2 + m3, m2 + m3, m3) make the
    pairs (p1, p2) a box: P = p1 - lambda2 < a and R = lambda2 - p2 < b.
    The inner run j = q - p2 in [0, P + R] depends on d = P + R only, and
    the sum of run(P + R) over the box is G(a + b) - G(a) - G(b).
    """
    lam1, lam2, lam3 = m1 + m2 + m3, m2 + m3, m3
    a, b = lam1 - lam2 + 1, lam2 - lam3 + 1
    prefix = []
    for n in (a + b, a, b):
        q, r = divmod(n, k)
        pairs = q * (q - 1) // 2
        triples = pairs * (q - 2) // 3
        row = iter(_GT_PREFIX[k, r])
        prefix.append(
            [
                c3 * triples + c2 * pairs + c1 * q + c0
                for c3, c2, c1, c0 in zip(row, row, row, row)
            ]
        )
    whole, left, right = prefix
    return list(map(sub, map(sub, whole, left), right))


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
    rational integer sum_e counts[e] 2 cos(2 pi e / k) / 2.
    """
    counts = _h_counts(m, k) if m >= 0 else [0] * k
    if counts[1:] != counts[:0:-1]:
        raise CrossCheckError(f"exponent counts {counts} of h_{m} are not symmetric")
    return sum(map(mul, counts, _TWO_COS[k])) // 2


def _h_rows() -> dict[tuple[int, int], tuple[int, ...]]:
    """Per (k, r), the quadratic count_e(2k M + r) = c2 C(M, 2) + c1 M + c0.

    Exactly (m - |u|) // 2 + 1 monomials have b - c = u, for |u| <= m, so
    going from degree m - 2 to m every u with |u| <= m gains one monomial.
    On each residue r, count_e is quadratic in M, so c2, c1 and c0 are its
    forward differences at M = 0, read off count_e tabulated below 6k.  A
    row holds c2, c1, c0 for e = 0, then for e = 1, and so on.
    """
    rows = {}
    for k in (2, 3, 4, 6):
        # gain[e] counts the u = e mod k with |u| <= m
        gain, count = [0] * k, {-2: [0] * k, -1: [0] * k}
        for m in range(6 * k):
            gain[m % k] += 1
            if m:
                gain[-m % k] += 1
            count[m] = list(map(add, count[m - 2], gain))
        for r in range(2 * k):
            row = []
            for f0, f1, f2 in zip(count[r], count[r + 2 * k], count[r + 4 * k]):
                row += (f2 - 2 * f1 + f0, f1 - f0, f0)
            rows[k, r] = tuple(row)
    return rows


_H_ROWS = _h_rows()


def _h_counts(m: int, k: int) -> list[int]:
    """Monomials x^a y^b z^c of degree m >= 0 per exponent b - c mod k.

    One row of _H_ROWS, read at m mod 2k and evaluated at M = m // 2k.
    """
    big, r = divmod(m, 2 * k)
    pairs = big * (big - 1) // 2
    row = iter(_H_ROWS[k, r])
    return [c2 * pairs + c1 * big + c0 for c2, c1, c0 in zip(row, row, row)]


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
