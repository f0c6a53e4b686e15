"""Exact traces of finite-order elements on irreducible SL3/GL3 modules.

Three independent routes compute the trace of an order-k element
(k in {2, 3, 4, 6}, eigenvalues 1, zeta_k, zeta_k^-1) on the module with
highest weight (m1, m2, m3):

* gt_trace: the triple sum over the integral basis of the module, each
  basis vector contributing zeta_k^(2q - p1 - p2).  The pairs (p1, p2)
  form a box, and the sum over it is three evaluations of a cubic per
  coordinate of Z[zeta_k], read from a table built once at import as
  forward differences of the sum tabulated from its definition.  A
  nonzero zeta_k coordinate raises.
* closed_trace: periodicity tables in (m1 mod k, m2 mod k), plus the
  symbolic k = 2 form.
* weyl_det_trace: a 2x2 determinant in complete homogeneous symmetric sums
  of the eigenvalues (the one-row traces), with H_{-1} = 0.  Each one-row
  trace evaluates one row of its own import-time table: quadratics in
  m // 2k for 2 H_m and for count_e - count_-e, forward differences of
  the tabulated monomial counts.  An odd 2 H_m or a nonzero difference
  raises.

Each call reads a fixed number of table rows and does a fixed number of
integer operations, so none of the three costs more as the weight grows.
All three are independent implementations: gt_trace and weyl_det_trace
count basis vectors or monomials, each from its own table, and never read
the tables M3/M4/M6 or call closed_trace, and weyl_det_trace's table is
built from its own 2 cos(2 pi e / k), not gt_trace's powers of zeta_k, so
the verification suite and the acceptance tests can pin them against each
other.  All arithmetic is on Python integers.  Traces do not depend on m3
for determinant-one elements, so the closed and determinant routes take
(m1, m2) only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import CrossCheckError
from .rootsystem import check_weight

# zeta_k^e for e = 0..k-1, as (constant, coefficient of zeta_k) tuples;
# k = 2 needs no zeta_k coefficient.  Only _gt_prefix reads it.
_ZETA_POWERS = {
    2: ((1,), (-1,)),
    3: ((1, 0), (0, 1), (-1, -1)),
    4: ((1, 0), (0, 1), (-1, 0), (0, -1)),
    6: ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
}


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


def gt_trace(m1: int, m2: int, m3: int, k: int) -> int:
    """Trace of the order-k element via the triple sum, exactly.

    The summand zeta_k^(2q - p1 - p2) only depends on d = p1 - p2 and on
    q - p2, so the sum is three reads of a table built once at import, in
    the basis 1, zeta_k.  The same cost whatever the weight.
    """
    check_weight(m1, m2, m3)
    _check_order(k)
    constant, *linear = _gt_coordinates(m1, m2, m3, k)
    # phi(k) <= 2: at most one coordinate besides the constant
    if any(linear):
        raise CrossCheckError(f"{constant} + {linear[0]} zeta_{k} is not an integer")
    return constant


def _gt_prefix() -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Per (k, r), the cubic G(k Q + r) = sum_{i < kQ + r} sum_{d < i} run(d).

    run(d)[e] counts the j in [0, d] with 2j - d = e mod k, the inner run
    of the triple sum, and G is taken at the powers of zeta_k, one
    coordinate of Z[zeta_k] at a time.  On each residue r, each coordinate
    is cubic in Q, so its coefficients on C(Q, 3), C(Q, 2), Q and 1 are its
    forward differences at n = r, r + k, r + 2k and r + 3k, read off G
    tabulated below 4k.  A row holds one such cubic for the constant, then
    one for the zeta_k coefficient when k > 2.
    """
    rows = {}
    for k, powers in _ZETA_POWERS.items():
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
        coordinates = [
            [sum(map(mul, counts, column)) for counts in table]
            for column in zip(*powers)
        ]
        for r in range(k):
            rows[k, r] = tuple(
                (g3 - 3 * g2 + 3 * g1 - g0, g2 - 2 * g1 + g0, g1 - g0, g0)
                for g0, g1, g2, g3 in (g[r::k] for g in coordinates)
            )
    return rows


_GT_PREFIX = _gt_prefix()


def _gt_coordinates(m1: int, m2: int, m3: int, k: int) -> list[int]:
    """sum zeta_k^(2q - p1 - p2) over the basis, as coordinates in 1, zeta_k.

    The interlacing bounds of lambda = (m1 + m2 + m3, m2 + m3, m3) make the
    pairs (p1, p2) a box: P = p1 - lambda2 < a and R = lambda2 - p2 < b,
    with a = m1 + 1 and b = m2 + 1 whatever m3.  The inner run
    j = q - p2 in [0, P + R] depends on d = P + R only, and the sum of
    run(P + R) over the box is G(a + b) - G(a) - G(b).
    """
    a, b = m1 + 1, m2 + 1
    g = []
    for n in (a + b, a, b):
        q, r = divmod(n, k)
        pairs = q * (q - 1) // 2
        triples = pairs * (q - 2) // 3
        for c3, c2, c1, c0 in _GT_PREFIX[k, r]:
            g.append(c3 * triples + c2 * pairs + c1 * q + c0)
    # G(a + b), G(a) and G(b), one or two coordinates each: phi(k) <= 2
    if len(g) == 3:
        return [g[0] - g[1] - g[2]]
    return [g[0] - g[2] - g[4], g[1] - g[3] - g[5]]


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


# 2 cos(2 pi e / k) for e = 0..k-1, exactly.  Only _h_rows reads it.
_TWO_COS = {2: (2, -2), 3: (2, -1, -1), 4: (2, 0, -2, 0), 6: (2, 1, -1, -2, -1, 1)}


@lru_cache(maxsize=1024)
def _h_row(m: int, k: int) -> int:
    """Complete homogeneous symmetric sum h_m(1, zeta_k, zeta_k^-1).

    h_m = 0 for m < 0.  The counts at e and -e are equal, so 2 h_m is the
    cosine sum sum_e counts[e] 2 cos(2 pi e / k), an even integer.
    """
    if m < 0:
        return 0
    twice, *odd = _h_coordinates(m, k)
    if any(odd):
        raise CrossCheckError(f"counts of h_{m} for k = {k} are not symmetric: {odd}")
    if twice % 2:
        raise CrossCheckError(f"cosine sum 2 h_{m} = {twice} for k = {k} is odd")
    return twice // 2


def _h_rows() -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Per (k, r), quadratics c2 C(M, 2) + c1 M + c0 in M = (m - r) / 2k.

    Exactly (m - |u|) // 2 + 1 monomials have b - c = u, for |u| <= m, so
    going from degree m - 2 to m every u with |u| <= m gains one monomial.
    The counts, tabulated below 6k, are projected onto the cosine sum
    sum_e count_e 2 cos(2 pi e / k) and onto count_e - count_-e for each
    0 < e < k/2; a row holds (c2, c1, c0) of each projection in that
    order, its forward differences at M = 0 on residue r.
    """
    rows = {}
    for k, two_cos in _TWO_COS.items():
        # gain[e] counts the u = e mod k with |u| <= m
        gain, count = [0] * k, [[0] * k, [0] * k]
        for m in range(6 * k):
            gain[m % k] += 1
            if m:
                gain[-m % k] += 1
            count.append(list(map(add, count[-2], gain)))
        count = count[2:]
        coordinates = [[sum(map(mul, c, two_cos)) for c in count]]
        coordinates += ([c[e] - c[-e] for c in count] for e in range(1, (k + 1) // 2))
        for r in range(2 * k):
            rows[k, r] = tuple(
                (f2 - 2 * f1 + f0, f1 - f0, f0)
                for f0, f1, f2 in (f[r :: 2 * k] for f in coordinates)
            )
    return rows


_H_ROWS = _h_rows()


def _h_coordinates(m: int, k: int) -> list[int]:
    """2 h_m, then count_e - count_-e for 0 < e < k/2, for m >= 0.

    count_e counts the monomials x^a y^b z^c of degree m with b - c = e
    mod k: one row of _H_ROWS, read at m mod 2k and evaluated at m // 2k.
    """
    big, r = divmod(m, 2 * k)
    pairs = big * (big - 1) // 2
    coordinates = []
    for c2, c1, c0 in _H_ROWS[k, r]:
        coordinates.append(c2 * pairs + c1 * big + c0)
    return coordinates


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
