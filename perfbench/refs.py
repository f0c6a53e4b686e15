"""Exact reference values that the benchmark checks sl3coh against.

Everything here is derived from the mathematics and written independently of
the package: nothing in this module imports sl3coh.  Arithmetic is exact
(integers, fractions and the quadratic fields Q(zeta_k) for k = 3, 4, 6).
"""
from __future__ import annotations

from fractions import Fraction


def dim_cusp(k: int, euler: bool = False) -> int:
    """dim S_k(SL2(Z)) from dim M_k = floor(k/12) + [k mod 12 != 2].

    Odd weights carry no forms.  With euler=True, S_2 counts as -1, the
    convention under which the Euler characteristic formula is uniform.
    """
    if k < 2 or k % 2:
        return 0
    if k == 2:
        return -1 if euler else 0
    return k // 12 + (0 if k % 12 == 2 else 1) - 1


_CASE_OF_KINDS = {
    ("zero", "zero"): 1,
    ("zero", "even"): 2,
    ("even", "zero"): 3,
    ("even", "even"): 4,
    ("even", "odd"): 5,
    ("zero", "odd"): 6,
    ("odd", "zero"): 7,
    ("odd", "even"): 8,
    ("odd", "odd"): 9,
}
CASE_KINDS = {case: kinds for kinds, case in _CASE_OF_KINDS.items()}


def kind(m: int) -> str:
    if m == 0:
        return "zero"
    return "even" if m % 2 == 0 else "odd"


def parity_case(m1: int, m2: int) -> int:
    """The parity case 1..9 of (m1, m2): zero, even > 0 or odd per coordinate."""
    return _CASE_OF_KINDS[(kind(m1), kind(m2))]


def chi_h(m1: int, m2: int) -> int:
    """chi_h(SL3(Z), M_(m1, m2)) in level-one cusp form dimensions."""
    s = lambda k: dim_cusp(k, euler=True)  # noqa: E731
    if m1 % 2 == 0 and m2 % 2 == 0:
        return -1 - s(m1 + 2) - s(m2 + 2)
    if m1 % 2 and m2 % 2:
        return 0
    even = m1 if m1 % 2 == 0 else m2
    return s(m1 + m2 + 3) - s(even + 2)


def gl3_vanishes(m1: int, m2: int, m3: int) -> bool:
    """-1 in GL3(Z) acts on M_(m1, m2, m3) by (-1)^(m1 + 2 m2 + 3 m3)."""
    return (m1 + 2 * m2 + 3 * m3) % 2 == 1


# zeta_k^2 = P + Q zeta_k in Q(zeta_k), k = 3, 4, 6
_ZETA_SQUARED = {3: (-1, -1), 4: (-1, 0), 6: (-1, 1)}


class _Cyc:
    """a + b zeta_k; integer coordinates except for quotients."""

    __slots__ = ("k", "a", "b")

    def __init__(self, k: int, a, b=0):
        self.k, self.a, self.b = k, a, b

    def __add__(self, o):
        return _Cyc(self.k, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Cyc(self.k, self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        p, q = _ZETA_SQUARED[self.k]
        bb = self.b * o.b
        return _Cyc(self.k, self.a * o.a + p * bb, self.a * o.b + self.b * o.a + q * bb)

    def conj(self):
        """Complex conjugation: zeta_k goes to zeta_k^-1 = zeta_k^(k-1)."""
        return _Cyc(self.k, self.a) + _Cyc(self.k, self.b) * _zeta_power(self.k, self.k - 1)

    def __truediv__(self, o):
        norm = o * o.conj()
        if norm.b != 0:
            raise ArithmeticError("norm is not rational")
        num = self * o.conj()
        return _Cyc(self.k, Fraction(num.a, norm.a), Fraction(num.b, norm.a))


def _powers(k: int) -> tuple:
    out = [_Cyc(k, 1)]
    for _ in range(k - 1):
        out.append(out[-1] * _Cyc(k, 0, 1))
    return tuple(out)


_POWERS = {k: _powers(k) for k in _ZETA_SQUARED}


def _zeta_power(k: int, e: int) -> _Cyc:
    return _POWERS[k][e % k]


def _det3(rows) -> _Cyc:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def bialternant_trace(m1: int, m2: int, k: int) -> int:
    """Trace of diag(1, zeta_k, zeta_k^-1) on M_(m1, m2), k in {3, 4, 6}.

    Weyl's character formula as a ratio of alternants: the partition
    (m1 + m2, m2, 0) shifted by (2, 1, 0) over the Vandermonde.  The three
    eigenvalues are distinct for these k, so the denominator is a unit times
    a nonzero algebraic integer.
    """
    exps = (m1 + m2 + 2, m2 + 1, 0)
    xs = (0, 1, k - 1)  # eigenvalues as powers of zeta_k
    num = _det3([[_zeta_power(k, e * x) for x in xs] for e in exps])
    den = _det3([[_zeta_power(k, e * x) for x in xs] for e in (2, 1, 0)])
    q = num / den
    if q.b != 0 or q.a.denominator != 1:
        raise ArithmeticError(f"trace at ({m1}, {m2}, k={k}) is not an integer: {q.a}, {q.b}")
    return int(q.a)


def tableau_trace_order2(m1: int, m2: int) -> int:
    """Trace of diag(1, -1, -1) on M_(m1, m2) by counting tableaux.

    Removing the entries 1 from a semistandard tableau of shape
    (m1 + m2, m2, 0) leaves a GL2 tableau of shape mu interlacing the shape;
    -1 acts on that GL2 block by (-1)^|mu| and the block has dimension
    mu1 - mu2 + 1.  The sum over mu2 in 0..m2 is done in closed form.
    """
    n = m2
    alt = 1 if n % 2 == 0 else 0  # sum of (-1)^j, j = 0..n
    alt_j = n // 2 if n % 2 == 0 else -(n + 1) // 2  # sum of j (-1)^j
    total = 0
    for mu1 in range(m2, m1 + m2 + 1):
        block = (mu1 + 1) * alt - alt_j
        total += -block if mu1 % 2 else block
    return total


def trace(m1: int, m2: int, k: int) -> int:
    """The reference trace of the order-k element, k in {2, 3, 4, 6}."""
    if k == 2:
        return tableau_trace_order2(m1, m2)
    return bialternant_trace(m1, m2, k)


def chi_h_torsion_sum(m1: int, m2: int) -> int:
    """chi_h by the torsion-class sum, from the reference traces.

    Order-2, -3, -4 and -6 classes weigh -1/6, 1/2, 1/2 and 1/6 (centralizer
    Euler characteristic times the number of classes).
    """
    total = (
        Fraction(-1, 6) * trace(m1, m2, 2)
        + Fraction(1, 2) * trace(m1, m2, 3)
        + Fraction(1, 2) * trace(m1, m2, 4)
        + Fraction(1, 6) * trace(m1, m2, 6)
    )
    if total.denominator != 1:
        raise ArithmeticError(f"torsion sum at ({m1}, {m2}) is {total}")
    return int(total)


def self_test(bound: int = 30) -> list[str]:
    """The references must agree among themselves before they judge anything.

    Compares the closed chi_h with the torsion sum over the reference traces,
    and the reference traces with known values, on 0 <= m1, m2 <= bound.
    """
    errors = []
    for m1 in range(bound + 1):
        for m2 in range(bound + 1):
            closed, summed = chi_h(m1, m2), chi_h_torsion_sum(m1, m2)
            if closed != summed:
                errors.append(f"reference chi_h({m1}, {m2}): closed {closed} != torsion sum {summed}")
    # the trivial module: every trace is 1; the standard module: 1 + 2 cos
    for k, std in ((2, -1), (3, 0), (4, 1), (6, 2)):
        if trace(0, 0, k) != 1 or trace(1, 0, k) != std or trace(0, 1, k) != std:
            errors.append(f"reference traces of order {k} are wrong on small modules")
    return errors
