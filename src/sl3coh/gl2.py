"""Cohomology of GL2(Z) and SL2(Z) with polynomial coefficients.

Coefficients are V_{a,n} = Sym^a tensor det^((n-a)/2) in the (a, n)
coordinates used by the Levi restriction, so a = n mod 2 always.  The only
interesting cohomology of GL2(Z) is H^1, built from weight a+2 level-one
cusp forms plus at most one Eisenstein line.

Cusp form dimensions are the classical level-one ones, dim S_2 = 0.  The
residual value dim S_2 = -1, which makes the SL3 Euler formulas uniform,
lives in euler._dim_s, next to the formula that uses it.

The closed forms are periodic in m mod 12 up to a linear term: each reads
one hand-typed row of six constants, indexed by the even residue
(m mod 12) // 2.  The six-term torsion sum reads its class weights from
one table as well.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import CrossCheckError


class GL2Weight(namedtuple("GL2Weight", ("a", "n"))):
    """A weight V_{a,n} = Sym^a tensor det^((n-a)/2) of GL2, as a tuple (a, n)."""

    __slots__ = ()

    def __new__(cls, a: int, n: int) -> "GL2Weight":
        if type(a) is not int or type(n) is not int:
            raise TypeError(f"a and n must be ints, got ({a!r}, {n!r})")
        if a < 0:
            raise ValueError(f"a must be >= 0, got {a}")
        if (a - n) % 2 != 0:
            raise ValueError(f"a and n must have equal parity, got ({a}, {n})")
        return tuple.__new__(cls, (a, n))

    @classmethod
    def _make(cls, iterable) -> "GL2Weight":
        # _replace builds through _make: keep it checked
        return cls(*iterable)


# the constant terms of the closed forms, per even residue (m mod 12) // 2:
# dim S_(m+2) - m // 12, chi_h(GL2(Z), Sym^m tensor det^t) + m // 12 for
# t = 0, 1, and chi_h(SL2(Z), Sym^m) + 2 (m // 12)
_CUSP_SHIFT = (-1, 0, 0, 0, 0, 1)
_GL2_EULER = ((1, 0, 0, 0, 0, -1), (0, -1, -1, -1, -1, -2))
_SL2_EULER = (1, -1, -1, -1, -1, -3)


# typed: a float k must miss the entry of the equal int and raise
@lru_cache(maxsize=None, typed=True)
def dim_cusp_forms(k: int) -> int:
    """dim S_k for level one, k >= 2; 0 for odd k and for k = 2."""
    if type(k) is not int:
        raise TypeError(f"weight must be an int, got {k!r}")
    if k < 2:
        raise ValueError(f"weight must be >= 2, got {k}")
    if k % 2 != 0 or k == 2:
        return 0
    ell, i = divmod(k - 2, 12)
    return ell + _CUSP_SHIFT[i // 2]


def _check_sym(m: int, det_twist: int = 0) -> None:
    """Reject Sym^m tensor det^det_twist unless m >= 0 and det_twist is 0 or 1."""
    # exact types: a float would give a float answer
    if type(m) is not int or type(det_twist) is not int:
        raise TypeError(f"m and det_twist must be ints, got ({m!r}, {det_twist!r})")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if det_twist not in (0, 1):
        raise ValueError(f"det_twist must be 0 or 1, got {det_twist!r}")


def gl2_euler(m: int, det_twist: int) -> int:
    """chi_h(GL2(Z), Sym^m tensor det^t), closed form by m mod 12."""
    _check_sym(m, det_twist)
    if m % 2 != 0:
        return 0
    ell, k = divmod(m, 12)
    return -ell + _GL2_EULER[det_twist][k // 2]


def sl2_euler(m: int) -> int:
    """chi_h(SL2(Z), Sym^m), closed form by m mod 12."""
    _check_sym(m)
    if m % 2 != 0:
        return 0
    ell, k = divmod(m, 12)
    return -2 * ell + _SL2_EULER[k // 2]


# the rational weight of each conjugacy class of finite-order elements of
# GL2(Z), in gl2_euler_wall's order: 1, -1, the reflection sigma, and the
# classes of order 3, 4 and 6
_GL2_CLASS_WEIGHTS = (
    Fraction(-1, 24),
    Fraction(-1, 24),
    Fraction(1, 2),
    Fraction(1, 6),
    Fraction(1, 4),
    Fraction(1, 6),
)


def gl2_euler_wall(m: int, det_twist: int) -> int:
    """chi_h(GL2(Z), Sym^m tensor det^t) as the six-term rational sum.

    One term per conjugacy class of finite-order elements, each a rational
    multiple of the trace of the class on the coefficients; the sum of
    fractions must be an integer.
    """
    _check_sym(m, det_twist)
    traces = (
        m + 1,
        (-1) ** m * (m + 1),
        (-1) ** det_twist if m % 2 == 0 else 0,
        (1, -1, 0)[m % 3],
        (1, 0, -1, 0)[m % 4],
        (1, 1, 0, -1, -1, 0)[m % 6],
    )
    total = sum(map(mul, _GL2_CLASS_WEIGHTS, traces))
    if total.denominator != 1:
        raise CrossCheckError(
            f"GL2 torsion sum at m={m}, det_twist={det_twist} is {total}"
        )
    return int(total)


def survives(w: GL2Weight) -> bool:
    """True iff a maximal-parabolic face with Levi weight V_{a,n} survives.

    The central -1 kills the face unless n is even; for a = 0 the orientation
    of the symmetric space adds a sign, so n/2 must be even too.
    """
    return w.n % 2 == 0 and (w.a != 0 or (w.n // 2) % 2 == 0)


def h1_split(w: GL2Weight) -> int:
    """Dimension of the Eisenstein part of H^1 of GL2(Z) at V_{a,n}.

    Only weights that pass survives are accepted.  Interior cohomology equals
    full cohomology when a/2 = n/2 mod 2; otherwise it equals compactly
    supported cohomology, and one Eisenstein line appears for a > 0.  The
    cuspidal part is dim S_{a+2} either way.
    """
    if not survives(w):
        raise ValueError(f"V_({w.a},{w.n}) does not survive")
    interior = (w.a // 2 - w.n // 2) % 2 == 0
    return 0 if (w.a == 0 or interior) else 1
