"""Cohomology of GL2(Z) and SL2(Z) with polynomial coefficients.

Coefficients are V_{a,n} = Sym^a tensor det^((n-a)/2) in the (a, n)
coordinates used by the Levi restriction, so a = n mod 2 always.  The only
interesting cohomology of GL2(Z) is H^1, built from weight a+2 level-one
cusp forms plus at most one Eisenstein line.

Cusp form dimensions follow the classical level-one pattern; the
"euler" convention assigns dim S_2 = -1 (the residual convention that makes
the Euler characteristic formulas uniform), while "actual" assigns 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CrossCheckError

ACTUAL = "actual"
EULER = "euler"

# branch labels for where H^1 of the GL2 locally symmetric space sits
INTERIOR_BRANCH = "H1 = H1_!"
COMPACT_BRANCH = "H1_c = H1_!"


@dataclass(frozen=True)
class GL2Weight:
    """A weight V_{a,n} = Sym^a tensor det^((n-a)/2) of GL2."""

    a: int
    n: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if (self.a - self.n) % 2 != 0:
            raise ValueError(f"a and n must have equal parity, got ({self.a}, {self.n})")


@lru_cache(maxsize=None)
def dim_cusp_forms(k: int, convention: str = ACTUAL) -> int:
    """dim S_k for level one; k = 2 is 0 ("actual") or -1 ("euler")."""
    if convention not in (ACTUAL, EULER):
        raise ValueError(f"unknown convention {convention!r}")
    if k < 2:
        raise ValueError(f"weight must be >= 2, got {k}")
    if k % 2 != 0:
        return 0
    if k == 2:
        return -1 if convention == EULER else 0
    ell, i = divmod(k - 2, 12)
    if i == 0:
        return ell - 1
    if i == 10:
        return ell + 1
    return ell


def gl2_euler(m: int, det_twist: int) -> int:
    """chi_h(GL2(Z), Sym^m tensor det^t), closed form by m mod 12."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if det_twist not in (0, 1):
        raise ValueError(f"det_twist must be 0 or 1, got {det_twist!r}")
    if m % 2 != 0:
        return 0
    ell, k = divmod(m, 12)
    if det_twist == 0:
        if k == 0:
            return -ell + 1
        if k == 10:
            return -ell - 1
        return -ell
    if k == 0:
        return -ell
    if k == 10:
        return -ell - 2
    return -ell - 1


def sl2_euler(m: int) -> int:
    """chi_h(SL2(Z), Sym^m), closed form by m mod 12."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m % 2 != 0:
        return 0
    ell, k = divmod(m, 12)
    if k == 0:
        return -2 * ell + 1
    if k == 10:
        return -2 * ell - 3
    return -2 * ell - 1


def gl2_euler_wall(m: int, det_twist: int) -> int:
    """chi_h(GL2(Z), Sym^m tensor det^t) as the six-term rational sum.

    One term per conjugacy class of finite-order elements, each a rational
    multiple of the trace of the class on the coefficients; the sum of
    fractions must be an integer.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if det_twist not in (0, 1):
        raise ValueError(f"det_twist must be 0 or 1, got {det_twist!r}")
    tr_id = m + 1
    tr_minus = (-1) ** m * (m + 1)
    tr_sigma = ((-1) ** det_twist if m % 2 == 0 else 0)
    tr_3 = (1, -1, 0)[m % 3]
    tr_4 = (1, 0, -1, 0)[m % 4]
    tr_6 = (1, 1, 0, -1, -1, 0)[m % 6]
    total = (
        Fraction(-1, 24) * tr_id
        + Fraction(-1, 24) * tr_minus
        + Fraction(1, 2) * tr_sigma
        + Fraction(1, 6) * tr_3
        + Fraction(1, 4) * tr_4
        + Fraction(1, 6) * tr_6
    )
    if total.denominator != 1:
        raise CrossCheckError(
            f"GL2 torsion sum at m={m}, det_twist={det_twist} is {total}"
        )
    return int(total)


def h1_split(w: GL2Weight) -> dict:
    """Split H^1 of the GL2(Z) locally symmetric space at V_{a,n}.

    Only surviving weights are accepted: n even, and not (a = 0 with n/2
    odd).  Returns the cuspidal (inner) dimension, the Eisenstein dimension,
    and which exactness branch holds: interior cohomology equals full
    cohomology when a/2 = n/2 mod 2, else it equals compactly supported
    cohomology and one Eisenstein line appears (for a > 0).
    """
    if w.n % 2 != 0:
        raise ValueError(f"V_({w.a},{w.n}) does not survive: n is odd")
    if w.a == 0 and (w.n // 2) % 2 != 0:
        raise ValueError(f"V_({w.a},{w.n}) does not survive: a = 0 with n/2 odd")
    interior = (w.a // 2 - w.n // 2) % 2 == 0
    inner = 0 if w.a == 0 else dim_cusp_forms(w.a + 2, ACTUAL)
    eis = 0 if (w.a == 0 or interior) else 1
    return {
        "inner_dim": inner,
        "eisenstein_dim": eis,
        "boundary_context": INTERIOR_BRANCH if interior else COMPACT_BRANCH,
    }
