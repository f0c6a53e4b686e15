"""Rank-two root system of type A2 and the Weyl group of SL3/GL3.

Weights live in epsilon coordinates (c1, c2, c3), the weight (c1, c2, c3)
pairing with diag(t1, t2, t3) as t1^c1 t2^c2 t3^c3.  For SL3 only the class
mod (1, 1, 1) matters and we normalize c3 = 0; GL3 weights keep an honest
integer triple.  Fundamental coordinates (m1, m2) refer to the basis dual to
the simple coroots, so (m1, m2) corresponds to the triple
(m1 + m2, m2, 0).  We write rho = (1, 0, -1) for the half sum of the
positive roots alpha1 = e1 - e2, alpha2 = e2 - e3, alpha1 + alpha2.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .gl2 import GL2Weight


def check_weight(m1: int, m2: int, m3: int = 0) -> None:
    """Reject a weight that is not dominant or has a coordinate not an int."""
    # exact types: bool and float would pass for ints in the arithmetic
    if type(m1) is not int or type(m2) is not int or type(m3) is not int:
        raise TypeError(
            f"weight must have int coordinates, got ({m1!r}, {m2!r}, {m3!r})"
        )
    if m1 < 0 or m2 < 0:
        raise ValueError(f"weight must be dominant, got ({m1}, {m2}, {m3})")


class HighestWeight(namedtuple("HighestWeight", ("m1", "m2", "m3"), defaults=(None,))):
    """A dominant weight: m1, m2 >= 0 in fundamental coordinates.

    m3 is the determinant power for GL3 weights (any sign); m3 = None means
    an SL3 weight.  A tuple (m1, m2, m3), so the per-weight caches hash and
    compare it in C.
    """

    __slots__ = ()

    def __new__(cls, m1: int, m2: int, m3: int | None = None) -> "HighestWeight":
        check_weight(m1, m2, 0 if m3 is None else m3)
        return tuple.__new__(cls, (m1, m2, m3))

    @classmethod
    def _make(cls, iterable) -> "HighestWeight":
        # _replace builds through _make: keep it checked
        return cls(*iterable)

    def sl3_part(self) -> "HighestWeight":
        """Forget the determinant power, on which no per-weight answer depends."""
        return self if self.m3 is None else HighestWeight(self.m1, self.m2)

    def dual(self) -> "HighestWeight":
        """Highest weight of the contragredient SL3 representation."""
        # the swapped coordinates of a checked weight: no need to check again
        return tuple.__new__(HighestWeight, (self[1], self[0], None))


class WeylElement(namedtuple("WeylElement", ("name", "perm", "reduced_word", "source"))):
    """An element of the Weyl group S3, acting by e_i |-> e_{perm[i-1]}.

    source is derived from perm: source[j] is the i with perm[i] = j + 1,
    so coordinate j of the image is coordinate source[j] of the argument.
    """

    __slots__ = ()

    def __new__(cls, name: str, perm: tuple, reduced_word: tuple) -> "WeylElement":
        if sorted(perm) != [1, 2, 3]:
            raise ValueError(f"perm must be a permutation of (1, 2, 3), got {perm!r}")
        source = tuple(perm.index(j + 1) for j in range(3))
        return tuple.__new__(cls, (name, perm, reduced_word, source))

    @classmethod
    def _make(cls, iterable) -> "WeylElement":
        # _replace builds through _make: keep it checked, source derived again
        return cls(*tuple(iterable)[:3])

    def __getnewargs__(self) -> tuple:
        return self[:3]  # what pickle and copy pass to __new__

    @property
    def length(self) -> int:
        return len(self.reduced_word)

    def dot(self, lam: HighestWeight) -> tuple[int, int, int]:
        """The dot action w . lam = w(lam + rho) - rho as an integer triple.

        SL3 weights take m3 = 0 and are not normalized mod (1, 1, 1);
        restrict_to_levi reads only that class.
        """
        m1, m2, m3 = lam
        m3 = m3 or 0
        # lam + rho, with rho = (1, 0, -1)
        shifted = (m1 + m2 + m3 + 1, m2 + m3, m3 - 1)
        i, j, k = self.source
        return shifted[i] - 1, shifted[j], shifted[k] + 1


E = WeylElement("e", (1, 2, 3), ())
S1 = WeylElement("s1", (2, 1, 3), (1,))
S2 = WeylElement("s2", (1, 3, 2), (2,))
S12 = WeylElement("s1s2", (2, 3, 1), (1, 2))  # apply s2 first, then s1
S21 = WeylElement("s2s1", (3, 1, 2), (2, 1))
W0 = WeylElement("s1s2s1", (3, 2, 1), (1, 2, 1))

WEYL_GROUP: tuple[WeylElement, ...] = (E, S1, S2, S12, S21, W0)

# roots as epsilon triples
ALPHA1 = (1, -1, 0)
ALPHA2 = (0, 1, -1)
ALPHA12 = (1, 0, -1)
POSITIVE_ROOTS: tuple[tuple[int, int, int], ...] = (ALPHA1, ALPHA2, ALPHA12)


# the roots of the nilradical of each standard parabolic
_NILRADICAL = {"P0": POSITIVE_ROOTS, "P1": (ALPHA1, ALPHA12), "P2": (ALPHA2, ALPHA12)}


class Parabolic(namedtuple("Parabolic", ("tag",))):
    """A standard parabolic subgroup: P0 minimal, P1/P2 the two maximal ones."""

    __slots__ = ()

    def __new__(cls, tag: str) -> "Parabolic":
        if tag not in _NILRADICAL:
            raise ValueError(f"unknown parabolic {tag!r}")
        return tuple.__new__(cls, (tag,))

    @classmethod
    def _make(cls, iterable) -> "Parabolic":
        # _replace builds through _make: keep it checked
        return cls(*iterable)

    def nilradical_roots(self) -> tuple[tuple[int, int, int], ...]:
        return _NILRADICAL[self.tag]


P0 = Parabolic("P0")
P1 = Parabolic("P1")
P2 = Parabolic("P2")


@lru_cache(maxsize=None, typed=True)  # typed: a plain tuple equal to P1 must miss and raise
def kostant_set(p: Parabolic) -> tuple[WeylElement, ...]:
    """Minimal-length coset representatives for the parabolic p.

    w qualifies iff every negative root sent to a positive root lands in the
    nilradical of p.
    """
    if not isinstance(p, Parabolic):
        raise TypeError(f"p must be a Parabolic, got {p!r}")
    nil = set(p.nilradical_roots())
    out = []
    for w in WEYL_GROUP:
        # w applied to each negative root, through the index map dot uses
        images = {tuple(-root[i] for i in w.source) for root in POSITIVE_ROOTS}
        if images.intersection(POSITIVE_ROOTS) <= nil:
            out.append(w)
    out.sort(key=lambda w: (w.length, w.name))
    return tuple(out)


def restrict_to_levi(w: WeylElement, lam: HighestWeight, p: Parabolic) -> GL2Weight:
    """The weight V_{a,n} of w . lam on the Levi GL2 of P1 or P2.

    a is the coordinate along the Levi's SL2 direction, n the one along its
    center.  Only defined for w in the Kostant set of the parabolic.  The
    (a, n) coordinates depend only on the class of w . lam mod (1, 1, 1):
    P1 reads (c2 - c3, c2 + c3 - 2 c1), P2 reads (c1 - c2, c1 + c2 - 2 c3).
    """
    if not isinstance(w, WeylElement):
        raise TypeError(f"w must be a WeylElement, got {w!r}")
    if w not in kostant_set(p):
        raise ValueError(f"{w.name} is not a Kostant representative for {p.tag}")
    tag = p.tag
    if tag == "P0":
        raise ValueError("P0 has no Levi GL2: its Levi is the diagonal torus")
    c1, c2, c3 = w.dot(lam)
    if tag == "P1":
        return GL2Weight(c2 - c3, c2 + c3 - 2 * c1)
    return GL2Weight(c1 - c2, c1 + c2 - 2 * c3)
