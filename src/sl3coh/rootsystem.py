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

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CrossCheckError


@dataclass(frozen=True)
class EpsilonWeight:
    """A weight in epsilon coordinates."""

    c1: int
    c2: int
    c3: int

    def coords(self) -> tuple[int, int, int]:
        return (self.c1, self.c2, self.c3)

    def fundamental(self) -> tuple[int, int]:
        """Coordinates in the fundamental-weight basis (mod the center)."""
        return (self.c1 - self.c2, self.c2 - self.c3)

    def normalized(self) -> "EpsilonWeight":
        """The representative with c3 = 0 of the class mod (1, 1, 1)."""
        return EpsilonWeight(self.c1 - self.c3, self.c2 - self.c3, 0)


@dataclass(frozen=True)
class HighestWeight:
    """A dominant weight: m1, m2 >= 0 in fundamental coordinates.

    m3 is the determinant power for GL3 weights (any sign); m3 = None means
    an SL3 weight.
    """

    m1: int
    m2: int
    m3: int | None = None

    def __post_init__(self) -> None:
        # exact types: bool and float would pass for ints in the arithmetic
        m3 = 0 if self.m3 is None else self.m3
        if type(self.m1) is not int or type(self.m2) is not int or type(m3) is not int:
            raise TypeError(
                f"weight must have int coordinates, got "
                f"({self.m1!r}, {self.m2!r}, {self.m3!r})"
            )
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError(f"weight must be dominant, got ({self.m1}, {self.m2})")

    def epsilon(self) -> EpsilonWeight:
        m3 = 0 if self.m3 is None else self.m3
        return EpsilonWeight(self.m1 + self.m2 + m3, self.m2 + m3, m3)

    def sl3_part(self) -> "HighestWeight":
        """Forget the determinant power."""
        return self if self.m3 is None else HighestWeight(self.m1, self.m2)

    def dual(self) -> "HighestWeight":
        """Highest weight of the contragredient SL3 representation."""
        return HighestWeight(self.m2, self.m1)


@dataclass(frozen=True)
class WeylElement:
    """An element of the Weyl group S3, acting by e_i |-> e_{perm[i-1]}."""

    name: str
    perm: tuple[int, int, int]
    reduced_word: tuple[int, ...]
    # source[j] is the i with perm[i] = j + 1: coordinate j of the image
    # is coordinate source[j] of the argument
    source: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        source = tuple(self.perm.index(j + 1) for j in range(3))
        object.__setattr__(self, "source", source)

    @property
    def length(self) -> int:
        return len(self.reduced_word)

    def dot(self, lam: HighestWeight) -> tuple[int, int, int]:
        """The dot action w . lam = w(lam + rho) - rho as an integer triple.

        SL3 weights take m3 = 0 and are not normalized mod (1, 1, 1);
        restrict_to_levi reads only that class.
        """
        m3 = lam.m3 or 0
        # lam + rho, with rho = (1, 0, -1)
        shifted = (lam.m1 + lam.m2 + m3 + 1, lam.m2 + m3, m3 - 1)
        i, j, k = self.source
        return shifted[i] - 1, shifted[j], shifted[k] + 1


E = WeylElement("e", (1, 2, 3), ())
S1 = WeylElement("s1", (2, 1, 3), (1,))
S2 = WeylElement("s2", (1, 3, 2), (2,))
S12 = WeylElement("s1s2", (2, 3, 1), (1, 2))  # apply s2 first, then s1
S21 = WeylElement("s2s1", (3, 1, 2), (2, 1))
W0 = WeylElement("s1s2s1", (3, 2, 1), (1, 2, 1))

WEYL_GROUP: tuple[WeylElement, ...] = (E, S1, S2, S12, S21, W0)
_BY_NAME = {w.name: w for w in WEYL_GROUP}

# roots as epsilon triples
ALPHA1 = (1, -1, 0)
ALPHA2 = (0, 1, -1)
ALPHA12 = (1, 0, -1)
POSITIVE_ROOTS: tuple[tuple[int, int, int], ...] = (ALPHA1, ALPHA2, ALPHA12)


def weyl_element(name: str) -> WeylElement:
    """Look up a Weyl element by its name, e.g. "s1s2"."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown Weyl element {name!r}") from None


@dataclass(frozen=True)
class Parabolic:
    """A standard parabolic subgroup: P0 minimal, P1/P2 the two maximal ones."""

    tag: str

    def nilradical_roots(self) -> tuple[tuple[int, int, int], ...]:
        if self.tag == "P0":
            return POSITIVE_ROOTS
        if self.tag == "P1":
            return (ALPHA1, ALPHA12)
        if self.tag == "P2":
            return (ALPHA2, ALPHA12)
        raise ValueError(f"unknown parabolic {self.tag!r}")


P0 = Parabolic("P0")
P1 = Parabolic("P1")
P2 = Parabolic("P2")


@dataclass(frozen=True)
class LeviWeight:
    """Restriction of a weight to a maximal Levi GL2 x GL1.

    a is the coordinate along the Levi's SL2 direction, n the coordinate
    along its center; V_{a,n} = Sym^a tensored with det^((n-a)/2) on the GL2
    factor.  Weights coming from the dot action always satisfy a = n mod 2.
    """

    a: int
    n: int


def _apply_to_root(w: WeylElement, root: tuple[int, int, int]) -> tuple[int, int, int]:
    out = [0, 0, 0]
    for i, c in enumerate(root):
        out[w.perm[i] - 1] = c
    return tuple(out)


@lru_cache(maxsize=None)
def kostant_set(p: Parabolic) -> tuple[WeylElement, ...]:
    """Minimal-length coset representatives for the parabolic p.

    w qualifies iff every negative root sent to a positive root lands in the
    nilradical of p.
    """
    nil = set(p.nilradical_roots())
    pos = set(POSITIVE_ROOTS)
    out = []
    for w in WEYL_GROUP:
        flipped = set()
        for root in POSITIVE_ROOTS:
            neg = (-root[0], -root[1], -root[2])
            image = _apply_to_root(w, neg)
            if image in pos:
                flipped.add(image)
        if flipped <= nil:
            out.append(w)
    out.sort(key=lambda w: (w.length, w.name))
    return tuple(out)


# the Kostant sets of the maximal parabolics, by Levi index
_LEVI_KOSTANT = {1: kostant_set(P1), 2: kostant_set(P2)}


def restrict_to_levi(w: WeylElement, lam: HighestWeight, levi: int) -> LeviWeight:
    """The (a, n) coordinates of w . lam on the Levi of P1 or P2.

    Only defined for w in the Kostant set of the parabolic.  The (a, n)
    coordinates depend only on the class of w . lam mod (1, 1, 1):
    levi 1 reads (c2 - c3, c2 + c3 - 2 c1), levi 2 reads
    (c1 - c2, c1 + c2 - 2 c3).
    """
    if levi not in (1, 2):
        raise ValueError(f"levi must be 1 or 2, got {levi!r}")
    if w not in _LEVI_KOSTANT[levi]:
        raise ValueError(f"{w.name} is not a Kostant representative for P{levi}")
    c1, c2, c3 = w.dot(lam)
    if levi == 1:
        a, n = c2 - c3, c2 + c3 - 2 * c1
    else:
        a, n = c1 - c2, c1 + c2 - 2 * c3
    if (a - n) % 2 != 0:
        raise CrossCheckError(
            f"Levi weight (a, n) = ({a}, {n}) of {w.name} . {lam} on levi {levi} "
            f"has a != n mod 2"
        )
    return LeviWeight(a, n)
