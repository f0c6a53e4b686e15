"""Cohomology of the boundary of the Borel-Serre compactification for SL3(Z).

The boundary is glued from three face types (one per standard parabolic
class).  The Mayer-Vietoris style spectral sequence has two columns: column
0 carries the two maximal-parabolic faces, column 1 the minimal one, each
graded by Kostant representative.  The only differential d1 is computed by
an explicit rank rule, and E2 = E_infinity gives the boundary cohomology in
degrees 0..4.

The result is also available as a closed case formula (case_profile); the
spectral sequence assembly checks agreement by default and raises
CrossCheckError on a mismatch.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .errors import CrossCheckError
from .gl2 import dim_cusp_forms, h1_split
from .parity import case_classifier, survivor_sets
from .rootsystem import P0, P1, P2, HighestWeight, restrict_to_levi

TRIVIAL = "TrivialLine"
CUSP = "Cusp"
_KIND_ORDER = {TRIVIAL: 0, CUSP: 1}


@dataclass(frozen=True, slots=True)
class CohomologySummand:
    """A multiplicity of one irreducible building block.

    TrivialLine is a one-dimensional piece, Cusp carries the weight-k
    level-one cusp forms (k in the field k).
    """

    kind: str
    k: int | None = None
    mult: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown summand kind {self.kind!r}")
        if (self.kind == CUSP) != (self.k is not None):
            raise ValueError("Cusp summands carry a weight k; others must not")
        if type(self.mult) is not int or type(self.k) not in (int, type(None)):
            raise TypeError(f"k and mult must be ints, got {self.k!r}, {self.mult!r}")
        if self.mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.mult}")
        if self.kind == CUSP and self.k < 2:
            raise ValueError(f"cusp weight k must be >= 2, got {self.k}")

    def dimension(self) -> int:
        if self.kind == TRIVIAL:
            return self.mult
        return self.mult * dim_cusp_forms(self.k)


def trivial_line(mult: int = 1) -> CohomologySummand:
    return CohomologySummand(TRIVIAL, mult=mult)


def cusp(k: int, mult: int = 1) -> CohomologySummand:
    return CohomologySummand(CUSP, k=k, mult=mult)


# the summands of a face term that is one invariant line
_ONE_LINE = (trivial_line(),)


def _order(s: CohomologySummand) -> tuple[int, int]:
    return _KIND_ORDER[s.kind], s.k or 0


def _merge(summands) -> tuple[CohomologySummand, ...]:
    """Collect multiplicities and sort into the canonical order."""
    acc: dict[tuple[str, int | None], CohomologySummand] = {}
    for s in summands:
        key = (s.kind, s.k)
        seen = acc.get(key)
        acc[key] = s if seen is None else CohomologySummand(
            s.kind, k=s.k, mult=seen.mult + s.mult
        )
    return tuple(sorted(acc.values(), key=_order))


def _dimension(summands) -> int:
    total = 0
    for s in summands:
        total += s.dimension()
    return total


@dataclass(frozen=True, slots=True)
class GradedProfile:
    """A graded sum of summands, degrees with no summands omitted."""

    by_degree: tuple[tuple[int, tuple[CohomologySummand, ...]], ...]

    @classmethod
    def build(cls, data: dict) -> "GradedProfile":
        items = []
        for q in sorted(data):
            merged = _merge(data[q])
            if merged:
                items.append((q, merged))
        return cls(by_degree=tuple(items))

    def degrees(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.by_degree)

    def summands(self, q: int) -> tuple[CohomologySummand, ...]:
        for deg, s in self.by_degree:
            if deg == q:
                return s
        return ()

    def dimension(self, q: int) -> int:
        return _dimension(self.summands(q))

    def total_dimension(self) -> int:
        return sum(_dimension(summands) for _, summands in self.by_degree)

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * _dimension(summands) for q, summands in self.by_degree)

    def multiset(self, q: int) -> dict:
        """Summand multiplicities at degree q, for order-free comparison."""
        return {(s.kind, s.k): s.mult for s in self.summands(q)}


@dataclass(frozen=True, slots=True)
class E1Term:
    """One face contribution on the E1 page.

    parabolic and w name the face and its Kostant representative;
    face_degree is the cohomological degree along the face (0 for invariant
    lines, 1 for the modular-curve H^1 blocks), so the term lives in total
    degree length(w) + face_degree.
    """

    parabolic: str
    w: str
    face_degree: int
    summands: tuple[CohomologySummand, ...]

    def trivial_lines(self) -> int:
        lines = 0
        for s in self.summands:
            if s.kind == TRIVIAL:
                lines += s.mult
        return lines


# A page is read by the one boundary_profile call that asked for it and
# never again for the same weight (0 hits across weights), so only a few
# recent pages are kept.  It stays an lru_cache only because the
# benchmark's tracer reads its cache_info().
@lru_cache(maxsize=8)
def e1_page(lam: HighestWeight) -> tuple[MappingProxyType, MappingProxyType]:
    """The E1 page's columns (col0, col1), each total degree -> its E1Terms."""
    sets = survivor_sets(lam)
    col0: dict[int, list[E1Term]] = {}
    col1: dict[int, list[E1Term]] = {}
    for w in sets[P0]:
        col1.setdefault(w.length, []).append(E1Term(P0.tag, w.name, 0, _ONE_LINE))
    for p in (P1, P2):
        for w in sets[p]:
            r = restrict_to_levi(w, lam, p)
            if r.a == 0:
                col0.setdefault(w.length, []).append(E1Term(p.tag, w.name, 0, _ONE_LINE))
                continue
            summands = [cusp(r.a + 2)]
            if h1_split(r):
                summands.append(trivial_line())
            col0.setdefault(w.length + 1, []).append(
                E1Term(p.tag, w.name, 1, tuple(summands))
            )
    if not all(0 <= q <= 3 for q in (*col0, *col1)):
        raise CrossCheckError(
            f"E1 page of {lam} outside degrees 0..3: columns {col0}, {col1}"
        )
    # read-only: the cache hands the same two objects to every caller
    return (
        MappingProxyType({q: tuple(col0[q]) for q in sorted(col0)}),
        MappingProxyType({q: tuple(col1[q]) for q in sorted(col1)}),
    )


def d1_rank(lam: HighestWeight, col0: Mapping, col1: Mapping, q: int) -> int:
    """Rank of d1 out of column 0 in total degree q of the E1 page of lam.

    col0 and col1 are the two columns that e1_page(lam) returns.  The
    target is the (at most one) surviving minimal-face line in degree q; the
    map is onto it as soon as column 0 contributes any invariant line or
    Eisenstein line in the same degree.  Cusp summands never hit it.
    """
    targets = len(col1.get(q, ()))
    if targets > 1:
        raise CrossCheckError(f"d1 of {lam} in degree {q} has {targets} targets")
    if not targets:
        return 0
    return 1 if any(t.trivial_lines() for t in col0.get(q, ())) else 0


def boundary_profile(lam: HighestWeight, cross_check: bool = True) -> GradedProfile:
    """H^*(boundary) in degrees 0..4 via the spectral sequence.

    With cross_check (the default) the result must equal the closed case
    formula, or CrossCheckError is raised.
    """
    col0, col1 = e1_page(lam)
    by_degree: dict[int, list[CohomologySummand]] = {q: [] for q in range(5)}
    for q in range(4):
        rank = d1_rank(lam, col0, col1, q)
        terms = col0.get(q, ())
        # quotient by the image: rank fewer of the mapping lines
        lines = sum(t.trivial_lines() for t in terms) - rank
        if lines < 0:
            raise CrossCheckError(f"rank 1 with no line to map at {lam}, q={q}")
        by_degree[q] += [s for t in terms for s in t.summands if s.kind != TRIVIAL]
        if lines:
            by_degree[q].append(trivial_line(lines))
        # the column-1 lines d1 misses, in total degree q + 1
        missed = len(col1.get(q, ())) - rank
        if missed:
            by_degree[q + 1].append(trivial_line(missed))
    profile = GradedProfile.build(by_degree)
    if cross_check:
        expected = case_profile(lam)
        if profile != expected:
            raise CrossCheckError(
                f"spectral sequence gives {profile} at {lam}, "
                f"case formula {expected}"
            )
    return profile


@lru_cache(maxsize=None)
def case_profile(lam: HighestWeight) -> GradedProfile:
    """H^*(boundary) by the closed nine-case formula."""
    m1, m2 = lam.m1, lam.m2
    case = case_classifier(lam)
    if case == 1:
        data = {0: [trivial_line()], 4: [trivial_line()]}
    elif case == 2:
        data = {1: [cusp(m2 + 2)], 3: [cusp(m2 + 2)]}
    elif case == 3:
        data = {1: [cusp(m1 + 2)], 3: [cusp(m1 + 2)]}
    elif case == 4:
        block = [trivial_line(), cusp(m1 + 2), cusp(m2 + 2)]
        data = {1: block, 3: list(block)}
    elif case == 5:
        data = {
            1: [cusp(m1 + 2)],
            2: [cusp(m1 + m2 + 3, mult=2)],
            3: [cusp(m1 + 2)],
        }
    elif case == 6:
        data = {2: [cusp(m2 + 3, mult=2), trivial_line(2)]}
    elif case == 7:
        data = {2: [cusp(m1 + 3, mult=2), trivial_line(2)]}
    elif case == 8:
        data = {
            1: [cusp(m2 + 2)],
            2: [cusp(m1 + m2 + 3, mult=2)],
            3: [cusp(m2 + 2)],
        }
    else:
        data = {}
    return GradedProfile.build(data)

