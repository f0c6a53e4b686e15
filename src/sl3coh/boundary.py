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

from dataclasses import dataclass
from functools import lru_cache

from .errors import CrossCheckError
from .gl2 import ACTUAL, EULER, GL2Weight, dim_cusp_forms, h1_split
from .parity import case_classifier, survivor_sets
from .rootsystem import HighestWeight, restrict_to_levi

TRIVIAL = "TrivialLine"
CUSP = "Cusp"
_KIND_ORDER = {TRIVIAL: 0, CUSP: 1}


@dataclass(frozen=True)
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
        if self.mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.mult}")

    def dimension(self, convention: str = ACTUAL) -> int:
        if self.kind == TRIVIAL:
            return self.mult
        return self.mult * dim_cusp_forms(self.k, convention)


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


def _dimension(summands, convention: str) -> int:
    total = 0
    for s in summands:
        total += s.dimension(convention)
    return total


@dataclass(frozen=True)
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

    def dimension(self, q: int, convention: str = ACTUAL) -> int:
        return _dimension(self.summands(q), convention)

    def total_dimension(self, convention: str = ACTUAL) -> int:
        total = 0
        for _, summands in self.by_degree:
            total += _dimension(summands, convention)
        return total

    def euler_characteristic(self, convention: str = ACTUAL) -> int:
        total = 0
        for q, summands in self.by_degree:
            dim = _dimension(summands, convention)
            total += -dim if q % 2 else dim
        return total

    def multiset(self, q: int) -> dict:
        """Summand multiplicities at degree q, for order-free comparison."""
        return {(s.kind, s.k): s.mult for s in self.summands(q)}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class E1Page:
    """The two-column E1 page, each column keyed by total degree."""

    col0: tuple[tuple[int, tuple[E1Term, ...]], ...]
    col1: tuple[tuple[int, tuple[E1Term, ...]], ...]

    def column(self, p: int) -> dict:
        if p not in (0, 1):
            raise ValueError(f"columns are 0 and 1, got {p}")
        return dict(self.col0 if p == 0 else self.col1)


@lru_cache(maxsize=None)
def e1_page(lam: HighestWeight) -> E1Page:
    """Assemble the E1 page from the surviving face contributions."""
    lam = lam.sl3_part()
    sets = survivor_sets(lam)
    col0: dict[int, list[E1Term]] = {}
    col1: dict[int, list[E1Term]] = {}
    for w in sets.w0:
        col1.setdefault(w.length, []).append(E1Term("P0", w.name, 0, _ONE_LINE))
    for levi, tag, wset in ((1, "P1", sets.w1), (2, "P2", sets.w2)):
        for w in wset:
            r = restrict_to_levi(w, lam, levi)
            if r.a == 0:
                col0.setdefault(w.length, []).append(E1Term(tag, w.name, 0, _ONE_LINE))
                continue
            split = h1_split(GL2Weight(r.a, r.n))
            summands = [cusp(r.a + 2)]
            if split["eisenstein_dim"]:
                summands.append(trivial_line())
            col0.setdefault(w.length + 1, []).append(
                E1Term(tag, w.name, 1, tuple(summands))
            )
    if not all(0 <= q <= 3 for q in (*col0, *col1)):
        raise CrossCheckError(
            f"E1 page of {lam} outside degrees 0..3: columns {col0}, {col1}"
        )
    return E1Page(
        col0=tuple((q, tuple(col0[q])) for q in sorted(col0)),
        col1=tuple((q, tuple(col1[q])) for q in sorted(col1)),
    )


def d1_rank(lam: HighestWeight, col0: dict, col1: dict, q: int) -> int:
    """Rank of d1 out of column 0 in total degree q of the E1 page of lam.

    col0 and col1 are the page's columns.  The target is the (at most one)
    surviving minimal-face line in degree q; the map is onto it as soon as
    column 0 contributes any invariant line or Eisenstein line in the same
    degree.  Cusp summands never hit it.
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
    lam = lam.sl3_part()
    page = e1_page(lam)
    col0 = page.column(0)
    col1 = page.column(1)
    by_degree: dict[int, list[CohomologySummand]] = {}
    # E2 column-1 lines, by the total degree q + 1 they land in
    cokernel: dict[int, int] = {}
    for q in range(4):
        rank = d1_rank(lam, col0, col1, q)
        terms = col0.get(q, ())
        # quotient by the image: rank fewer of the mapping lines
        lines = sum(t.trivial_lines() for t in terms) - rank
        if lines < 0:
            raise CrossCheckError(f"rank 1 with no line to map at {lam}, q={q}")
        by_degree[q] = [s for t in terms for s in t.summands if s.kind != TRIVIAL]
        if lines:
            by_degree[q].append(trivial_line(lines))
        cokernel[q + 1] = len(col1.get(q, ())) - rank
    for q, lines in cokernel.items():
        if lines:
            by_degree.setdefault(q, []).append(trivial_line(lines))
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
    lam = lam.sl3_part()
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


def boundary_euler_closed(lam: HighestWeight) -> int:
    """chi(boundary) in closed form, by parity of (m1, m2)."""
    m1, m2 = lam.m1, lam.m2
    if m1 % 2 == 0 and m2 % 2 == 0:
        return -2 * (
            1 + dim_cusp_forms(m1 + 2, EULER) + dim_cusp_forms(m2 + 2, EULER)
        )
    if m1 % 2 == 0:
        return 2 * (
            dim_cusp_forms(m1 + m2 + 3, EULER) - dim_cusp_forms(m1 + 2, EULER)
        )
    if m2 % 2 == 0:
        return 2 * (
            dim_cusp_forms(m1 + m2 + 3, EULER) - dim_cusp_forms(m2 + 2, EULER)
        )
    return 0
