"""Cohomology of the boundary of the Borel-Serre compactification for SL3(Z).

The boundary is glued from three face types (one per standard parabolic
class).  The Mayer-Vietoris style spectral sequence has two columns: column
0 carries the two maximal-parabolic faces, column 1 the minimal one, each
graded by Kostant representative.  The only differential d1 is computed by
an explicit rank rule, and E2 = E_infinity gives the boundary cohomology in
degrees 0..4.

The result is also available as a closed case formula (case_profile); the
spectral sequence assembly checks agreement by default and raises
CrossCheckError on a mismatch.  Both give a GradedProfile, and the E1 terms
hold the same summand shape: a pair (k, mult) is mult trivial lines when k
is None and mult copies of the level-one cusp forms S_k otherwise.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cache, lru_cache

from .errors import CrossCheckError
from .gl2 import dim_cusp_forms, h1_split
from .parity import case_classifier, survivor_sets
from .rootsystem import P0, P1, P2, HighestWeight, restrict_to_levi

# the summands of a face term that is one invariant line
_ONE_LINE = ((None, 1),)


class GradedProfile(namedtuple("GradedProfile", ("by_degree",))):
    """A graded sum of summands, degrees with no summands omitted.

    by_degree pairs each degree q, ascending, with its summands (k, mult):
    mult trivial lines when k is None, else mult copies of the weight-k
    level-one cusp forms S_k, trivial lines first, then by ascending k.
    """

    __slots__ = ()

    @classmethod
    def build(cls, data: Mapping[int, Mapping[int | None, int]]) -> "GradedProfile":
        """The profile of degree -> {k: mult}, without zero multiplicities."""
        items = []
        for q in sorted(data):
            mults = data[q]
            lines = mults.get(None)
            # the trivial line (k None) before every weight k >= 2
            row = [(None, lines)] if lines else []
            if len(mults) > (lines is not None):  # some cusp summand
                row += sorted([(k, m) for k, m in mults.items() if m and k is not None])
            if row:
                items.append((q, tuple(row)))
        return cls(by_degree=tuple(items))

    def summands(self, q: int) -> tuple[tuple[int | None, int], ...]:
        for deg, s in self.by_degree:
            if deg == q:
                return s
        return ()

    def dimensions(self) -> list[int]:
        """The dimension in each degree 0..4, in one pass."""
        dims = [0, 0, 0, 0, 0]
        for q, s in self.by_degree:
            dims[q] = _dimension(s)
        return dims

    def total_dimension(self) -> int:
        total = 0
        for _, s in self.by_degree:
            total += _dimension(s)
        return total

    def euler_characteristic(self) -> int:
        chi = 0
        for q, s in self.by_degree:
            chi += -_dimension(s) if q % 2 else _dimension(s)
        return chi

    def multiset(self, q: int) -> dict:
        """Summand multiplicities at degree q, k -> mult."""
        return dict(self.summands(q))


def _dimension(summands: tuple[tuple[int | None, int], ...]) -> int:
    """The dimension of one degree's summands."""
    dim = 0
    for k, m in summands:
        dim += m if k is None else m * dim_cusp_forms(k)
    return dim


def _case_row(table: dict, lam: HighestWeight) -> GradedProfile:
    """The row of a case table for the parity case of lam, evaluated at lam.

    A summand is "1" for a trivial line or "form+shift" for the cusp space
    S_k with k = form + shift, form one of m1, m2 and m1+m2; a repeated
    summand adds to its multiplicity.
    """
    m1, m2, _ = lam
    forms = {"m1": m1, "m2": m2, "m1+m2": m1 + m2}
    data = {}
    for q, summands in table[case_classifier(lam)].items():
        row = data[q] = {}
        for form, shift in _parsed(summands):
            k = None if form is None else forms[form] + shift
            row[k] = row.get(k, 0) + 1
    return GradedProfile.build(data)


# keyed by the summand strings themselves: an edited row is parsed afresh
@cache
def _parsed(summands: tuple[str, ...]) -> tuple[tuple[str | None, int], ...]:
    """Each summand string as a pair (form, shift), "1" as (None, 0)."""
    pairs = []
    for s in summands:
        form, _, shift = s.rpartition("+")
        pairs.append((None, 0) if s == "1" else (form, int(shift)))
    return tuple(pairs)


E1Term = namedtuple("E1Term", ("parabolic", "w", "face_degree", "summands"))
E1Term.__doc__ = """One face contribution on the E1 page.

parabolic and w name the face and its Kostant representative;
face_degree is the cohomological degree along the face (0 for invariant
lines, 1 for the modular-curve H^1 blocks), so the term lives in total
degree length(w) + face_degree; summands are (k, mult) pairs.
"""


# A page is read once, by the boundary_profile call that asked for it:
# maxsize 0 stores none and keeps the cache_info() the benchmark reads.
@lru_cache(maxsize=0)
def e1_page(lam: HighestWeight) -> tuple[dict, dict]:
    """The E1 page's columns (col0, col1), each total degree -> its E1Terms."""
    sets = survivor_sets(lam)
    col0: dict[int, list[E1Term]] = {}
    col1: dict[int, list[E1Term]] = {}
    for w in sets[P0]:
        col1.setdefault(w.length, []).append(E1Term(P0.tag, w.name, 0, _ONE_LINE))
    for p in (P1, P2):
        tag = p.tag
        for w in sets[p]:
            r = restrict_to_levi(w, lam, p)
            a = r.a
            if a == 0:
                col0.setdefault(w.length, []).append(E1Term(tag, w.name, 0, _ONE_LINE))
                continue
            summands = ((a + 2, 1), (None, 1)) if h1_split(r) else ((a + 2, 1),)
            col0.setdefault(w.length + 1, []).append(E1Term(tag, w.name, 1, summands))
    if not {*col0, *col1} <= {0, 1, 2, 3}:
        raise CrossCheckError(
            f"E1 page of {lam} outside degrees 0..3: columns {col0}, {col1}"
        )
    return tuple({q: tuple(ts) for q, ts in sorted(col.items())} for col in (col0, col1))


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
    terms = col0.get(q, ())
    return 1 if any(k is None for t in terms for k, _ in t.summands) else 0


def boundary_profile(lam: HighestWeight, cross_check: bool = True) -> GradedProfile:
    """H^*(boundary) in degrees 0..4 via the spectral sequence.

    With cross_check (the default) the result must equal the closed case
    formula, or CrossCheckError is raised.
    """
    col0, col1 = e1_page(lam)
    by_degree = []
    missed = 0
    for q in range(4):
        rank = d1_rank(lam, col0, col1, q)
        # quotient by the image: rank fewer of the mapping lines
        lines, cusp = -rank, {}
        for t in col0.get(q, ()):
            for k, m in t.summands:
                if k is None:
                    lines += m
                else:
                    cusp[k] = cusp.get(k, 0) + m
        if lines < 0:
            raise CrossCheckError(f"rank 1 with no line to map at {lam}, q={q}")
        # plus the column-1 lines d1 missed one degree down, first in the row
        lines += missed
        row = ((None, lines),) if lines else ()
        if cusp:
            row += tuple(sorted(cusp.items()))
        if row:
            by_degree.append((q, row))
        # the column-1 lines d1 misses, in total degree q + 1
        missed = len(col1.get(q, ())) - rank
    if missed:
        by_degree.append((4, ((None, missed),)))
    profile = GradedProfile(tuple(by_degree))
    if cross_check:
        expected = case_profile(lam)
        if profile != expected:
            raise CrossCheckError(
                f"spectral sequence gives {profile} at {lam}, "
                f"case formula {expected}"
            )
    return profile


# H^*(boundary) per parity case: degree -> summands, as _case_row reads them
BOUNDARY_CASES = {
    1: {0: ("1",), 4: ("1",)},
    2: {1: ("m2+2",), 3: ("m2+2",)},
    3: {1: ("m1+2",), 3: ("m1+2",)},
    4: {1: ("1", "m1+2", "m2+2"), 3: ("1", "m1+2", "m2+2")},
    5: {1: ("m1+2",), 2: ("m1+m2+3", "m1+m2+3"), 3: ("m1+2",)},
    6: {2: ("m2+3", "m2+3", "1", "1")},
    7: {2: ("m1+3", "m1+3", "1", "1")},
    8: {1: ("m2+2",), 2: ("m1+m2+3", "m1+m2+3"), 3: ("m2+2",)},
    9: {},
}


@lru_cache(maxsize=None)
def case_profile(lam: HighestWeight) -> GradedProfile:
    """H^*(boundary) by the closed nine-case formula."""
    return _case_row(BOUNDARY_CASES, lam)
