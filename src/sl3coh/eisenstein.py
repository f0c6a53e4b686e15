"""Eisenstein cohomology, ghost classes, and the per-weight cohomology report.

The Eisenstein part of H^*(SL3(Z), M_lam) is the image of the restriction
to the boundary; it is given by a closed nine-case formula, supported in
degrees 0..3, so row 4 of its profile is empty.  Three exact identities tie
it to the other routes: its Euler characteristic equals the homological
Euler characteristic, twice it equals the boundary Euler characteristic,
and the total Eisenstein dimensions of a dual pair of weights are half the
total boundary dimensions of the pair.

Ghost classes (boundary classes in the image of restriction but not of
compactly supported classes) vanish except possibly in degree 2 for the
cases (0, odd) and (odd, 0), where a single line remains undetermined.
"""
from __future__ import annotations

from .boundary import GradedProfile, _case_row, boundary_profile, case_profile
from .euler import euler_report, sl3_euler_closed
from .parity import case_classifier
from .rootsystem import HighestWeight

TRIVIAL = "TrivialLine"
CUSP = "Cusp"
ZERO = "Zero"
UNDETERMINED = "UndeterminedZeroOrOne"

GHOST_DEGREES = (0, 1, 2, 3, 4)


# H^*_Eis per parity case, in the notation of boundary.BOUNDARY_CASES
EISENSTEIN_CASES = {
    1: {0: ("1",)},
    2: {3: ("m2+2",)},
    3: {3: ("m1+2",)},
    4: {3: ("1", "m1+2", "m2+2")},
    5: {2: ("m1+m2+3",), 3: ("m1+2",)},
    6: {2: ("1", "m2+3")},
    7: {2: ("1", "m1+3")},
    8: {2: ("m1+m2+3",), 3: ("m2+2",)},
    9: {},
}


def eisenstein_case_profile(lam: HighestWeight) -> GradedProfile:
    """The Eisenstein cohomology profile, by the closed nine-case formula."""
    return _case_row(EISENSTEIN_CASES, lam)


def _identities(lam: HighestWeight, eis: GradedProfile, dual: HighestWeight) -> dict:
    """The three identities at lam, given its Eisenstein profile and dual weight."""
    e0, e1, e2, e3, e4 = eis_dims = eis.dimensions()
    b0, b1, b2, b3, b4 = bd_dims = case_profile(lam).dimensions()
    chi_eis = e0 - e1 + e2 - e3 + e4
    return {
        "chi_eis_equals_chi_h": chi_eis == sl3_euler_closed(lam),
        "half_boundary": 2 * chi_eis == b0 - b1 + b2 - b3 + b4,
        "poincare_pair": 2 * (sum(eis_dims) + sum(eisenstein_case_profile(dual).dimensions()))
        == sum(bd_dims) + sum(case_profile(dual).dimensions()),
    }


def ghost_report(lam: HighestWeight) -> dict[int, str]:
    """Ghost status per degree 0..4: zero, except degree 2 in cases 6 and 7.

    There a single candidate line (restricted from the minimal face) may or
    may not survive; its status is reported as undetermined, never silently
    resolved.
    """
    case = case_classifier(lam)
    return {
        q: UNDETERMINED if q == 2 and case in (6, 7) else ZERO
        for q in GHOST_DEGREES
    }


def _profile_json(rows: tuple) -> dict:
    return {
        str(q): [{"kind": TRIVIAL if k is None else CUSP, "k": k, "mult": m} for k, m in row]
        for q, row in enumerate(rows)
    }


# both profiles of a weight whose cohomology vanishes
_NOTHING = GradedProfile(((),) * 5)


def cohomology_report(lam: HighestWeight) -> dict:
    """The full cohomology report of one weight, JSON-able.

    The group is SL3(Z) for a weight without m3 and GL3(Z) for one with it.
    Boundary and Eisenstein profiles, both Euler routes with the table cell,
    ghost statuses and identity flags.  For non-self-dual weights the inner
    part vanishes and the Eisenstein part is the whole cohomology; for
    self-dual weights (m1 = m2) it is a lower bound only.  An odd GL3
    central character kills everything, and then nothing is open.
    """
    group = "sl3" if lam.m3 is None else "gl3"
    vanishes = group == "gl3" and gl3_vanishes(lam)
    # reduced once here, so the per-weight caches hold SL3 weights only
    sl3 = lam.sl3_part()
    case = case_classifier(sl3)
    if vanishes:
        boundary = eisenstein = _NOTHING
        identities = {}
        ghosts = {str(q): ZERO for q in GHOST_DEGREES}
        euler = {"chi_wall": 0, "chi_closed": 0, "table_cell": None}
    else:
        boundary = boundary_profile(sl3)
        eisenstein = eisenstein_case_profile(sl3)
        identities = _identities(sl3, eisenstein, sl3.dual())
        ghosts = {str(q): s for q, s in ghost_report(sl3).items()}
        euler = euler_report(sl3)
    weight = {"m1": lam.m1, "m2": lam.m2}
    if group == "gl3":
        weight["m3"] = lam.m3
    self_dual = lam.m1 == lam.m2
    return {
        "group": group,
        "weight": weight,
        "case_id": case,
        "vanishes": vanishes,
        "boundary": _profile_json(boundary),
        "eisenstein": {
            "profile": _profile_json(eisenstein[:4]),
            "chi_eis": eisenstein.euler_characteristic(),
            "identities": identities,
        },
        "euler": euler,
        "ghost": ghosts,
        "total": {"self_dual": self_dual, "inner_known": vanishes or not self_dual},
    }


def gl3_vanishes(lam: HighestWeight) -> bool:
    """True iff all GL3(Z) cohomology of M_lam vanishes (odd central character)."""
    if lam.m3 is None:
        raise ValueError("a GL3 weight needs a determinant power m3")
    return (lam.m1 + lam.m3) % 2 != 0

