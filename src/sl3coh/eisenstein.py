"""Eisenstein cohomology, ghost classes, and the per-weight cohomology report.

The Eisenstein part of H^*(SL3(Z), M_lam) is the image of the restriction
to the boundary; it is given by a closed nine-case formula, supported in
degrees 0..3.  Three exact identities tie it to the other routes: its Euler
characteristic equals the homological Euler characteristic, twice it equals
the boundary Euler characteristic, and the total Eisenstein dimensions of a
dual pair of weights are half the total boundary dimensions of the pair.

Ghost classes (boundary classes in the image of restriction but not of
compactly supported classes) vanish except possibly in degree 2 for the
cases (0, odd) and (odd, 0), where a single line remains undetermined.
"""
from __future__ import annotations

from .boundary import (
    GradedProfile,
    boundary_profile,
    case_profile,
    cusp,
    trivial_line,
)
from .euler import euler_report, sl3_euler_closed
from .parity import case_classifier
from .rootsystem import HighestWeight

ZERO = "Zero"
UNDETERMINED = "UndeterminedZeroOrOne"

GHOST_DEGREES = (0, 1, 2, 3, 4)


def eisenstein_case_profile(lam: HighestWeight) -> GradedProfile:
    """The Eisenstein cohomology profile, by the closed nine-case formula."""
    lam = lam.sl3_part()
    m1, m2 = lam.m1, lam.m2
    case = case_classifier(lam)
    if case == 1:
        data = {0: [trivial_line()]}
    elif case == 2:
        data = {3: [cusp(m2 + 2)]}
    elif case == 3:
        data = {3: [cusp(m1 + 2)]}
    elif case == 4:
        data = {3: [trivial_line(), cusp(m1 + 2), cusp(m2 + 2)]}
    elif case == 5:
        data = {2: [cusp(m1 + m2 + 3)], 3: [cusp(m1 + 2)]}
    elif case == 6:
        data = {2: [trivial_line(), cusp(m2 + 3)]}
    elif case == 7:
        data = {2: [trivial_line(), cusp(m1 + 3)]}
    elif case == 8:
        data = {2: [cusp(m1 + m2 + 3)], 3: [cusp(m2 + 2)]}
    else:
        data = {}
    return GradedProfile.build(data)


def verify_identities(lam: HighestWeight) -> dict:
    """The three exact identities linking Eisenstein, boundary, and Euler."""
    lam = lam.sl3_part()
    dual = lam.dual()
    eis = eisenstein_case_profile(lam)
    eis_dual = eisenstein_case_profile(dual)
    bd = case_profile(lam)
    bd_dual = case_profile(dual)
    return {
        "chi_eis_equals_chi_h": eis.euler_characteristic()
        == sl3_euler_closed(lam),
        "half_boundary": 2 * eis.euler_characteristic()
        == bd.euler_characteristic(),
        "poincare_pair": 2 * (eis.total_dimension() + eis_dual.total_dimension())
        == bd.total_dimension() + bd_dual.total_dimension(),
    }


def ghost_report(lam: HighestWeight) -> dict[int, str]:
    """Ghost status per degree 0..4: zero, except degree 2 in cases 6 and 7.

    There a single candidate line (restricted from the minimal face) may or
    may not survive; its status is reported as undetermined, never silently
    resolved.
    """
    case = case_classifier(lam.sl3_part())
    return {
        q: UNDETERMINED if q == 2 and case in (6, 7) else ZERO
        for q in GHOST_DEGREES
    }


def _profile_json(profile: GradedProfile, degrees: range) -> dict:
    return {
        str(q): [
            {"kind": s.kind, "k": s.k, "mult": s.mult} for s in profile.summands(q)
        ]
        for q in degrees
    }


def cohomology_report(lam: HighestWeight, group: str = "sl3") -> dict:
    """The full cohomology report of one SL3(Z) or GL3(Z) weight, JSON-able.

    Boundary and Eisenstein profiles, both Euler routes with the table cell,
    ghost statuses and identity flags.  For non-self-dual weights the inner
    part vanishes and the Eisenstein part is the whole cohomology; for
    self-dual weights (m1 = m2) it is a lower bound only.  An odd GL3
    central character kills everything, and then nothing is open.
    """
    if group not in ("sl3", "gl3"):
        raise ValueError(f"group must be 'sl3' or 'gl3', got {group!r}")
    if group == "sl3" and lam.m3 is not None:
        raise ValueError("an SL3 weight must not carry a determinant power")
    vanishes = group == "gl3" and gl3_vanishes(lam)
    sl3 = lam.sl3_part()
    case = case_classifier(sl3)
    if vanishes:
        boundary = eisenstein = GradedProfile.build({})
        identities = {}
        ghosts = {str(q): ZERO for q in GHOST_DEGREES}
        euler = {"chi_wall": 0, "chi_closed": 0, "table_cell": None}
    else:
        boundary = boundary_profile(sl3)
        eisenstein = eisenstein_case_profile(sl3)
        identities = verify_identities(sl3)
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
        "boundary": _profile_json(boundary, range(5)),
        "eisenstein": {
            "profile": _profile_json(eisenstein, range(4)),
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


__all__ = [
    "ZERO",
    "UNDETERMINED",
    "GHOST_DEGREES",
    "eisenstein_case_profile",
    "verify_identities",
    "ghost_report",
    "cohomology_report",
    "gl3_vanishes",
]
