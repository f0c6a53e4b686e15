"""Cross-route verification suite.

Every quantity the package computes has at least two independent routes;
this module compares them over weight sweeps and returns machine-readable
failure records, each naming the offending weight and check.  The CLI's
verify subcommand is a thin wrapper around run_all.
"""
from __future__ import annotations

import random

from . import traces
from .boundary import boundary_euler_closed, boundary_profile, case_profile, e1_page
from .eisenstein import (
    UNDETERMINED,
    ZERO,
    eisenstein_case_profile,
    ghost_report,
    verify_identities,
)
from .euler import sl3_euler_closed, sl3_euler_wall, symbolic_cell
from .gl2 import dim_cusp_forms, gl2_euler, gl2_euler_wall, sl2_euler
from .parity import case_classifier, survivor_sets
from .rootsystem import P1, P2, HighestWeight, kostant_set, restrict_to_levi

def _fail(check: str, params: dict, detail: str) -> dict:
    return {"check": check, "params": params, "detail": detail}


def check_trace_routes(max_weight: int) -> list[dict]:
    """Triple-sum, periodicity-table, and determinant traces must agree."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            for k in (2, 3, 4, 6):
                base = traces.gt_trace(m1, m2, 0, k)
                closed = traces.closed_trace(m1, m2, 0, k)
                if closed != base:
                    failures.append(
                        _fail(
                            "gt_trace_vs_closed_trace",
                            {"m1": m1, "m2": m2, "m3": 0, "k": k},
                            f"gt_trace={base}, closed_trace={closed}",
                        )
                    )
                det = traces.weyl_det_trace(m1, m2, k)
                if det != base:
                    failures.append(
                        _fail(
                            "gt_trace_vs_weyl_det_trace",
                            {"m1": m1, "m2": m2, "k": k},
                            f"gt_trace={base}, weyl_det_trace={det}",
                        )
                    )
                for m3 in (1, 2):
                    shifted = traces.gt_trace(m1, m2, m3, k)
                    if shifted != base:
                        failures.append(
                            _fail(
                                "gt_trace_m3_independence",
                                {"m1": m1, "m2": m2, "m3": m3, "k": k},
                                f"m3=0 gives {base}, m3={m3} gives {shifted}",
                            )
                        )
    return failures


def check_euler_routes(max_weight: int) -> list[dict]:
    """Torsion sum, closed form, and table cells must agree."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            lam = HighestWeight(m1, m2)
            wall = sl3_euler_wall(lam)
            closed = sl3_euler_closed(lam)
            if wall != closed:
                failures.append(
                    _fail(
                        "sl3_euler_wall_vs_closed",
                        {"m1": m1, "m2": m2},
                        f"wall={wall}, closed={closed}",
                    )
                )
            cell = symbolic_cell(m1 % 12, m2 % 12).evaluate(m1, m2)
            if cell != closed:
                failures.append(
                    _fail(
                        "euler_cell_vs_closed",
                        {"m1": m1, "m2": m2},
                        f"cell={cell}, closed={closed}",
                    )
                )
    return failures


def check_gl2_routes(max_weight: int) -> list[dict]:
    """GL2 rational sums against the closed forms, and the SL2 splitting."""
    failures = []
    for m in range(max_weight + 1):
        for t in (0, 1):
            wall = gl2_euler_wall(m, t)
            closed = gl2_euler(m, t)
            if wall != closed:
                failures.append(
                    _fail(
                        "gl2_euler_wall_vs_closed",
                        {"m": m, "det_twist": t},
                        f"wall={wall}, closed={closed}",
                    )
                )
        if sl2_euler(m) != gl2_euler(m, 0) + gl2_euler(m, 1):
            failures.append(
                _fail("sl2_additivity", {"m": m}, "sl2 != gl2(0) + gl2(1)")
            )
        if m > 0 and m % 2 == 0 and -gl2_euler_wall(m, 0) != dim_cusp_forms(m + 2):
            failures.append(
                _fail(
                    "gl2_h1_dimension",
                    {"m": m},
                    "-chi does not equal dim S_{m+2}",
                )
            )
    return failures


# the Weyl group automorphism induced by swapping m1 and m2
_SWAP = {"e": "e", "s1": "s2", "s2": "s1", "s1s2": "s2s1", "s2s1": "s1s2",
         "s1s2s1": "s1s2s1"}


def _swapped(ws) -> list[str]:
    return sorted(_SWAP[w.name] for w in ws)


def _plain(ws) -> list[str]:
    return sorted(w.name for w in ws)


def check_survivors(max_weight: int) -> list[dict]:
    """Surviving Levi weights have even coordinates; reflection symmetry."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            lam = HighestWeight(m1, m2)
            sets = survivor_sets(lam)
            for levi, p, wset in ((1, P1, sets.w1), (2, P2, sets.w2)):
                for w in wset:
                    r = restrict_to_levi(w, lam, levi)
                    if r.a < 0 or r.a % 2 != 0 or r.n % 2 != 0:
                        failures.append(
                            _fail(
                                "survivor_parity",
                                {"m1": m1, "m2": m2, "levi": levi, "w": w.name},
                                f"survivor has (a, n) = ({r.a}, {r.n})",
                            )
                        )
            mirror = survivor_sets(HighestWeight(m2, m1))
            if (
                _swapped(sets.w1) != _plain(mirror.w2)
                or _swapped(sets.w2) != _plain(mirror.w1)
                or _swapped(sets.w0) != _plain(mirror.w0)
            ):
                failures.append(
                    _fail(
                        "survivor_reflection",
                        {"m1": m1, "m2": m2},
                        "survivor sets do not mirror under (m1, m2) swap",
                    )
                )
    return failures


def check_boundary_assembly(max_weight: int) -> list[dict]:
    """Spectral sequence output equals the closed case formulas."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            lam = HighestWeight(m1, m2)
            built = boundary_profile(lam, cross_check=False)
            expected = case_profile(lam)
            for q in range(5):
                if built.multiset(q) != expected.multiset(q):
                    failures.append(
                        _fail(
                            "boundary_profile_vs_case_formula",
                            {"m1": m1, "m2": m2, "q": q},
                            f"assembled {built.multiset(q)}, "
                            f"case formula {expected.multiset(q)}",
                        )
                    )
            chi = built.euler_characteristic()
            if chi != boundary_euler_closed(lam):
                failures.append(
                    _fail(
                        "boundary_euler_closed",
                        {"m1": m1, "m2": m2},
                        f"profile chi {chi} != closed form "
                        f"{boundary_euler_closed(lam)}",
                    )
                )
    return failures


def check_identities(max_weight: int) -> list[dict]:
    """The Eisenstein/boundary/Euler identity suite, plus duality."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            lam = HighestWeight(m1, m2)
            for name, ok in verify_identities(lam).items():
                if not ok:
                    failures.append(
                        _fail(name, {"m1": m1, "m2": m2}, "identity fails")
                    )
            bd = case_profile(lam)
            bd_dual = case_profile(lam.dual())
            for q in range(5):
                if bd.dimension(q) != bd_dual.dimension(4 - q):
                    failures.append(
                        _fail(
                            "boundary_duality",
                            {"m1": m1, "m2": m2, "q": q},
                            f"dim H^{q} = {bd.dimension(q)} but dual "
                            f"dim H^{4 - q} = {bd_dual.dimension(4 - q)}",
                        )
                    )
            eis = eisenstein_case_profile(lam)
            for q in range(4):
                eis_ms = eis.multiset(q)
                bd_ms = bd.multiset(q)
                if any(eis_ms[key] > bd_ms.get(key, 0) for key in eis_ms):
                    failures.append(
                        _fail(
                            "eisenstein_inside_boundary",
                            {"m1": m1, "m2": m2, "q": q},
                            f"Eisenstein {eis_ms} not inside boundary {bd_ms}",
                        )
                    )
    return failures


def check_ghosts(max_weight: int) -> list[dict]:
    """Ghost statuses: undetermined exactly in degree 2 of cases 6 and 7."""
    failures = []
    for m1 in range(max_weight + 1):
        for m2 in range(max_weight + 1):
            lam = HighestWeight(m1, m2)
            case = case_classifier(lam)
            report = ghost_report(lam)
            for q, status in report.by_degree:
                want = UNDETERMINED if (q == 2 and case in (6, 7)) else ZERO
                if status != want:
                    failures.append(
                        _fail(
                            "ghost_support",
                            {"m1": m1, "m2": m2, "q": q},
                            f"status {status}, expected {want}",
                        )
                    )
    return failures


def check_random_spots(max_weight: int, seed: int, count: int = 25) -> list[dict]:
    """Seeded spot checks at weights beyond the sweep bound."""
    failures = []
    rng = random.Random(seed)
    for _ in range(count):
        m1 = rng.randrange(0, 12 * max(max_weight, 1))
        m2 = rng.randrange(0, 12 * max(max_weight, 1))
        lam = HighestWeight(m1, m2)
        if sl3_euler_wall(lam) != sl3_euler_closed(lam):
            failures.append(
                _fail(
                    "sl3_euler_wall_vs_closed",
                    {"m1": m1, "m2": m2, "spot": True},
                    "wall route disagrees with closed form",
                )
            )
        built = boundary_profile(lam, cross_check=False)
        if built != case_profile(lam):
            failures.append(
                _fail(
                    "boundary_profile_vs_case_formula",
                    {"m1": m1, "m2": m2, "spot": True},
                    "assembled profile disagrees with case formula",
                )
            )
        for name, ok in verify_identities(lam).items():
            if not ok:
                failures.append(
                    _fail(name, {"m1": m1, "m2": m2, "spot": True}, "identity fails")
                )
    return failures


def check_kostant() -> list[dict]:
    """The Kostant sets and E1 support are what they must be."""
    failures = []
    expected = {
        "P1": ["e", "s1", "s1s2"],
        "P2": ["e", "s2", "s2s1"],
    }
    for p in (P1, P2):
        got = [w.name for w in kostant_set(p)]
        if got != expected[p.tag]:
            failures.append(
                _fail("kostant_set", {"parabolic": p.tag}, f"got {got}")
            )
    for m1 in range(4):
        for m2 in range(4):
            page = e1_page(HighestWeight(m1, m2))
            for p in (0, 1):
                if any(q < 0 or q > 3 for q in page.column(p)):
                    failures.append(
                        _fail(
                            "e1_support",
                            {"m1": m1, "m2": m2, "column": p},
                            f"degrees {sorted(page.column(p))}",
                        )
                    )
    return failures


CHECKS = (
    ("kostant", lambda max_weight, seed: check_kostant()),
    ("trace_routes", lambda max_weight, seed: check_trace_routes(max_weight)),
    ("euler_routes", lambda max_weight, seed: check_euler_routes(max_weight)),
    ("gl2_routes", lambda max_weight, seed: check_gl2_routes(max_weight)),
    ("survivors", lambda max_weight, seed: check_survivors(max_weight)),
    ("boundary_assembly", lambda max_weight, seed: check_boundary_assembly(max_weight)),
    ("identities", lambda max_weight, seed: check_identities(max_weight)),
    ("ghosts", lambda max_weight, seed: check_ghosts(max_weight)),
    ("random_spots", check_random_spots),
)


def run_all(max_weight: int = 60, seed: int = 0) -> dict:
    """Run every check family up to max_weight; returns a summary report."""
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    failures = []
    families = {}
    for name, fn in CHECKS:
        try:
            fam_failures = fn(max_weight, seed)
        except Exception as exc:  # a route that raises is a failure, not a crash
            fam_failures = [
                _fail(
                    f"{name}_raised",
                    {"family": name},
                    f"{type(exc).__name__}: {exc}",
                )
            ]
        families[name] = {"failures": len(fam_failures)}
        failures.extend(fam_failures)
    return {
        "max_weight": max_weight,
        "seed": seed,
        "families": families,
        "failures": failures,
        "ok": not failures,
    }
