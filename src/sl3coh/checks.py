"""Cross-route verification suite, behind the CLI's verify subcommand.

Every quantity the package computes has at least two independent routes.
A check family is one per-weight comparison (an `*_at` function yielding
failure records, each naming the offending weight and check) run by one
shared sweep over its domain; the seeded spot checks rerun the trace,
euler, boundary and identity comparisons at weights beyond the sweep bound.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from functools import lru_cache
from itertools import product, starmap

from . import traces
from .boundary import boundary_profile, case_profile
from .eisenstein import (
    UNDETERMINED,
    ZERO,
    _identities,
    eisenstein_case_profile,
    ghost_report,
)
from .euler import sl3_euler_closed, sl3_euler_wall, symbolic_cell
from .gl2 import dim_cusp_forms, gl2_euler, gl2_euler_wall, sl2_euler
from .parity import case_classifier, survivor_sets
from .rootsystem import P0, P1, P2, HighestWeight, kostant_set, restrict_to_levi

SPOT_COUNT = 25


def _fail(check: str, params: dict, detail: str) -> dict:
    return {"check": check, "params": params, "detail": detail}


def _at(lam: HighestWeight, **extra) -> dict:
    return {"m1": lam.m1, "m2": lam.m2, **extra}


def traces_at(lam: HighestWeight) -> Iterator[dict]:
    """Triple-sum, periodicity-table, and determinant traces must agree."""
    m1, m2 = lam.m1, lam.m2
    for k in (2, 3, 4, 6):
        base = traces.gt_trace(m1, m2, 0, k)
        closed = traces.closed_trace(m1, m2, 0, k)
        if closed != base:
            yield _fail(
                "gt_trace_vs_closed_trace",
                _at(lam, m3=0, k=k),
                f"gt_trace={base}, closed_trace={closed}",
            )
        det = traces.weyl_det_trace(m1, m2, k)
        if det != base:
            yield _fail(
                "gt_trace_vs_weyl_det_trace",
                _at(lam, k=k),
                f"gt_trace={base}, weyl_det_trace={det}",
            )
        for m3 in (1, 2):
            shifted = traces.gt_trace(m1, m2, m3, k)
            if shifted != base:
                yield _fail(
                    "gt_trace_m3_independence",
                    _at(lam, m3=m3, k=k),
                    f"m3=0 gives {base}, m3={m3} gives {shifted}",
                )


def euler_at(lam: HighestWeight) -> Iterator[dict]:
    """Torsion sum, closed form, and table cell must agree."""
    wall = sl3_euler_wall(lam)
    closed = sl3_euler_closed(lam)
    if wall != closed:
        yield _fail(
            "sl3_euler_wall_vs_closed", _at(lam), f"wall={wall}, closed={closed}"
        )
    cell = symbolic_cell(lam.m1 % 12, lam.m2 % 12).evaluate(lam.m1, lam.m2)
    if cell != closed:
        yield _fail("euler_cell_vs_closed", _at(lam), f"cell={cell}, closed={closed}")


def gl2_at(m: int) -> Iterator[dict]:
    """GL2 rational sums against the closed forms, and the SL2 splitting."""
    for t in (0, 1):
        wall = gl2_euler_wall(m, t)
        closed = gl2_euler(m, t)
        if wall != closed:
            yield _fail(
                "gl2_euler_wall_vs_closed",
                {"m": m, "det_twist": t},
                f"wall={wall}, closed={closed}",
            )
    if sl2_euler(m) != gl2_euler(m, 0) + gl2_euler(m, 1):
        yield _fail("sl2_additivity", {"m": m}, "sl2 != gl2(0) + gl2(1)")
    if m > 0 and m % 2 == 0 and -gl2_euler_wall(m, 0) != dim_cusp_forms(m + 2):
        yield _fail("gl2_h1_dimension", {"m": m}, "-chi does not equal dim S_{m+2}")


# the Weyl group automorphism induced by swapping m1 and m2
_SWAP = {"e": "e", "s1": "s2", "s2": "s1", "s1s2": "s2s1", "s2s1": "s1s2",
         "s1s2s1": "s1s2s1"}

# (a, n) of w . (m1, m2) on the Levi of P1 or P2 for each Kostant
# representative w, transcribed by hand
_LEVI_AN = {
    ("P1", "e"): lambda m1, m2: (m2, -2 * m1 - m2),
    ("P1", "s1"): lambda m1, m2: (m1 + m2 + 1, m1 - m2 + 3),
    ("P1", "s1s2"): lambda m1, m2: (m1, m1 + 2 * m2 + 6),
    ("P2", "e"): lambda m1, m2: (m1, m1 + 2 * m2),
    ("P2", "s2"): lambda m1, m2: (m1 + m2 + 1, m1 - m2 - 3),
    ("P2", "s2s1"): lambda m1, m2: (m2, -2 * m1 - m2 - 6),
}


def survivors_at(lam: HighestWeight) -> Iterator[dict]:
    """Levi weights match the table, survivors' are even; reflection symmetry."""
    sets = survivor_sets(lam)
    for p in (P1, P2):
        for w in kostant_set(p):
            r = restrict_to_levi(w, lam, p)
            if r.n % 2 != 0 and w in sets[p]:
                yield _fail(
                    "survivor_parity",
                    _at(lam, parabolic=p.tag, w=w.name),
                    f"survivor has (a, n) = ({r.a}, {r.n})",
                )
            a, n = _LEVI_AN[p.tag, w.name](lam.m1, lam.m2)
            if r != (a, n):
                yield _fail(
                    "levi_weight",
                    _at(lam, parabolic=p.tag, w=w.name),
                    f"restrict_to_levi gives (a, n) = ({r.a}, {r.n}), "
                    f"table ({a}, {n})",
                )
    mirror = survivor_sets(lam.dual())
    pairs = ((sets[P1], mirror[P2]), (sets[P2], mirror[P1]), (sets[P0], mirror[P0]))
    for ws, mirrored in pairs:
        if sorted([_SWAP[w.name] for w in ws]) != sorted([w.name for w in mirrored]):
            yield _fail(
                "survivor_reflection",
                _at(lam),
                "survivor sets do not mirror under (m1, m2) swap",
            )
            break


def boundary_at(lam: HighestWeight) -> Iterator[dict]:
    """Spectral sequence output equals the closed case formulas."""
    built = boundary_profile(lam, cross_check=False)
    expected = case_profile(lam)
    # equal profiles agree in every degree: walk the degrees only if not
    for q in range(5) if built != expected else ():
        if built.summands(q) != expected.summands(q):
            yield _fail(
                "boundary_profile_vs_case_formula",
                _at(lam, q=q),
                f"assembled {built.multiset(q)}, case formula {expected.multiset(q)}",
            )
    chi = built.euler_characteristic()
    closed = 2 * sl3_euler_closed(lam)
    if chi != closed:
        yield _fail(
            "boundary_euler_closed",
            _at(lam),
            f"profile chi {chi} != closed form {closed}",
        )


def identities_at(lam: HighestWeight) -> Iterator[dict]:
    """The Eisenstein/boundary/Euler identity suite, H^1_Eis = 0, and duality."""
    eis, dual = eisenstein_case_profile(lam), lam.dual()
    for name, ok in _identities(lam, eis, dual).items():
        if not ok:
            yield _fail(name, _at(lam), "identity fails")
    if eis.summands(1):
        yield _fail("eisenstein_h1_vanishes", _at(lam), f"H^1_Eis is {eis.multiset(1)}")
    bd = case_profile(lam)
    dims, dual_dims = bd.dimensions(), case_profile(dual).dimensions()
    for q in range(5):
        if dims[q] != dual_dims[4 - q]:
            yield _fail(
                "boundary_duality",
                _at(lam, q=q),
                f"dim H^{q} = {dims[q]} but dual dim H^{4 - q} = {dual_dims[4 - q]}",
            )
    # each degree 0..3 where H_Eis has summands
    for q, summands in eis.by_degree:
        bd_ms = bd.multiset(q)
        for k, m in summands if 0 <= q <= 3 else ():
            if m > bd_ms.get(k, 0):
                yield _fail(
                    "eisenstein_inside_boundary",
                    _at(lam, q=q),
                    f"Eisenstein {dict(summands)} not inside boundary {bd_ms}",
                )
                break


def ghosts_at(lam: HighestWeight) -> Iterator[dict]:
    """Ghost statuses: undetermined exactly in degree 2 of cases 6 and 7."""
    case = case_classifier(lam)
    for q, status in ghost_report(lam).items():
        want = UNDETERMINED if (q == 2 and case in (6, 7)) else ZERO
        if status != want:
            yield _fail(
                "ghost_support", _at(lam, q=q), f"status {status}, expected {want}"
            )


@lru_cache(maxsize=1)
def _square(max_weight: int) -> tuple[HighestWeight, ...]:
    """The weights 0 <= m1, m2 <= max_weight, row by row, built once per bound."""
    return tuple(starmap(HighestWeight, product(range(max_weight + 1), repeat=2)))


def _sweep(weights, *comparisons) -> list[dict]:
    """The failures of each comparison at each weight, in that order."""
    return [f for lam in weights for at in comparisons for f in at(lam)]


def _on_square(at):
    """The check family that runs at over the square up to max_weight."""
    return lambda max_weight, seed: _sweep(_square(max_weight), at)


def kostant(max_weight: int, seed: int) -> list[dict]:
    """The Kostant sets of the three standard parabolics."""
    failures = []
    for p, want in (
        (P0, ["e", "s1", "s2", "s1s2", "s2s1", "s1s2s1"]),
        (P1, ["e", "s1", "s1s2"]),
        (P2, ["e", "s2", "s2s1"]),
    ):
        got = [w.name for w in kostant_set(p)]
        if got != want:
            failures.append(_fail("kostant_set", {"parabolic": p.tag}, f"got {got}"))
    return failures


def random_spots(max_weight: int, seed: int) -> list[dict]:
    """The trace, euler, boundary and identity comparisons at seeded large weights."""
    draw = random.Random(seed).randrange
    top = 12 * max(max_weight, 1)
    spots = [HighestWeight(draw(top), draw(top)) for _ in range(SPOT_COUNT)]
    return [
        _fail(f["check"], {**f["params"], "spot": True}, f["detail"])
        for f in _sweep(spots, traces_at, euler_at, boundary_at, identities_at)
    ]


CHECKS = (
    ("kostant", kostant),
    ("trace_routes", _on_square(traces_at)),
    ("euler_routes", _on_square(euler_at)),
    ("gl2_routes", lambda max_weight, seed: _sweep(range(max_weight + 1), gl2_at)),
    ("survivors", _on_square(survivors_at)),
    ("boundary_assembly", _on_square(boundary_at)),
    ("identities", _on_square(identities_at)),
    ("ghosts", _on_square(ghosts_at)),
    ("random_spots", random_spots),
)


def run_all(max_weight: int = 60, seed: int = 0) -> dict:
    """Run every check family up to max_weight; returns a summary report."""
    if type(max_weight) is not int:
        raise TypeError(f"max_weight must be an int, got {max_weight!r}")
    if type(seed) is not int:
        raise TypeError(f"seed must be an int, got {seed!r}")
    if max_weight < 0:
        raise ValueError(f"max_weight must be >= 0, got {max_weight}")
    failures = []
    families = {}
    for name, fn in CHECKS:
        try:
            fam_failures = fn(max_weight, seed)
        except Exception as exc:  # a route that raises is a failure, not a crash
            detail = f"{type(exc).__name__}: {exc}"
            fam_failures = [_fail(f"{name}_raised", {"family": name}, detail)]
        families[name] = {"failures": len(fam_failures)}
        failures.extend(fam_failures)
    return {
        "max_weight": max_weight,
        "seed": seed,
        "families": families,
        "failures": failures,
        "ok": not failures,
    }
