"""Acceptance suite: the seven headline guarantees, checked end to end.

Each criterion prints one PASS/FAIL line.  Criteria 2-7 run the verify
check families at their own bounds, plus pins; all comparisons are exact,
and the only tolerances are the wall-clock budgets of criteria 1 and 2.
"""
import time

from sl3coh import checks
from sl3coh.boundary import case_profile
from sl3coh.euler import sl3_euler_closed, symbolic_table
from sl3coh.gl2 import dim_cusp_forms
from sl3coh.rootsystem import HighestWeight

FAMILIES = dict(checks.CHECKS)

# the full 12 x 12 symbolic Euler table, rows m1 mod 12, columns m2 mod 12,
# transcribed by hand and pinned verbatim
PINNED_TABLE = (
    ("-(m1+m2)/12 + 1", "(m2-1)/12 + 1", "-(m1+m2-2)/12", "(m2-3)/12 + 1",
     "-(m1+m2-4)/12", "(m2-5)/12 + 1", "-(m1+m2-6)/12", "(m2-7)/12 + 1",
     "-(m1+m2-8)/12", "(m2-9)/12 + 2", "-(m1+m2-10)/12 - 1", "(m2-11)/12 + 1"),
    ("(m1-1)/12 + 1", "0", "(m1-1)/12", "0",
     "(m1-1)/12", "0", "(m1-1)/12", "0",
     "(m1-1)/12 + 1", "0", "(m1-1)/12 - 1", "0"),
    ("-(m1+m2-2)/12", "(m2-1)/12", "-(m1+m2-4)/12 - 1", "(m2-3)/12",
     "-(m1+m2-6)/12 - 1", "(m2-5)/12", "-(m1+m2-8)/12 - 1", "(m2-7)/12 + 1",
     "-(m1+m2-10)/12 - 1", "(m2-9)/12", "-(m1+m2-12)/12 - 2", "(m2-11)/12 + 1"),
    ("(m1-3)/12 + 1", "0", "(m1-3)/12", "0",
     "(m1-3)/12", "0", "(m1-3)/12 + 1", "0",
     "(m1-3)/12", "0", "(m1-3)/12", "0"),
    ("-(m1+m2-4)/12", "(m2-1)/12", "-(m1+m2-6)/12 - 1", "(m2-3)/12",
     "-(m1+m2-8)/12 - 1", "(m2-5)/12 + 1", "-(m1+m2-10)/12 - 1", "(m2-7)/12",
     "-(m1+m2-12)/12 - 1", "(m2-9)/12 + 1", "-(m1+m2-14)/12 - 2", "(m2-11)/12 + 1"),
    ("(m1-5)/12 + 1", "0", "(m1-5)/12", "0",
     "(m1-5)/12 + 1", "0", "(m1-5)/12", "0",
     "(m1-5)/12 + 1", "0", "(m1-5)/12", "0"),
    ("-(m1+m2-6)/12", "(m2-1)/12", "-(m1+m2-8)/12 - 1", "(m2-3)/12 + 1",
     "-(m1+m2-10)/12 - 1", "(m2-5)/12", "-(m1+m2-12)/12 - 1", "(m2-7)/12 + 1",
     "-(m1+m2-14)/12 - 1", "(m2-9)/12 + 1", "-(m1+m2-16)/12 - 2", "(m2-11)/12 + 1"),
    ("(m1-7)/12 + 1", "0", "(m1-7)/12 + 1", "0",
     "(m1-7)/12", "0", "(m1-7)/12 + 1", "0",
     "(m1-7)/12 + 1", "0", "(m1-7)/12", "0"),
    ("-(m1+m2-8)/12", "(m2-1)/12 + 1", "-(m1+m2-10)/12 - 1", "(m2-3)/12",
     "-(m1+m2-12)/12 - 1", "(m2-5)/12 + 1", "-(m1+m2-14)/12 - 1", "(m2-7)/12 + 1",
     "-(m1+m2-16)/12 - 1", "(m2-9)/12 + 1", "-(m1+m2-18)/12 - 2", "(m2-11)/12 + 1"),
    ("(m1-9)/12 + 2", "0", "(m1-9)/12", "0",
     "(m1-9)/12 + 1", "0", "(m1-9)/12 + 1", "0",
     "(m1-9)/12 + 1", "0", "(m1-9)/12", "0"),
    ("-(m1+m2-10)/12 - 1", "(m2-1)/12 - 1", "-(m1+m2-12)/12 - 2", "(m2-3)/12",
     "-(m1+m2-14)/12 - 2", "(m2-5)/12", "-(m1+m2-16)/12 - 2", "(m2-7)/12",
     "-(m1+m2-18)/12 - 2", "(m2-9)/12", "-(m1+m2-20)/12 - 3", "(m2-11)/12 + 1"),
    ("(m1-11)/12 + 1", "0", "(m1-11)/12 + 1", "0",
     "(m1-11)/12 + 1", "0", "(m1-11)/12 + 1", "0",
     "(m1-11)/12 + 1", "0", "(m1-11)/12 + 1", "0"),
)


def _verdict(n: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {n}: {status} - {label}")
    assert not failures, (label, failures[:10])


def test_criterion_1_symbolic_euler_table():
    start = time.monotonic()
    failures = []
    table = symbolic_table()
    for i in range(12):
        for j in range(12):
            got = table[i][j].render()
            want = PINNED_TABLE[i][j]
            if got != want:
                failures.append(f"cell ({i}, {j}): rendered {got!r}, pinned {want!r}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s, budget 5s")
    _verdict(1, "symbolic Euler table matches the 144 pinned cells", failures)


def test_criterion_2_trace_routes_agree():
    start = time.monotonic()
    failures = FAMILIES["trace_routes"](30, 0)
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _verdict(2, "three trace routes agree up to weight 30", failures)


def test_criterion_3_euler_routes_agree():
    failures = FAMILIES["euler_routes"](240, 0)
    pins = {(0, 0): 1, (10, 0): -1, (0, 11): 1, (3, 7): 0, (1, 1): 0}
    for (m1, m2), want in pins.items():
        got = sl3_euler_closed(HighestWeight(m1, m2))
        if got != want:
            failures.append(f"pin ({m1}, {m2}): {got} != {want}")
    _verdict(3, "torsion sum equals closed Euler form up to weight 240", failures)


def test_criterion_4_boundary_assembly():
    failures = FAMILIES["boundary_assembly"](60, 0)
    trivial = case_profile(HighestWeight(0, 0))
    if [q for q, _ in trivial.by_degree] != [0, 4] or trivial.total_dimension() != 2:
        failures.append("profile of the trivial weight is wrong")
    for m2 in range(1, 61, 2):
        profile = case_profile(HighestWeight(0, m2))
        want = 2 * dim_cusp_forms(m2 + 3) + 2
        if [q for q, _ in profile.by_degree] != [2] or profile.dimensions()[2] != want:
            failures.append(f"(0, {m2}): expected dim {want} in degree 2 only")
    _verdict(4, "spectral sequence equals the case formulas up to weight 60", failures)


def test_criterion_5_identity_suite():
    failures = FAMILIES["identities"](60, 0)
    _verdict(5, "Eisenstein/boundary/Euler identities hold up to weight 60", failures)


def test_criterion_6_gl2_routes_agree():
    failures = FAMILIES["gl2_routes"](240, 0)
    _verdict(6, "GL2 rational sum equals closed form up to weight 240", failures)


def test_criterion_7_ghost_statuses():
    failures = FAMILIES["ghosts"](60, 0)
    _verdict(7, "ghost classes vanish except the undetermined degree-2 line", failures)
