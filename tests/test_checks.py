"""The cross-route verification suite, and injected faults in every family."""
import dataclasses
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from sl3coh import (
    CrossCheckError,
    boundary,
    checks,
    eisenstein,
    euler,
    gl2,
    parity,
    rootsystem,
    traces,
)
from sl3coh.boundary import TRIVIAL, GradedProfile
from sl3coh.checks import CHECKS, run_all
from sl3coh.eisenstein import ZERO
from sl3coh.rootsystem import HighestWeight, WeylElement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_run_all_is_green():
    report = run_all(max_weight=10, seed=1)
    assert report["ok"]
    assert report["failures"] == []
    assert report["max_weight"] == 10
    assert report["seed"] == 1
    assert set(report["families"]) == {name for name, _ in CHECKS}
    assert all(v == {"failures": 0} for v in report["families"].values())


def test_run_all_rejects_negative_bound():
    with pytest.raises(ValueError):
        run_all(max_weight=-1)


def _corrupted_m6():
    # shift one entry of the order-6 periodicity table by 6: the shift keeps
    # the rational torsion sums integral, so the fault surfaces as failure
    # records instead of tripping an internal integrality assert
    return tuple(
        tuple(7 if (i, j) == (0, 0) else v for j, v in enumerate(row))
        for i, row in enumerate(traces.M6)
    )


def test_injected_table_fault_is_caught(monkeypatch):
    monkeypatch.setattr(traces, "M6", _corrupted_m6())
    assert traces.closed_trace(0, 0, 0, 6) == 7
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert "gt_trace_vs_closed_trace" in names
    for record in report["failures"]:
        assert set(record) == {"check", "params", "detail"}
    hits = [
        f
        for f in report["failures"]
        if f["check"] == "gt_trace_vs_closed_trace" and f["params"]["k"] == 6
    ]
    assert any(
        f["params"]["m1"] % 6 == 0 and f["params"]["m2"] % 6 == 0 for f in hits
    )


def test_injected_fault_leaves_other_orders_alone(monkeypatch):
    monkeypatch.setattr(traces, "M6", _corrupted_m6())
    failures = dict(CHECKS)["trace_routes"](6, 0)
    assert failures
    assert all(f["params"]["k"] == 6 for f in failures)
    assert all(f["check"] == "gt_trace_vs_closed_trace" for f in failures)


@pytest.fixture
def cold_h_row():
    # _h_row caches its values, so a fault in the counts underneath it
    # shows only on a cold cache, and must not outlive the test
    traces._h_row.cache_clear()
    yield
    traces._h_row.cache_clear()


def test_injected_h_row_fault_is_caught(monkeypatch, cold_h_row):
    clean = traces._h_counts

    def corrupted(m, k):
        counts = clean(m, k)
        if k == 6 and m % 6 == 1:
            counts[0] += 1
        return counts

    monkeypatch.setattr(traces, "_h_counts", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert names == {"gt_trace_vs_weyl_det_trace"}
    assert all(f["params"]["k"] == 6 for f in report["failures"])


def _bump_gt_counts(monkeypatch, hit, residue=0):
    # one more basis vector at exponent residue mod k wherever hit holds
    clean = traces._gt_counts

    def corrupted(m1, m2, m3, k):
        counts = clean(m1, m2, m3, k)
        if hit(m1, m2, m3, k):
            counts[residue] += 1
        return counts

    monkeypatch.setattr(traces, "_gt_counts", corrupted)


def test_injected_gt_trace_fault_is_caught(monkeypatch):
    _bump_gt_counts(
        monkeypatch, lambda m1, m2, m3, k: k == 6 and (m1 % 6, m2 % 6) == (1, 1)
    )
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert "gt_trace_vs_closed_trace" in names
    hits = [f for f in report["failures"] if f["check"] == "gt_trace_vs_closed_trace"]
    assert {(f["params"]["m1"], f["params"]["m2"], f["params"]["k"]) for f in hits} == {
        (1, 1, 6)
    }


def test_injected_weyl_action_fault_is_caught(monkeypatch, cold_boundary_caches):
    clean = WeylElement.dot

    def corrupted(self, lam):
        c1, c2, c3 = clean(self, lam)
        # moves the P1 Levi weight of s1 . lam by (2, 2): parities stay,
        # the cusp weight of the face term does not
        return (c1, c2 + 2, c3) if self.name == "s1" else (c1, c2, c3)

    monkeypatch.setattr(WeylElement, "dot", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert names & {"survivor_parity", "boundary_profile_vs_case_formula"}
    assert "levi_weight" in names
    assert names <= {
        "survivor_parity",
        "survivor_reflection",
        "levi_weight",
        "boundary_profile_vs_case_formula",
        "boundary_euler_closed",
    }


def _shift_dot(monkeypatch, name, shift):
    clean = WeylElement.dot

    def corrupted(self, lam):
        c = clean(self, lam)
        return tuple(a + b for a, b in zip(c, shift)) if self.name == name else c

    monkeypatch.setattr(WeylElement, "dot", corrupted)


@pytest.mark.parametrize(
    "name, shift, error",
    [
        # d1 of (1, 0) in degree 1 gets two targets: CrossCheckError
        ("s1", (1, 0, 0), "CrossCheckError"),
        # a Levi weight with a < 0: ValueError from GL2Weight
        ("e", (0, 2, 0), "ValueError"),
    ],
)
def test_a_route_that_raises_is_recorded(monkeypatch, cold_boundary_caches, name, shift, error):
    _shift_dot(monkeypatch, name, shift)
    report = run_all(max_weight=6)
    assert not report["ok"]
    # every family ran, including those after the one that raised
    assert list(report["families"]) == [family for family, _ in CHECKS]
    raised = [f for f in report["failures"] if f["check"].endswith("_raised")]
    assert raised
    for record in raised:
        family = record["check"][: -len("_raised")]
        assert record["params"] == {"family": family}
        assert record["detail"].startswith(f"{error}: ")
    assert "boundary_assembly_raised" in {f["check"] for f in raised}
    # each raising family counts one failure
    for family, info in report["families"].items():
        own = [f for f in report["failures"] if f["check"] == f"{family}_raised"]
        if own:
            assert info["failures"] == 1


def test_a_rank_with_no_line_to_map_is_recorded(monkeypatch):
    # d1 onto every minimal-face line, also where column 0 has no trivial line
    monkeypatch.setattr(boundary, "d1_rank", lambda lam, col0, col1, q: 1)
    report = run_all(max_weight=6)
    checks = [f["check"] for f in report["failures"]]
    assert checks == ["boundary_assembly_raised", "random_spots_raised"]
    for record in report["failures"]:
        assert record["detail"].startswith("CrossCheckError: rank 1 with no line to map")


def test_cross_check_error_is_an_assertion_error():
    assert issubclass(CrossCheckError, AssertionError)


def test_cross_checks_raise_under_python_O():
    # plain asserts vanish under -O; the cross-checks must not
    script = textwrap.dedent(
        """
        import sys
        from sl3coh import CrossCheckError, HighestWeight, boundary, euler

        if sys.flags.optimize != 1:
            raise SystemExit("not running under -O")
        lam = HighestWeight(2, 4)
        wrong = boundary.case_profile(HighestWeight(2, 6))
        boundary.case_profile = lambda lam: wrong
        try:
            boundary.boundary_profile(lam)
        except CrossCheckError:
            print("boundary_profile raised")
        euler.sl3_euler_closed = lambda lam: 99
        try:
            euler.euler_report(lam)
        except CrossCheckError:
            print("euler_report raised")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [
        "boundary_profile raised",
        "euler_report raised",
    ]


@pytest.mark.parametrize(
    "name, shift",
    [
        # each moves n of one Levi weight by 4 and keeps every parity
        ("s1", (2, 0, 0)),
        ("s2", (0, 0, 2)),
        ("s2s1", (0, 0, 2)),
        ("s1s2", (2, 0, 0)),
    ],
)
def test_levi_coordinate_n_is_pinned(monkeypatch, cold_boundary_caches, name, shift):
    _shift_dot(monkeypatch, name, shift)
    report = run_all(max_weight=6)
    assert not report["ok"]
    levi = [f for f in _by_family(report)["survivors"] if f["check"] == "levi_weight"]
    assert levi
    assert {f["params"]["w"] for f in levi} == {name}


def _replace_route(monkeypatch, clean, corrupted):
    # routes are imported by name into other modules: replace every copy
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sl3coh"]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if obj is clean:
                monkeypatch.setattr(module, attr, corrupted)


def _case_profile_fault(monkeypatch):
    clean = boundary.case_profile

    def corrupted(lam):
        profile = clean(lam)
        if parity.case_classifier(lam) != 5:
            return profile
        # case 5 without its degree-2 block
        kept = tuple((q, s) for q, s in profile.by_degree if q != 2)
        return GradedProfile(by_degree=kept)

    _replace_route(monkeypatch, clean, corrupted)


def _eisenstein_fault(monkeypatch):
    clean = eisenstein.eisenstein_case_profile

    def corrupted(lam):
        profile = clean(lam)
        if parity.case_classifier(lam) != 4:
            return profile
        # case 4 without its degree-3 trivial line
        data = {q: [x for x in s if x.kind != TRIVIAL] for q, s in profile.by_degree}
        return GradedProfile.build(data)

    _replace_route(monkeypatch, clean, corrupted)


def _symbolic_cell_fault(monkeypatch):
    clean = euler.symbolic_cell

    def corrupted(i, j):
        cell = clean(i, j)
        if cell.kind != "sum":
            return cell
        # every cell with both residues even is one too high
        return dataclasses.replace(cell, shift=cell.shift + 1)

    _replace_route(monkeypatch, clean, corrupted)


def _torsion_class_fault(monkeypatch, extra=4):
    # the order-4 class counted extra more times: with 4 the sum stays
    # integral, with 1 it does not
    classes = tuple(
        dataclasses.replace(c, resultant=c.resultant + extra) if c.order == 4 else c
        for c in euler.SL3_TORSION_CLASSES
    )
    monkeypatch.setattr(euler, "SL3_TORSION_CLASSES", classes)


def _gl2_euler_fault(monkeypatch):
    clean = gl2.gl2_euler

    def corrupted(m, det_twist):
        return clean(m, det_twist) + (m == 4 and det_twist == 0)

    _replace_route(monkeypatch, clean, corrupted)


def _sl2_euler_fault(monkeypatch):
    clean = gl2.sl2_euler
    _replace_route(monkeypatch, clean, lambda m: clean(m) + (m == 4))


def _cusp_dimension_fault(monkeypatch):
    # only the comparison's own copy: the profiles keep the clean dimensions
    clean = gl2.dim_cusp_forms
    monkeypatch.setattr(checks, "dim_cusp_forms", lambda k: clean(k) + (k == 6))


def _zeta_table_fault(monkeypatch):
    # zeta_6^3 read as +1 instead of -1: the zeta_6 column is untouched, so
    # every order-6 trace stays an integer, only a wrong one
    powers = list(traces._ZETA_POWERS[6])
    powers[3] = (1, 0)
    monkeypatch.setitem(traces._ZETA_COLUMNS, 6, tuple(zip(*powers)))


def _gt_m3_fault(monkeypatch):
    _bump_gt_counts(monkeypatch, lambda m1, m2, m3, k: (m3, k) == (1, 3))


def _survivor_parity_fault(monkeypatch):
    # the rule without its "n even" clause
    _replace_route(
        monkeypatch, gl2.survives, lambda w: w.a != 0 or (w.n // 2) % 2 == 0
    )


def _survivor_a0_fault(monkeypatch):
    # the rule without its "a = 0 => n/2 even" clause
    _replace_route(monkeypatch, gl2.survives, lambda w: w.n % 2 == 0)


def _ghost_rule_fault(monkeypatch):
    clean = eisenstein.ghost_report

    def corrupted(lam):
        report = clean(lam)
        if parity.case_classifier(lam) != 7:
            return report
        # the degree-2 line of case 7 reported as zero
        return {**report, 2: ZERO}

    _replace_route(monkeypatch, clean, corrupted)


def _kostant_set_fault(monkeypatch):
    clean = rootsystem.Parabolic.nilradical_roots

    def corrupted(p):
        # P1's nilradical without alpha1 + alpha2
        roots = clean(p)
        if p.tag != "P1":
            return roots
        return tuple(r for r in roots if r != rootsystem.ALPHA12)

    monkeypatch.setattr(rootsystem.Parabolic, "nilradical_roots", corrupted)
    rootsystem.kostant_set.cache_clear()


def _e1_degree_fault(monkeypatch):
    # s1s2 one longer: its P1 face terms land in E1 degree 4
    def length(w):
        return len(w.reduced_word) + (w.name == "s1s2")

    monkeypatch.setattr(WeylElement, "length", property(length))


def _by_family(report):
    # the records come family by family, in the order of CHECKS
    out, start = {}, 0
    for family, info in report["families"].items():
        out[family] = report["failures"][start : start + info["failures"]]
        start += info["failures"]
    assert start == len(report["failures"])
    return out


@pytest.mark.parametrize(
    "fault, family, check, spot",
    [
        (
            _case_profile_fault,
            "boundary_assembly",
            "boundary_profile_vs_case_formula",
            True,
        ),
        (_case_profile_fault, "identities", "boundary_duality", True),
        (_case_profile_fault, "identities", "eisenstein_inside_boundary", True),
        (_eisenstein_fault, "identities", "chi_eis_equals_chi_h", True),
        (_symbolic_cell_fault, "euler_routes", "euler_cell_vs_closed", True),
        (_torsion_class_fault, "euler_routes", "sl3_euler_wall_vs_closed", True),
        (_gl2_euler_fault, "gl2_routes", "gl2_euler_wall_vs_closed", False),
        (_sl2_euler_fault, "gl2_routes", "sl2_additivity", False),
        (_cusp_dimension_fault, "gl2_routes", "gl2_h1_dimension", False),
        (_zeta_table_fault, "trace_routes", "gt_trace_vs_closed_trace", False),
        (_gt_m3_fault, "trace_routes", "gt_trace_m3_independence", False),
        (_survivor_parity_fault, "survivors", "survivor_parity", False),
        (
            _survivor_a0_fault,
            "boundary_assembly",
            "boundary_profile_vs_case_formula",
            False,
        ),
        (_ghost_rule_fault, "ghosts", "ghost_support", False),
        (_kostant_set_fault, "kostant", "kostant_set", False),
        (
            _e1_degree_fault,
            "boundary_assembly",
            "boundary_assembly_raised",
            False,
        ),
    ],
    ids=[
        "case_profile",
        "case_profile_duality",
        "case_profile_eisenstein_inside",
        "eisenstein_case_profile",
        "symbolic_cell",
        "torsion_class",
        "gl2_euler",
        "sl2_euler",
        "cusp_dimension",
        "zeta_table",
        "gt_m3",
        "survivor_parity",
        "survivor_a0",
        "ghost_rule",
        "kostant_set",
        "e1_degree",
    ],
)
def test_each_family_fails_when_its_route_is_corrupted(
    monkeypatch, cold_boundary_caches, cold_h_row, fault, family, check, spot
):
    fault(monkeypatch)
    report = run_all(max_weight=6)
    assert not report["ok"]
    records = _by_family(report)
    names = {f["check"] for f in records[family]}
    assert check in names
    # spot checks run the euler, boundary and identity comparisons
    spots = records["random_spots"]
    assert all(
        f["params"].get("spot") is True or f["check"] == "random_spots_raised"
        for f in spots
    )
    if spot:
        assert check in {f["check"] for f in spots}


def test_the_survivor_parity_fault_fires_only_survivor_parity(
    monkeypatch, cold_boundary_caches
):
    # survives without its "n even" clause: only the n parity of a
    # survivor's Levi weight can be wrong, GL2Weight checks a >= 0 and a = n
    _survivor_parity_fault(monkeypatch)
    names = {f["check"] for f in dict(CHECKS)["survivors"](6, 0)}
    assert names == {"survivor_parity"}


def _flagged(records, check):
    return {
        (f["params"]["m1"], f["params"]["m2"], f["params"]["k"])
        for f in records
        if f["check"] == check
    }


def test_a_zeta_power_fault_reaches_one_counting_route(monkeypatch, cold_h_row):
    # gt_trace evaluates its counts at the powers of zeta_k, weyl_det_trace
    # at its own cosines: a wrong power shows against both other routes
    _zeta_table_fault(monkeypatch)
    records = dict(CHECKS)["trace_routes"](6, 0)
    closed = _flagged(records, "gt_trace_vs_closed_trace")
    assert closed
    assert closed == _flagged(records, "gt_trace_vs_weyl_det_trace")


def _gt_zeta_fault(monkeypatch):
    _bump_gt_counts(monkeypatch, lambda m1, m2, m3, k: (m1, m2, k) == (2, 2, 3), 1)


def _h_counts_asymmetry_fault(monkeypatch):
    # one more monomial at exponent 1 and none at -1: h_m would not be real
    clean = traces._h_counts

    def corrupted(m, k):
        counts = clean(m, k)
        counts[1] += 1
        return counts

    monkeypatch.setattr(traces, "_h_counts", corrupted)


def _gl2_class_weight_fault(monkeypatch):
    # the order-4 class of GL2(Z) weighted 1/2 instead of 1/4; its weight
    # is an inline literal, so the fault goes through gl2's Fraction
    def corrupted(numerator, denominator=1):
        if (numerator, denominator) == (1, 4):
            return Fraction(1, 2)
        return Fraction(numerator, denominator)

    monkeypatch.setattr(gl2, "Fraction", corrupted)


def test_gl2_torsion_sum_outside_the_integers_raises(monkeypatch):
    _gl2_class_weight_fault(monkeypatch)
    with pytest.raises(CrossCheckError) as err:
        gl2.gl2_euler_wall(0, 0)
    assert str(err.value) == "GL2 torsion sum at m=0, det_twist=0 is 5/4"


@pytest.mark.parametrize(
    "fault, family, detail",
    [
        (
            lambda mp: _torsion_class_fault(mp, extra=1),
            "euler_routes",
            "CrossCheckError: torsion sum at HighestWeight(m1=0, m2=0, m3=None) "
            "is 5/4, not an integer",
        ),
        (_gt_zeta_fault, "trace_routes", "ValueError: 0 + 1 zeta_3 is not an integer"),
        (
            _gl2_class_weight_fault,
            "gl2_routes",
            "CrossCheckError: GL2 torsion sum at m=0, det_twist=0 is 5/4",
        ),
        (
            _h_counts_asymmetry_fault,
            "trace_routes",
            "ValueError: exponent counts [1, 1, 0] of h_0 are not symmetric",
        ),
    ],
    ids=["torsion_sum", "zeta_sum", "gl2_torsion_sum", "h_counts_symmetry"],
)
def test_a_sum_outside_the_integers_is_recorded(
    monkeypatch, cold_h_row, fault, family, detail
):
    fault(monkeypatch)
    records = _by_family(run_all(max_weight=6))[family]
    assert [f["check"] for f in records] == [f"{family}_raised"]
    assert records[0]["detail"] == detail


def test_per_weight_caches_stay_bounded_and_shared(cold_boundary_caches):
    run_all(max_weight=12)
    info = boundary.e1_page.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 13 * 13
    # both weights are case 4, so their survivor sets are equal
    shared = parity.survivor_sets(HighestWeight(2, 4))
    assert shared is parity.survivor_sets(HighestWeight(4, 2))
    square = range(13)
    mappings = {id(parity.survivor_sets(HighestWeight(m1, m2))) for m1 in square for m2 in square}
    assert len(mappings) == 9
    with pytest.raises(TypeError):
        shared[rootsystem.P0] = ()
