"""The cross-route verification suite, and injected faults in every family."""
import ast
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from operator import add
from pathlib import Path

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


def _h_bump(k, e):
    # one more monomial at exponent e, in the coordinates of _h_coordinates:
    # 2 cos(2 pi e / k) on the cosine sum, and +1 on count_e - count_-e (or
    # -1 on the difference at -e) unless e = -e mod k
    bump = [traces._TWO_COS[k][e]] + [0] * ((k - 1) // 2)
    if 2 * e != k and e:
        bump[min(e, k - e)] += 1 if 2 * e < k else -1
    return bump


def _bump_h_counts(monkeypatch, hit, residue):
    # one more monomial at exponent residue mod k wherever hit holds
    clean = traces._h_coordinates

    def corrupted(m, k):
        coordinates = clean(m, k)
        if hit(m, k):
            coordinates = list(map(add, coordinates, _h_bump(k, residue)))
        return coordinates

    monkeypatch.setattr(traces, "_h_coordinates", corrupted)


def test_injected_h_row_fault_is_caught(monkeypatch, cold_h_row):
    _bump_h_counts(monkeypatch, lambda m, k: k == 6 and m % 6 == 1, 0)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert names == {"gt_trace_vs_weyl_det_trace"}
    assert all(f["params"]["k"] == 6 for f in report["failures"])


def _bump_gt_counts(monkeypatch, hit, residue=0):
    # one more basis vector at exponent residue mod k wherever hit holds:
    # the coordinates move by zeta_k^residue
    clean = traces._gt_coordinates

    def corrupted(m1, m2, m3, k):
        coordinates = clean(m1, m2, m3, k)
        if hit(m1, m2, m3, k):
            coordinates = list(map(add, coordinates, traces._ZETA_POWERS[k][residue]))
        return coordinates

    monkeypatch.setattr(traces, "_gt_coordinates", corrupted)


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
    # case 5 without its degree-2 block
    monkeypatch.delitem(boundary.BOUNDARY_CASES[5], 2)


def _eisenstein_fault(monkeypatch):
    # case 4 without its degree-3 trivial line
    monkeypatch.setitem(eisenstein.EISENSTEIN_CASES[4], 3, ("m1+2", "m2+2"))


def _move_to_degree_1(monkeypatch, row, q, i):
    # the i-th summand of degree q of a case-table row moved to degree 1
    entries = row[q]
    monkeypatch.setitem(row, q, entries[:i] + entries[i + 1 :])
    monkeypatch.setitem(row, 1, row.get(1, ()) + entries[i : i + 1])


def _eisenstein_h1_fault(case, i):
    # H^1_Eis = 0 is the only check that sees a degree-3 summand in degree 1
    row = eisenstein.EISENSTEIN_CASES[case]
    return lambda monkeypatch: _move_to_degree_1(monkeypatch, row, 3, i)


def _table_mutants():
    # each entry of both case tables dropped, its k raised by 2 (a trivial
    # line has none) and moved to degree 1 (unless it is there already)
    for name, table in (
        ("boundary", boundary.BOUNDARY_CASES),
        ("eisenstein", eisenstein.EISENSTEIN_CASES),
    ):
        for case, row in table.items():
            for q, entries in row.items():
                for i, s in enumerate(entries):
                    at = f"{name}-case{case}-H{q}-{i}"
                    yield pytest.param(row, q, i, "drop", id=f"{at}-drop")
                    if s != "1":
                        yield pytest.param(row, q, i, "raise", id=f"{at}-raise")
                    if q != 1:
                        yield pytest.param(row, q, i, "move", id=f"{at}-move")


@pytest.mark.parametrize("row, q, i, how", _table_mutants())
def test_every_case_table_entry_is_load_bearing(
    monkeypatch, cold_boundary_caches, row, q, i, how
):
    if how == "move":
        _move_to_degree_1(monkeypatch, row, q, i)
    else:
        entries = list(row[q])
        form, _, shift = entries.pop(i).rpartition("+")
        if how == "raise":
            entries.insert(i, f"{form}+{int(shift) + 2}")
        monkeypatch.setitem(row, q, tuple(entries))
    # at bound 10 every cusp space of the tables reaches S_12, the first
    # nonzero one, so a dropped cusp space changes some dimension
    families = dict(CHECKS)
    assert families["identities"](10, 0) or families["boundary_assembly"](10, 0)


# the GL2 residue rows and the check that reads each
_GL2_ROWS = {
    "_CUSP_SHIFT": "gl2_h1_dimension",
    "_GL2_EULER": "gl2_euler_wall_vs_closed",
    "_SL2_EULER": "sl2_additivity",
}


def _gl2_row_mutants():
    # each entry of the three rows (two for _GL2_EULER) raised and lowered by 1
    for name, check in _GL2_ROWS.items():
        for t in (0, 1) if name == "_GL2_EULER" else (None,):
            for i in range(6):
                for delta in (1, -1):
                    at = name.strip("_").lower() + ("" if t is None else str(t))
                    yield pytest.param(
                        name, t, i, delta, check, id=f"{at}-{i}-{delta:+d}"
                    )


@pytest.mark.parametrize("name, t, i, delta, check", _gl2_row_mutants())
def test_every_gl2_row_entry_is_load_bearing(monkeypatch, name, t, i, delta, check):
    def bumped(row):
        return row[:i] + (row[i] + delta,) + row[i + 1 :]

    rows = getattr(gl2, name)
    if t is None:
        mutant = bumped(rows)
    else:
        mutant = tuple(bumped(row) if s == t else row for s, row in enumerate(rows))
    monkeypatch.setattr(gl2, name, mutant)
    # at bound 12 the cusp row's first entry is read, at dim S_14
    names = {f["check"] for f in dict(CHECKS)["gl2_routes"](12, 0)}
    assert check in names


_CLOSED = {"gt_trace_vs_closed_trace"}
_GT = {"gt_trace_vs_closed_trace", "gt_trace_vs_weyl_det_trace"}
_RAISED = {"trace_routes_raised"}

# per trace table and order k: the least bound at which trace_routes
# catches a +-1 change of every entry of the table's rows for k, and the
# checks that fire across those mutants
_TRACE_TABLES = [
    ("M3", 3, 2, _CLOSED),
    ("M4", 4, 3, _CLOSED),
    ("M6", 6, 5, _CLOSED),
    ("_GT_PREFIX", 2, 3, _GT),
    ("_GT_PREFIX", 3, 5, _GT | _RAISED),
    ("_GT_PREFIX", 4, 7, _GT | _RAISED),
    ("_GT_PREFIX", 6, 11, _GT | _RAISED),
    ("_ZETA_POWERS", 2, 1, _GT),
    ("_ZETA_POWERS", 3, 1, _GT | _RAISED),
    ("_ZETA_POWERS", 4, 1, _GT | _RAISED),
    ("_ZETA_POWERS", 6, 2, _GT | _RAISED),
    ("_H_ROWS", 2, 5, _RAISED),
    ("_H_ROWS", 3, 8, _RAISED),
    ("_H_ROWS", 4, 11, _RAISED),
    ("_H_ROWS", 6, 17, _RAISED),
    ("_TWO_COS", 2, 1, {"gt_trace_vs_weyl_det_trace"} | _RAISED),
    ("_TWO_COS", 3, 0, _RAISED),
    ("_TWO_COS", 4, 1, {"gt_trace_vs_weyl_det_trace"} | _RAISED),
    ("_TWO_COS", 6, 1, {"gt_trace_vs_weyl_det_trace"} | _RAISED),
]

# the tables a builder reads, and the rows it builds from them
_REBUILT = {"_ZETA_POWERS": ("_GT_PREFIX", "_gt_prefix"), "_TWO_COS": ("_H_ROWS", "_h_rows")}


def _entry_paths(value, path=()):
    # the index paths of the integers in nested tuples
    if isinstance(value, int):
        yield path
    else:
        for i, entry in enumerate(value):
            yield from _entry_paths(entry, path + (i,))


def _bumped(value, path, delta):
    # the nested tuples with the integer at path moved by delta
    if not path:
        return value + delta
    i, *rest = path
    return value[:i] + (_bumped(value[i], rest, delta),) + value[i + 1 :]


@pytest.mark.parametrize(
    "name, k, bound, fired",
    _TRACE_TABLES,
    ids=[f"{name.strip('_')}-k{k}" for name, k, _, _ in _TRACE_TABLES],
)
def test_every_trace_table_entry_is_load_bearing(
    monkeypatch, cold_h_row, name, k, bound, fired
):
    table = getattr(traces, name)
    if isinstance(table, dict):
        # keyed by k, or by (k, residue)
        rows = {
            key: row
            for key, row in table.items()
            if (key[0] if isinstance(key, tuple) else key) == k
        }
    else:
        rows = {None: table}
    # h values are cached: a mutant of an h table must not meet clean ones
    h_side = name in ("_H_ROWS", "_TWO_COS")
    survivors, names = [], set()
    for key, row in rows.items():
        for path in _entry_paths(row):
            for delta in (1, -1):
                with monkeypatch.context() as mp:
                    if key is None:
                        mp.setattr(traces, name, _bumped(row, path, delta))
                    else:
                        mp.setitem(table, key, _bumped(row, path, delta))
                    if name in _REBUILT:
                        built, builder = _REBUILT[name]
                        mp.setattr(traces, built, getattr(traces, builder)())
                    try:
                        got = {f["check"] for f in dict(CHECKS)["trace_routes"](bound, 0)}
                    except CrossCheckError:
                        got = {"trace_routes_raised"}
                    if h_side:
                        traces._h_row.cache_clear()
                if not got:
                    survivors.append((key, path, delta))
                names |= got
    assert survivors == []
    assert names == fired


def _symbolic_cell_fault(monkeypatch):
    clean = euler.symbolic_cell

    def corrupted(i, j):
        cell = clean(i, j)
        if cell.kind != "sum":
            return cell
        # every cell with both residues even is one too high
        return cell._replace(shift=cell.shift + 1)

    _replace_route(monkeypatch, clean, corrupted)


def _torsion_class_fault(monkeypatch, extra=4):
    # the order-4 class counted extra more times: with 4 the sum stays
    # integral, with 1 it does not
    classes = tuple(
        c._replace(resultant=c.resultant + extra) if c.order == 4 else c
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
    monkeypatch.setitem(traces._ZETA_POWERS, 6, tuple(powers))
    monkeypatch.setattr(traces, "_GT_PREFIX", traces._gt_prefix())


def _gt_m3_fault(monkeypatch):
    _bump_gt_counts(monkeypatch, lambda m1, m2, m3, k: (m3, k) == (1, 3))


def _gt_beyond_bound_fault(monkeypatch):
    # wrong only past the sweep bound of run_all(6): the spots must see it
    _bump_gt_counts(monkeypatch, lambda m1, m2, m3, k: k == 3 and m1 > 6)


def _gt_table_fault(monkeypatch):
    # the Q coefficient of G(3 Q + 2) at exponent 0 one too high: the
    # constant's, as zeta_3^0 = 1
    (c3, c2, c1, c0), linear = traces._GT_PREFIX[3, 2]
    monkeypatch.setitem(traces._GT_PREFIX, (3, 2), ((c3, c2, c1 + 1, c0), linear))


def _h_table_fault(monkeypatch):
    # one more monomial at exponent 0 of h_m for k = 6 and m = 1 mod 12:
    # 2 cos 0 = 2 more on the cosine sum
    (c2, c1, c0), *differences = traces._H_ROWS[6, 1]
    monkeypatch.setitem(traces._H_ROWS, (6, 1), ((c2, c1, c0 + 2), *differences))


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


def _kostant_set_fault(monkeypatch, tag="P1"):
    clean = rootsystem.Parabolic.nilradical_roots

    def corrupted(p):
        # the nilradical of the parabolic tag without alpha1 + alpha2
        roots = clean(p)
        if p.tag != tag:
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


def _sl3_euler_closed_fault(monkeypatch):
    # one too high wherever both coordinates are even
    clean = euler.sl3_euler_closed
    _replace_route(
        monkeypatch,
        clean,
        lambda lam: clean(lam) + (lam.m1 % 2 == 0 and lam.m2 % 2 == 0),
    )


def _minimal_survivor_fault(monkeypatch):
    # the P0 rule without its "c2 - c3 even" clause
    def corrupted(w, lam):
        c1, c2, _ = w.dot(lam)
        return (c1 - c2) % 2 == 0

    _replace_route(monkeypatch, parity.minimal_parabolic_survives, corrupted)


def _levi_weight_fault(monkeypatch):
    # n of the P1 Levi weight of s1 . lam moved by 4, every parity kept
    _shift_dot(monkeypatch, "s1", (2, 0, 0))


# (fault, family, check, spot): the fault makes family report check, and
# with spot the seeded spot checks report it too
_FAULT_ROWS = [
    pytest.param(
        _case_profile_fault, "boundary_assembly", "boundary_profile_vs_case_formula", True,
        id="case_profile",
    ),
    pytest.param(
        _case_profile_fault, "identities", "boundary_duality", True,
        id="case_profile_duality",
    ),
    pytest.param(
        _case_profile_fault, "identities", "eisenstein_inside_boundary", True,
        id="case_profile_eisenstein_inside",
    ),
    pytest.param(
        _eisenstein_fault, "identities", "chi_eis_equals_chi_h", True,
        id="eisenstein_case_profile",
    ),
    pytest.param(
        _eisenstein_fault, "identities", "half_boundary", True,
        id="eisenstein_half_boundary",
    ),
    pytest.param(
        _eisenstein_fault, "identities", "poincare_pair", True,
        id="eisenstein_poincare_pair",
    ),
    pytest.param(
        _eisenstein_h1_fault(2, 0), "identities", "eisenstein_h1_vanishes", False,
        id="eisenstein_h1_case2",
    ),
    pytest.param(
        _eisenstein_h1_fault(3, 0), "identities", "eisenstein_h1_vanishes", False,
        id="eisenstein_h1_case3",
    ),
    pytest.param(
        _eisenstein_h1_fault(4, 0), "identities", "eisenstein_h1_vanishes", True,
        id="eisenstein_h1_case4_line",
    ),
    pytest.param(
        _eisenstein_h1_fault(4, 1), "identities", "eisenstein_h1_vanishes", True,
        id="eisenstein_h1_case4_m1",
    ),
    pytest.param(
        _eisenstein_h1_fault(4, 2), "identities", "eisenstein_h1_vanishes", True,
        id="eisenstein_h1_case4_m2",
    ),
    pytest.param(
        _eisenstein_h1_fault(5, 0), "identities", "eisenstein_h1_vanishes", True,
        id="eisenstein_h1_case5",
    ),
    pytest.param(
        _eisenstein_h1_fault(8, 0), "identities", "eisenstein_h1_vanishes", True,
        id="eisenstein_h1_case8",
    ),
    pytest.param(
        _symbolic_cell_fault, "euler_routes", "euler_cell_vs_closed", True,
        id="symbolic_cell",
    ),
    pytest.param(
        _torsion_class_fault, "euler_routes", "sl3_euler_wall_vs_closed", True,
        id="torsion_class",
    ),
    pytest.param(
        _sl3_euler_closed_fault, "boundary_assembly", "boundary_euler_closed", True,
        id="sl3_euler_closed",
    ),
    pytest.param(_gl2_euler_fault, "gl2_routes", "gl2_euler_wall_vs_closed", False, id="gl2_euler"),
    pytest.param(_sl2_euler_fault, "gl2_routes", "sl2_additivity", False, id="sl2_euler"),
    pytest.param(
        _cusp_dimension_fault, "gl2_routes", "gl2_h1_dimension", False,
        id="cusp_dimension",
    ),
    pytest.param(
        _zeta_table_fault, "trace_routes", "gt_trace_vs_closed_trace", True,
        id="zeta_table",
    ),
    pytest.param(_gt_m3_fault, "trace_routes", "gt_trace_m3_independence", True, id="gt_m3"),
    pytest.param(
        _gt_beyond_bound_fault, "random_spots", "gt_trace_vs_closed_trace", True,
        id="gt_beyond_bound_closed",
    ),
    pytest.param(
        _gt_beyond_bound_fault, "random_spots", "gt_trace_vs_weyl_det_trace", True,
        id="gt_beyond_bound_weyl_det",
    ),
    pytest.param(_gt_table_fault, "trace_routes", "gt_trace_vs_closed_trace", True, id="gt_table"),
    pytest.param(_h_table_fault, "trace_routes", "gt_trace_vs_weyl_det_trace", True, id="h_table"),
    pytest.param(
        _survivor_parity_fault, "survivors", "survivor_parity", False,
        id="survivor_parity",
    ),
    pytest.param(
        _minimal_survivor_fault, "survivors", "survivor_reflection", False,
        id="minimal_survivor",
    ),
    pytest.param(_levi_weight_fault, "survivors", "levi_weight", False, id="levi_weight"),
    pytest.param(
        _survivor_a0_fault, "boundary_assembly", "boundary_profile_vs_case_formula", False,
        id="survivor_a0",
    ),
    pytest.param(_ghost_rule_fault, "ghosts", "ghost_support", False, id="ghost_rule"),
    pytest.param(_kostant_set_fault, "kostant", "kostant_set", False, id="kostant_set"),
    pytest.param(
        functools.partial(_kostant_set_fault, tag="P0"), "kostant", "kostant_set", False,
        id="kostant_set_p0",
    ),
    pytest.param(
        _e1_degree_fault, "boundary_assembly", "boundary_assembly_raised", False,
        id="e1_degree",
    ),
]


@pytest.mark.parametrize("fault, family, check, spot", _FAULT_ROWS)
def test_each_family_fails_when_its_route_is_corrupted(
    monkeypatch, cold_boundary_caches, cold_h_row, fault, family, check, spot
):
    fault(monkeypatch)
    report = run_all(max_weight=6)
    assert not report["ok"]
    records = _by_family(report)
    names = {f["check"] for f in records[family]}
    assert check in names
    # spot checks run the trace, euler, boundary and identity comparisons
    spots = records["random_spots"]
    assert all(
        f["params"].get("spot") is True or f["check"] == "random_spots_raised"
        for f in spots
    )
    if spot:
        assert check in {f["check"] for f in spots}


# sha256 of json.dumps(run_all(6), sort_keys=True) under each fault row:
# the rows above name a check, these pin every record, its order,
# parameters and text
_FAULT_DIGESTS = {
    "case_profile": "f128fede940daefb3d5422ba8a42c79356d6ba51a10451dbeaad120e1f838cc4",
    "case_profile_duality": "f128fede940daefb3d5422ba8a42c79356d6ba51a10451dbeaad120e1f838cc4",
    "case_profile_eisenstein_inside": "f128fede940daefb3d5422ba8a42c79356d6ba51a10451dbeaad120e1f838cc4",
    "eisenstein_case_profile": "f8f68eeb3fb8eecad20ee244387838a4c8569bf91989e85d9505215807f1f680",
    "eisenstein_half_boundary": "f8f68eeb3fb8eecad20ee244387838a4c8569bf91989e85d9505215807f1f680",
    "eisenstein_poincare_pair": "f8f68eeb3fb8eecad20ee244387838a4c8569bf91989e85d9505215807f1f680",
    "eisenstein_h1_case2": "f307b65f3fbe15c898592ec3fd4aa3be3937103a1905f702386efb34d1f8f3cc",
    "eisenstein_h1_case3": "b86324d66c1d3c6c8113223d0ccbcd7773dc42fae75852cda29ee1efd3d709d7",
    "eisenstein_h1_case4_line": "4e07d4d8487d08883848e76f49cff6ae68fc6123d9ceef2d8ac5fc5cb7659480",
    "eisenstein_h1_case4_m1": "744e7811a5bf00583b0b09fa50bb850fd4ff49d2aeeab5bcd86fdaf812b9c316",
    "eisenstein_h1_case4_m2": "21b6d14f53998fac7d09ad6323281b760cd7424376e826e188fd60894e1274d5",
    "eisenstein_h1_case5": "aaee5c4c402fce5c59e63d5c568471543bf3d4034462fb717332ca016b7c6a7f",
    "eisenstein_h1_case8": "74d37ef9b20eca25b91f0ed1af6ca242625bea00289a1041fb0f3ddffeb92c1e",
    "symbolic_cell": "49b00adc03b9d4f9fd45f85e56f8e835812ef7528eda1ce222974119d38263f9",
    "torsion_class": "3fc58726398d0b7a8c84b461c2900a48939cc9ce0ee04db9097609393bf76a2c",
    "sl3_euler_closed": "47f3ed1db47621ee3fc6f4256900efca7b4ae9ce6e99b9ad07afa65b07e907af",
    "gl2_euler": "f772f8b2d06060451e6d8aa4ab6054c6228ce7bc31243e2c9bcaa8929fe950f0",
    "sl2_euler": "9c402c6a38ce0e444aee741854cabe72778aed72d5a2b9f59e8d980a7aef61f4",
    "cusp_dimension": "b6cc88313b2518b19430502edbd1a20367d4b602fb482efb309b5e09a65684a8",
    "zeta_table": "5f85359347bd96c48b367914f95211312367be82ae2d63b81c3125ab80cb578a",
    "gt_m3": "f9ed0584b7eb86e3864c3c9418fc5f533866e9b495a84d64b898c811cf492dc8",
    "gt_beyond_bound_closed": "950c7f5689fb6a73a70a5f409f570f666c273d4fe1d725f50d3313c060e8ff33",
    "gt_beyond_bound_weyl_det": "950c7f5689fb6a73a70a5f409f570f666c273d4fe1d725f50d3313c060e8ff33",
    "gt_table": "ee2e1f193ac799bff2288f26ab5e557d32e829d87f0f2a626af09988788ef966",
    "h_table": "2d923628fc0678aa1bd8881d22c430cf00847af1ddbac3264cfed6b6bce26a56",
    "survivor_parity": "5996f3e894fa9e2111a27fe3fa79b91013ded1bc57fa830af1a9b36d0443c8e9",
    "minimal_survivor": "37ef1cb6d6fdb8037ce136d698c0cd160d9f766f15b5ebb633fdd006d7183a99",
    "levi_weight": "4a3d84c432b255d5cdf0b977ddf3044bce48699125bcf566930cf014b766d167",
    "survivor_a0": "c1e3784e25bc9f22baefc8c3f668000ab1a8e294726fe78a3db9f046f6c9d5c6",
    "ghost_rule": "8028af84c0155b5b4c8e67337d0232ff85cdc54497eadc059c14ee3bfa24278c",
    "kostant_set": "03e768762333d285195fe3e2f660c00d5aa9e9d1de1df4ed85d735c6f18ef6f8",
    "kostant_set_p0": "1aeb92cee9b30a4f3ba37c5ca0d62845033545c62805d60d72189174c500f3ce",
    "e1_degree": "8c3df9313a36f398c63cbe70bbd751694bf41e78c0c407ecd37de5c368946250",
}


@pytest.mark.parametrize(
    "fault, digest",
    [pytest.param(row.values[0], _FAULT_DIGESTS[row.id], id=row.id) for row in _FAULT_ROWS],
)
def test_each_fault_row_keeps_its_records(
    monkeypatch, cold_boundary_caches, cold_h_row, fault, digest
):
    fault(monkeypatch)
    report = json.dumps(run_all(max_weight=6), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def _registry_check_names():
    # the constant first arguments of checks._fail, and the identity flags
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    names = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_fail"
        and isinstance(node.args[0], ast.Constant)
    }
    lam = HighestWeight(0, 0)
    eis = eisenstein.eisenstein_case_profile(lam)
    return names | set(eisenstein._identities(lam, eis, lam.dual()))


def test_every_check_name_fires_under_some_fault():
    names = _registry_check_names()
    assert {"kostant_set", "ghost_support", "poincare_pair"} <= names
    assert names - {row.values[2] for row in _FAULT_ROWS} == set()


@pytest.mark.parametrize(
    "tag, got", [("P0", "['e', 's1', 's2']"), ("P1", "['e', 's1']")]
)
def test_a_kostant_set_fault_names_its_parabolic(monkeypatch, cold_boundary_caches, tag, got):
    _kostant_set_fault(monkeypatch, tag)
    assert checks.kostant(0, 0) == [
        {"check": "kostant_set", "params": {"parabolic": tag}, "detail": f"got {got}"}
    ]


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


def test_a_zeta_sum_outside_the_integers_raises(monkeypatch):
    # a broken route, not a bad argument
    _gt_zeta_fault(monkeypatch)
    with pytest.raises(CrossCheckError, match="^0 \\+ 1 zeta_3 is not an integer$"):
        traces.gt_trace(2, 2, 0, 3)


def _h_asymmetry_fault(monkeypatch):
    # one more monomial at exponent 1 and none at -1: h_m would not be real
    _bump_h_counts(monkeypatch, lambda m, k: True, 1)


def _odd_cosine_fault(monkeypatch):
    # 2 cos(pi / 2) read as 1: the cosine sums of h_1 and h_2 for k = 4 are
    # 3 and 1, which halving with a floor would turn into the right 1 and 0
    monkeypatch.setitem(traces._TWO_COS, 4, (2, 1, -2, 0))
    monkeypatch.setattr(traces, "_H_ROWS", traces._h_rows())


def test_an_odd_cosine_sum_raises(monkeypatch, cold_h_row):
    _odd_cosine_fault(monkeypatch)
    assert traces._h_row(0, 4) == 1
    for m, twice in ((1, 3), (2, 1)):
        with pytest.raises(CrossCheckError, match=f"^cosine sum 2 h_{m} = {twice} "):
            traces._h_row(m, 4)


def _gl2_class_weight_fault(monkeypatch):
    # the order-4 class of GL2(Z) weighted 1/2 instead of 1/4
    weights = list(gl2._GL2_CLASS_WEIGHTS)
    weights[4] = Fraction(1, 2)
    monkeypatch.setattr(gl2, "_GL2_CLASS_WEIGHTS", tuple(weights))


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
        (
            _gt_zeta_fault,
            "trace_routes",
            "CrossCheckError: 0 + 1 zeta_3 is not an integer",
        ),
        (
            _gl2_class_weight_fault,
            "gl2_routes",
            "CrossCheckError: GL2 torsion sum at m=0, det_twist=0 is 5/4",
        ),
        (
            _h_asymmetry_fault,
            "trace_routes",
            "CrossCheckError: counts of h_0 for k = 3 are not symmetric: [1]",
        ),
        (
            _odd_cosine_fault,
            "trace_routes",
            "CrossCheckError: cosine sum 2 h_1 = 3 for k = 4 is odd",
        ),
    ],
    ids=[
        "torsion_sum", "zeta_sum", "gl2_torsion_sum", "h_counts_symmetry",
        "odd_cosine_sum",
    ],
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
    # the E1 page and dim S_k are read once per call: neither keeps a value
    assert boundary.e1_page.cache_info().currsize == 0
    assert gl2.dim_cusp_forms.cache_info().currsize == 0
    # both weights are case 4, so their survivor sets are equal
    shared = parity.survivor_sets(HighestWeight(2, 4))
    assert shared is parity.survivor_sets(HighestWeight(4, 2))
    square = range(13)
    mappings = {id(parity.survivor_sets(HighestWeight(m1, m2))) for m1 in square for m2 in square}
    assert len(mappings) == 9
    with pytest.raises(TypeError):
        shared[rootsystem.P0] = ()


def test_each_benchmark_cache_site_keeps_its_cache_interface():
    # the benchmark's tracer reads cache_info() of every name in its CACHED
    # mapping; read that mapping from the source, without importing the harness
    tracing = Path(SRC).parent / "perfbench" / "tracing.py"
    cached = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["CACHED"]
    )
    assert cached
    for name, layer in cached.items():
        fn = getattr(importlib.import_module(f"sl3coh.{layer}"), name)
        assert fn.cache_info().currsize >= 0, f"{layer}.{name}"
        assert callable(fn.cache_clear), f"{layer}.{name}"
