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
    monkeypatch, cold_caches, row, q, i, how
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
    monkeypatch, cold_caches, name, k, bound, fired
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


def _m6_fault(monkeypatch):
    # shift one entry of the order-6 periodicity table by 6: the shift keeps
    # the rational torsion sums integral, so the fault surfaces as failure
    # records instead of tripping an internal integrality assert
    (first, *rest), *rows = traces.M6
    monkeypatch.setattr(traces, "M6", ((first + 6, *rest), *rows))


def _zeta_table_fault(monkeypatch):
    # zeta_6^3 read as +1 instead of -1: the zeta_6 column is untouched, so
    # every order-6 trace stays an integer, only a wrong one
    powers = list(traces._ZETA_POWERS[6])
    powers[3] = (1, 0)
    monkeypatch.setitem(traces._ZETA_POWERS, 6, tuple(powers))
    monkeypatch.setattr(traces, "_GT_PREFIX", traces._gt_prefix())


def _gt_count_fault(hit, residue=0):
    # one more basis vector at exponent residue mod k wherever hit holds:
    # the coordinates move by zeta_k^residue
    def fault(monkeypatch):
        clean = traces._gt_coordinates

        def corrupted(m1, m2, m3, k):
            coordinates = clean(m1, m2, m3, k)
            if hit(m1, m2, m3, k):
                coordinates = list(map(add, coordinates, traces._ZETA_POWERS[k][residue]))
            return coordinates

        monkeypatch.setattr(traces, "_gt_coordinates", corrupted)

    return fault


# one more basis vector at exponent 0 for k = 6 where m1 = m2 = 1 mod 6
_gt_counts_fault = _gt_count_fault(
    lambda m1, m2, m3, k: k == 6 and (m1 % 6, m2 % 6) == (1, 1)
)
_gt_m3_fault = _gt_count_fault(lambda m1, m2, m3, k: (m3, k) == (1, 3))
# wrong only past the sweep bound of run_all(6): the spots must see it
_gt_beyond_bound_fault = _gt_count_fault(lambda m1, m2, m3, k: k == 3 and m1 > 6)
# a zeta_3 coefficient left over at one weight: the sum is not an integer
_gt_zeta_fault = _gt_count_fault(lambda m1, m2, m3, k: (m1, m2, k) == (2, 2, 3), 1)


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


def _h_bump(k, e):
    # one more monomial at exponent e, in the coordinates of _h_coordinates:
    # 2 cos(2 pi e / k) on the cosine sum, and +1 on count_e - count_-e (or
    # -1 on the difference at -e) unless e = -e mod k
    bump = [traces._TWO_COS[k][e]] + [0] * ((k - 1) // 2)
    if 2 * e != k and e:
        bump[min(e, k - e)] += 1 if 2 * e < k else -1
    return bump


def _h_count_fault(hit, residue):
    # one more monomial at exponent residue mod k wherever hit holds
    def fault(monkeypatch):
        clean = traces._h_coordinates

        def corrupted(m, k):
            coordinates = clean(m, k)
            if hit(m, k):
                coordinates = list(map(add, coordinates, _h_bump(k, residue)))
            return coordinates

        monkeypatch.setattr(traces, "_h_coordinates", corrupted)

    return fault


# the same monomial as _h_table_fault, for k = 6 and every m = 1 mod 6
_h_row_fault = _h_count_fault(lambda m, k: k == 6 and m % 6 == 1, 0)
# one more monomial at exponent 1 and none at -1: h_m would not be real
_h_asymmetry_fault = _h_count_fault(lambda m, k: True, 1)


def _odd_cosine_fault(monkeypatch):
    # 2 cos(pi / 2) read as 1: the cosine sums of h_1 and h_2 for k = 4 are
    # 3 and 1, which halving with a floor would turn into the right 1 and 0
    monkeypatch.setitem(traces._TWO_COS, 4, (2, 1, -2, 0))
    monkeypatch.setattr(traces, "_H_ROWS", traces._h_rows())


def _gl2_class_weight_fault(monkeypatch):
    # the order-4 class of GL2(Z) weighted 1/2 instead of 1/4
    weights = list(gl2._GL2_CLASS_WEIGHTS)
    weights[4] = Fraction(1, 2)
    monkeypatch.setattr(gl2, "_GL2_CLASS_WEIGHTS", tuple(weights))


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


def _shift_dot(name, shift):
    # w . lam moved by shift for the Weyl element name
    def fault(monkeypatch):
        clean = WeylElement.dot

        def corrupted(self, lam):
            c = clean(self, lam)
            return tuple(a + b for a, b in zip(c, shift)) if self.name == name else c

        monkeypatch.setattr(WeylElement, "dot", corrupted)

    return fault


def _d1_rank_fault(monkeypatch):
    # d1 onto every minimal-face line, also where column 0 has no trivial line
    monkeypatch.setattr(boundary, "d1_rank", lambda lam, col0, col1, q: 1)


def test_a_zeta_sum_outside_the_integers_raises(monkeypatch):
    # a broken route, not a bad argument
    _gt_zeta_fault(monkeypatch)
    with pytest.raises(CrossCheckError, match="^0 \\+ 1 zeta_3 is not an integer$"):
        traces.gt_trace(2, 2, 0, 3)


def test_an_odd_cosine_sum_raises(monkeypatch, cold_caches):
    _odd_cosine_fault(monkeypatch)
    assert traces._h_row(0, 4) == 1
    for m, twice in ((1, 3), (2, 1)):
        with pytest.raises(CrossCheckError, match=f"^cosine sum 2 h_{m} = {twice} "):
            traces._h_row(m, 4)


def test_gl2_torsion_sum_outside_the_integers_raises(monkeypatch):
    _gl2_class_weight_fault(monkeypatch)
    with pytest.raises(CrossCheckError) as err:
        gl2.gl2_euler_wall(0, 0)
    assert str(err.value) == "GL2 torsion sum at m=0, det_twist=0 is 5/4"


def _by_family(report):
    # the records come family by family, in the order of CHECKS
    out, start = {}, 0
    for family, info in report["families"].items():
        out[family] = report["failures"][start : start + info["failures"]]
        start += info["failures"]
    assert start == len(report["failures"])
    return out


_REPORTS = {}


def _report_under(monkeypatch, fault):
    # run_all(6) under fault, run once per fault and shared by the tests
    # that read it: the report depends on nothing but the fault
    fault(monkeypatch)
    if fault not in _REPORTS:
        _REPORTS[fault] = run_all(max_weight=6)
    return _REPORTS[fault]


def _row(name, fault, digest, **fired):
    # fired: each family that reports under the fault -> its check names
    return pytest.param(
        fault, {family: set(names.split()) for family, names in fired.items()}, digest, id=name
    )


# one row per injected fault: the exact check names that run_all(6) fires
# in each family under it (a family not named fires none, random_spots
# counts as a family), and the sha256 of json.dumps(run_all(6),
# sort_keys=True), which pins every record, its order, parameters and text
_FAULTS = [
    _row("case_profile", _case_profile_fault,
         "f128fede940daefb3d5422ba8a42c79356d6ba51a10451dbeaad120e1f838cc4",
         boundary_assembly="boundary_profile_vs_case_formula",
         identities="boundary_duality eisenstein_inside_boundary half_boundary poincare_pair",
         random_spots="boundary_duality boundary_profile_vs_case_formula "
         "eisenstein_inside_boundary half_boundary poincare_pair"),
    _row("eisenstein_case_profile", _eisenstein_fault,
         "f8f68eeb3fb8eecad20ee244387838a4c8569bf91989e85d9505215807f1f680",
         identities="chi_eis_equals_chi_h half_boundary poincare_pair",
         random_spots="chi_eis_equals_chi_h half_boundary poincare_pair"),
    _row("eisenstein_h1_case2", _eisenstein_h1_fault(2, 0),
         "f307b65f3fbe15c898592ec3fd4aa3be3937103a1905f702386efb34d1f8f3cc",
         identities="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case3", _eisenstein_h1_fault(3, 0),
         "b86324d66c1d3c6c8113223d0ccbcd7773dc42fae75852cda29ee1efd3d709d7",
         identities="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case4_line", _eisenstein_h1_fault(4, 0),
         "4e07d4d8487d08883848e76f49cff6ae68fc6123d9ceef2d8ac5fc5cb7659480",
         identities="eisenstein_h1_vanishes",
         random_spots="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case4_m1", _eisenstein_h1_fault(4, 1),
         "744e7811a5bf00583b0b09fa50bb850fd4ff49d2aeeab5bcd86fdaf812b9c316",
         identities="eisenstein_h1_vanishes",
         random_spots="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case4_m2", _eisenstein_h1_fault(4, 2),
         "21b6d14f53998fac7d09ad6323281b760cd7424376e826e188fd60894e1274d5",
         identities="eisenstein_h1_vanishes",
         random_spots="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case5", _eisenstein_h1_fault(5, 0),
         "aaee5c4c402fce5c59e63d5c568471543bf3d4034462fb717332ca016b7c6a7f",
         identities="eisenstein_h1_vanishes",
         random_spots="eisenstein_h1_vanishes"),
    _row("eisenstein_h1_case8", _eisenstein_h1_fault(8, 0),
         "74d37ef9b20eca25b91f0ed1af6ca242625bea00289a1041fb0f3ddffeb92c1e",
         identities="eisenstein_h1_vanishes",
         random_spots="eisenstein_h1_vanishes"),
    _row("symbolic_cell", _symbolic_cell_fault,
         "49b00adc03b9d4f9fd45f85e56f8e835812ef7528eda1ce222974119d38263f9",
         euler_routes="euler_cell_vs_closed",
         random_spots="euler_cell_vs_closed"),
    _row("torsion_class", _torsion_class_fault,
         "3fc58726398d0b7a8c84b461c2900a48939cc9ce0ee04db9097609393bf76a2c",
         euler_routes="euler_cell_vs_closed sl3_euler_wall_vs_closed",
         random_spots="euler_cell_vs_closed sl3_euler_wall_vs_closed"),
    _row("torsion_sum", functools.partial(_torsion_class_fault, extra=1),
         "fbe736a2741d3cb9682038f69a9d7199ecd05f45206ef539866a6b6ae00f84e1",
         euler_routes="euler_routes_raised",
         random_spots="random_spots_raised"),
    _row("sl3_euler_closed", _sl3_euler_closed_fault,
         "47f3ed1db47621ee3fc6f4256900efca7b4ae9ce6e99b9ad07afa65b07e907af",
         euler_routes="euler_cell_vs_closed sl3_euler_wall_vs_closed",
         boundary_assembly="boundary_euler_closed",
         identities="chi_eis_equals_chi_h",
         random_spots="boundary_euler_closed chi_eis_equals_chi_h euler_cell_vs_closed "
         "sl3_euler_wall_vs_closed"),
    _row("gl2_euler", _gl2_euler_fault,
         "f772f8b2d06060451e6d8aa4ab6054c6228ce7bc31243e2c9bcaa8929fe950f0",
         gl2_routes="gl2_euler_wall_vs_closed sl2_additivity"),
    _row("sl2_euler", _sl2_euler_fault,
         "9c402c6a38ce0e444aee741854cabe72778aed72d5a2b9f59e8d980a7aef61f4",
         gl2_routes="sl2_additivity"),
    _row("cusp_dimension", _cusp_dimension_fault,
         "b6cc88313b2518b19430502edbd1a20367d4b602fb482efb309b5e09a65684a8",
         gl2_routes="gl2_h1_dimension"),
    _row("gl2_torsion_sum", _gl2_class_weight_fault,
         "9850c031be8c078948dd3ad01ea3d94a67f6af385b8ae1befc6386cb29c8798b",
         gl2_routes="gl2_routes_raised"),
    _row("m6_table", _m6_fault,
         "a259ecb90090687f0b649460f2aef2531dd3794a7d046a48acd818acda0ef8d8",
         trace_routes="gt_trace_vs_closed_trace",
         euler_routes="euler_cell_vs_closed sl3_euler_wall_vs_closed",
         random_spots="euler_cell_vs_closed gt_trace_vs_closed_trace sl3_euler_wall_vs_closed"),
    _row("zeta_table", _zeta_table_fault,
         "5f85359347bd96c48b367914f95211312367be82ae2d63b81c3125ab80cb578a",
         trace_routes="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace",
         random_spots="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace"),
    _row("gt_counts", _gt_counts_fault,
         "f8b974147e1b565e75ac75dcf0601ac99755b5f24d6e3aa282cc7fac2f579513",
         trace_routes="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace"),
    _row("gt_m3", _gt_m3_fault,
         "f9ed0584b7eb86e3864c3c9418fc5f533866e9b495a84d64b898c811cf492dc8",
         trace_routes="gt_trace_m3_independence",
         random_spots="gt_trace_m3_independence"),
    _row("gt_beyond_bound", _gt_beyond_bound_fault,
         "950c7f5689fb6a73a70a5f409f570f666c273d4fe1d725f50d3313c060e8ff33",
         random_spots="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace"),
    _row("gt_table", _gt_table_fault,
         "ee2e1f193ac799bff2288f26ab5e557d32e829d87f0f2a626af09988788ef966",
         trace_routes="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace",
         random_spots="gt_trace_vs_closed_trace gt_trace_vs_weyl_det_trace"),
    _row("zeta_sum", _gt_zeta_fault,
         "22675640989e67619a4ec4083b56a8ea2fa88152b6fabeff93119ffb930fcb70",
         trace_routes="trace_routes_raised"),
    _row("h_table", _h_table_fault,
         "2d923628fc0678aa1bd8881d22c430cf00847af1ddbac3264cfed6b6bce26a56",
         trace_routes="gt_trace_vs_weyl_det_trace",
         random_spots="gt_trace_vs_weyl_det_trace"),
    _row("h_row", _h_row_fault,
         "d780974b0b98e627080b2ad7a2ebe92e62d21b212bf4eb2c81ceb9b903ece53d",
         trace_routes="gt_trace_vs_weyl_det_trace",
         random_spots="gt_trace_vs_weyl_det_trace"),
    _row("h_counts_symmetry", _h_asymmetry_fault,
         "d7a84a5ff9718c10082384e7acb5596b40f8ed1044d36a9a3ad9b2d275515348",
         trace_routes="trace_routes_raised",
         random_spots="random_spots_raised"),
    _row("odd_cosine_sum", _odd_cosine_fault,
         "47022ab103d756a7a3bf9a7884e538a19df6326a149bdce7d63b0a29f0ddab6d",
         trace_routes="trace_routes_raised",
         random_spots="random_spots_raised"),
    _row("survivor_parity", _survivor_parity_fault,
         "5996f3e894fa9e2111a27fe3fa79b91013ded1bc57fa830af1a9b36d0443c8e9",
         survivors="survivor_parity",
         boundary_assembly="boundary_euler_closed boundary_profile_vs_case_formula",
         random_spots="boundary_euler_closed boundary_profile_vs_case_formula"),
    _row("minimal_survivor", _minimal_survivor_fault,
         "37ef1cb6d6fdb8037ce136d698c0cd160d9f766f15b5ebb633fdd006d7183a99",
         survivors="survivor_reflection",
         boundary_assembly="boundary_assembly_raised",
         random_spots="random_spots_raised"),
    _row("levi_weight", _shift_dot("s1", (2, 0, 0)),
         "4a3d84c432b255d5cdf0b977ddf3044bce48699125bcf566930cf014b766d167",
         survivors="levi_weight"),
    _row("levi_s2", _shift_dot("s2", (0, 0, 2)),
         "e925ef3899c3e04ace4a294149d007a1edddab212b176079fd13f935e07369c7",
         survivors="levi_weight"),
    _row("levi_s2s1", _shift_dot("s2s1", (0, 0, 2)),
         "762051c4b3aeb59b73ce653ec5f04922c47aca3124529ae9b40095f42775279a",
         survivors="levi_weight"),
    _row("levi_s1s2", _shift_dot("s1s2", (2, 0, 0)),
         "150c5d490b199202c014a3c3ce828cdbe64fa7f94d65cc06abbc2d35aeb8f9cb",
         survivors="levi_weight"),
    _row("weyl_action", _shift_dot("s1", (0, 2, 0)),
         "54bcbef2b27c220461666e9d7adaf2d6f7cbf13a78299ee6d79eaf06a5684ed7",
         survivors="levi_weight",
         boundary_assembly="boundary_euler_closed boundary_profile_vs_case_formula",
         random_spots="boundary_euler_closed boundary_profile_vs_case_formula"),
    _row("survivor_a0", _survivor_a0_fault,
         "c1e3784e25bc9f22baefc8c3f668000ab1a8e294726fe78a3db9f046f6c9d5c6",
         boundary_assembly="boundary_euler_closed boundary_profile_vs_case_formula",
         random_spots="boundary_euler_closed boundary_profile_vs_case_formula"),
    _row("ghost_rule", _ghost_rule_fault,
         "8028af84c0155b5b4c8e67337d0232ff85cdc54497eadc059c14ee3bfa24278c",
         ghosts="ghost_support"),
    _row("kostant_set", _kostant_set_fault,
         "03e768762333d285195fe3e2f660c00d5aa9e9d1de1df4ed85d735c6f18ef6f8",
         kostant="kostant_set",
         survivors="survivor_reflection",
         boundary_assembly="boundary_euler_closed boundary_profile_vs_case_formula",
         random_spots="boundary_euler_closed boundary_profile_vs_case_formula"),
    _row("kostant_set_p0", functools.partial(_kostant_set_fault, tag="P0"),
         "1aeb92cee9b30a4f3ba37c5ca0d62845033545c62805d60d72189174c500f3ce",
         kostant="kostant_set",
         boundary_assembly="boundary_euler_closed boundary_profile_vs_case_formula",
         random_spots="boundary_euler_closed boundary_profile_vs_case_formula"),
    _row("e1_degree", _e1_degree_fault,
         "8c3df9313a36f398c63cbe70bbd751694bf41e78c0c407ecd37de5c368946250",
         kostant="kostant_set",
         boundary_assembly="boundary_assembly_raised",
         random_spots="random_spots_raised"),
    _row("d1_two_targets", _shift_dot("s1", (1, 0, 0)),
         "f78c4601f211f7792dfe4568c3260d8d0fc58fd0af05a5f4de5a40066830d5ac",
         survivors="levi_weight survivor_reflection",
         boundary_assembly="boundary_assembly_raised",
         random_spots="random_spots_raised"),
    _row("levi_a_negative", _shift_dot("e", (0, 2, 0)),
         "120680850926c5f394133508c4cddf0e01a0446bab34931bf6e9c5baa02ebbe4",
         survivors="survivors_raised",
         boundary_assembly="boundary_assembly_raised",
         random_spots="random_spots_raised"),
    _row("d1_rank_no_line", _d1_rank_fault,
         "61660e9cece388ceb50e64506b7e1cf3478a381b316bc26b954cb3c95e18fb0c",
         boundary_assembly="boundary_assembly_raised",
         random_spots="random_spots_raised"),
]
_ROW = {row.id: row for row in _FAULTS}

# three rows also run under one id for each further check name they fire
_ALIASES = {
    "case_profile_duality": "case_profile",
    "case_profile_eisenstein_inside": "case_profile",
    "eisenstein_half_boundary": "eisenstein_case_profile",
    "eisenstein_poincare_pair": "eisenstein_case_profile",
    "gt_beyond_bound_closed": "gt_beyond_bound",
    "gt_beyond_bound_weyl_det": "gt_beyond_bound",
}


@pytest.mark.parametrize(
    "fault, fired, digest",
    _FAULTS + [pytest.param(*_ROW[row].values, id=alias) for alias, row in _ALIASES.items()],
)
def test_each_fault_row_keeps_its_records(monkeypatch, cold_caches, fault, fired, digest):
    report = _report_under(monkeypatch, fault)
    # every family ran, in order, also after one that raised
    assert list(report["families"]) == [family for family, _ in CHECKS]
    records = _by_family(report)
    got = {family: {f["check"] for f in own} for family, own in records.items() if own}
    assert got == fired
    for family, own in records.items():
        if any(f["check"].endswith("_raised") for f in own):
            # a family that raised counts one failure, which names the family
            raised = [(f"{family}_raised", {"family": family})]
            assert [(f["check"], f["params"]) for f in own] == raised
    # the spot checks rerun the trace, euler, boundary and identity
    # comparisons, and flag each record they make
    assert all(
        f["params"].get("spot") is True
        for f in records["random_spots"]
        if f["check"] != "random_spots_raised"
    )
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# under each id, the fault of row ("-": the row of that id) makes family
# report check, and with "spot" the seeded spot checks report it too
_NAMED_CHECKS = """
case_profile - boundary_assembly boundary_profile_vs_case_formula spot
case_profile_duality case_profile identities boundary_duality spot
case_profile_eisenstein_inside case_profile identities eisenstein_inside_boundary spot
eisenstein_case_profile - identities chi_eis_equals_chi_h spot
eisenstein_half_boundary eisenstein_case_profile identities half_boundary spot
eisenstein_poincare_pair eisenstein_case_profile identities poincare_pair spot
eisenstein_h1_case2 - identities eisenstein_h1_vanishes
eisenstein_h1_case3 - identities eisenstein_h1_vanishes
eisenstein_h1_case4_line - identities eisenstein_h1_vanishes spot
eisenstein_h1_case4_m1 - identities eisenstein_h1_vanishes spot
eisenstein_h1_case4_m2 - identities eisenstein_h1_vanishes spot
eisenstein_h1_case5 - identities eisenstein_h1_vanishes spot
eisenstein_h1_case8 - identities eisenstein_h1_vanishes spot
symbolic_cell - euler_routes euler_cell_vs_closed spot
torsion_class - euler_routes sl3_euler_wall_vs_closed spot
sl3_euler_closed - boundary_assembly boundary_euler_closed spot
gl2_euler - gl2_routes gl2_euler_wall_vs_closed
sl2_euler - gl2_routes sl2_additivity
cusp_dimension - gl2_routes gl2_h1_dimension
zeta_table - trace_routes gt_trace_vs_closed_trace spot
gt_m3 - trace_routes gt_trace_m3_independence spot
gt_beyond_bound_closed gt_beyond_bound random_spots gt_trace_vs_closed_trace spot
gt_beyond_bound_weyl_det gt_beyond_bound random_spots gt_trace_vs_weyl_det_trace spot
gt_table - trace_routes gt_trace_vs_closed_trace spot
h_table - trace_routes gt_trace_vs_weyl_det_trace spot
survivor_parity - survivors survivor_parity
minimal_survivor - survivors survivor_reflection
levi_weight - survivors levi_weight
survivor_a0 - boundary_assembly boundary_profile_vs_case_formula
ghost_rule - ghosts ghost_support
kostant_set - kostant kostant_set
kostant_set_p0 - kostant kostant_set
e1_degree - boundary_assembly boundary_assembly_raised
"""


def _named_checks():
    for line in _NAMED_CHECKS.strip().splitlines():
        name, row, family, check, *spot = line.split()
        fault = _ROW[name if row == "-" else row].values[0]
        yield pytest.param(fault, family, check, bool(spot), id=name)


@pytest.mark.parametrize("fault, family, check, spot", _named_checks())
def test_each_family_fails_when_its_route_is_corrupted(
    monkeypatch, cold_caches, fault, family, check, spot
):
    report = _report_under(monkeypatch, fault)
    assert not report["ok"]
    records = _by_family(report)
    assert check in {f["check"] for f in records[family]}
    if spot:
        assert check in {f["check"] for f in records["random_spots"]}


def test_injected_table_fault_is_caught(monkeypatch, cold_caches):
    report = _report_under(monkeypatch, _ROW["m6_table"].values[0])
    assert traces.closed_trace(0, 0, 0, 6) == 7
    assert not report["ok"]
    for record in report["failures"]:
        assert set(record) == {"check", "params", "detail"}
    hits = [
        f
        for f in report["failures"]
        if f["check"] == "gt_trace_vs_closed_trace" and f["params"]["k"] == 6
    ]
    assert any(f["params"]["m1"] % 6 == 0 and f["params"]["m2"] % 6 == 0 for f in hits)


def test_injected_fault_leaves_other_orders_alone(monkeypatch, cold_caches):
    _m6_fault(monkeypatch)
    failures = dict(CHECKS)["trace_routes"](6, 0)
    assert failures
    assert all(f["params"]["k"] == 6 for f in failures)
    assert all(f["check"] == "gt_trace_vs_closed_trace" for f in failures)


@pytest.mark.parametrize(
    "name, row",
    # each moves n of one Levi weight by 4 and keeps every parity
    [("s1", "levi_weight"), ("s2", "levi_s2"), ("s2s1", "levi_s2s1"), ("s1s2", "levi_s1s2")],
    ids=["s1-shift0", "s2-shift1", "s2s1-shift2", "s1s2-shift3"],
)
def test_levi_coordinate_n_is_pinned(monkeypatch, cold_caches, name, row):
    report = _report_under(monkeypatch, _ROW[row].values[0])
    assert not report["ok"]
    levi = [f for f in _by_family(report)["survivors"] if f["check"] == "levi_weight"]
    assert levi
    assert {f["params"]["w"] for f in levi} == {name}


@pytest.mark.parametrize(
    "tag, got", [("P0", "['e', 's1', 's2']"), ("P1", "['e', 's1']")]
)
def test_a_kostant_set_fault_names_its_parabolic(monkeypatch, cold_caches, tag, got):
    _kostant_set_fault(monkeypatch, tag)
    assert checks.kostant(0, 0) == [
        {"check": "kostant_set", "params": {"parabolic": tag}, "detail": f"got {got}"}
    ]


def test_the_survivor_parity_fault_fires_only_survivor_parity(monkeypatch, cold_caches):
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


def test_a_zeta_power_fault_reaches_one_counting_route(monkeypatch, cold_caches):
    # gt_trace evaluates its counts at the powers of zeta_k, weyl_det_trace
    # at its own cosines: a wrong power shows against both other routes
    _zeta_table_fault(monkeypatch)
    records = dict(CHECKS)["trace_routes"](6, 0)
    closed = _flagged(records, "gt_trace_vs_closed_trace")
    assert closed
    assert closed == _flagged(records, "gt_trace_vs_weyl_det_trace")


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
    fired = set()
    for row in _FAULTS:
        fired.update(*row.values[1].values())
    assert names - fired == set()


def test_per_weight_caches_stay_bounded_and_shared(cold_caches):
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
