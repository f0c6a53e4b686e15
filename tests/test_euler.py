"""Euler characteristics of SL3(Z) and GL3(Z), both routes and the table."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sl3coh import CrossCheckError, cohomology_report, euler, euler_values
from sl3coh.euler import (
    euler_report,
    sl3_euler_closed,
    sl3_euler_wall,
    symbolic_cell,
    symbolic_table,
)
from sl3coh.rootsystem import HighestWeight

small = st.integers(min_value=0, max_value=60)


def test_euler_pins():
    assert sl3_euler_closed(HighestWeight(0, 0)) == 1
    assert sl3_euler_closed(HighestWeight(10, 0)) == -1
    assert sl3_euler_closed(HighestWeight(0, 11)) == 1
    assert sl3_euler_closed(HighestWeight(9, 0)) == 2
    assert sl3_euler_closed(HighestWeight(10, 10)) == -3
    assert sl3_euler_closed(HighestWeight(2, 1)) == 0
    assert sl3_euler_closed(HighestWeight(22, 0)) == -2


@given(small, small)
def test_euler_is_symmetric_under_duality(m1, m2):
    assert sl3_euler_closed(HighestWeight(m1, m2)) == sl3_euler_closed(
        HighestWeight(m2, m1)
    )


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_euler_vanishes_for_doubly_odd_weights(a, b):
    lam = HighestWeight(2 * a + 1, 2 * b + 1)
    assert sl3_euler_closed(lam) == 0
    assert sl3_euler_wall(lam) == 0


def test_euler_report_carries_both_routes_and_the_cell():
    report = euler_report(HighestWeight(0, 0))
    assert report == {
        "chi_wall": 1,
        "chi_closed": 1,
        "table_cell": {"row": 0, "col": 0, "symbolic": "-(m1+m2)/12 + 1"},
    }
    report = euler_report(HighestWeight(24, 12))
    cell = report["table_cell"]
    assert (cell["row"], cell["col"]) == (0, 0)
    assert report["chi_wall"] == -(24 + 12) // 12 + 1


def test_gl3_euler():
    def chi(m1, m2, m3):
        euler = cohomology_report(HighestWeight(m1, m2, m3))["euler"]
        assert euler["chi_wall"] == euler["chi_closed"]
        return euler["chi_closed"]

    assert chi(0, 0, 0) == 1
    assert chi(0, 0, 1) == 0
    assert chi(1, 0, 1) == sl3_euler_closed(HighestWeight(1, 0))
    assert chi(1, 0, 0) == 0
    assert chi(10, 0, 2) == -1


def test_symbolic_cell_rendering():
    assert symbolic_cell(0, 0).render() == "-(m1+m2)/12 + 1"
    assert symbolic_cell(9, 0).render() == "(m1-9)/12 + 2"
    assert symbolic_cell(10, 1).render() == "(m2-1)/12 - 1"
    assert symbolic_cell(0, 2).render() == "-(m1+m2-2)/12"
    assert symbolic_cell(1, 1).render() == "0"
    assert symbolic_cell(10, 10).render() == "-(m1+m2-20)/12 - 3"


def test_symbolic_cell_validation():
    with pytest.raises(ValueError):
        symbolic_cell(12, 0)
    with pytest.raises(ValueError):
        symbolic_cell(0, -1)
    # an unknown kind is refused when the cell is made, not drawn as an m2 cell
    with pytest.raises(ValueError, match="unknown cell kind"):
        euler.SymbolicCell("bogus", 3, 1)
    # a zero cell evaluates to 0 whatever it carries, so it may carry nothing
    for offset, shift in ((3, 5), (3, 0), (0, 5)):
        with pytest.raises(ValueError, match="zero cell"):
            euler.SymbolicCell("zero", offset=offset, shift=shift)


def test_symbolic_table_shape_and_consistency():
    table = symbolic_table()
    assert len(table) == 12 and all(len(row) == 12 for row in table)
    for i in range(12):
        for j in range(12):
            assert table[i][j] == symbolic_cell(i, j)
            # each cell evaluates to the closed form at its smallest weight
            assert table[i][j].evaluate(i, j) == sl3_euler_closed(HighestWeight(i, j))


@pytest.mark.parametrize("m1_max", [0, 11, 12, 13, 24, 25])
def test_euler_values_step_from_the_base_weights(m1_max):
    # every m2_max in 0..36 ends the rows in a partial or whole stretch of
    # twelve steps along m2; rows 12, 13, 24 and 25 are the first stepped
    # along m1
    for m2_max in range(37):
        assert euler_values(m1_max, m2_max) == [
            [sl3_euler_closed(HighestWeight(m1, m2)) for m2 in range(m2_max + 1)]
            for m1 in range(m1_max + 1)
        ]


def test_euler_values_match_the_closed_form():
    # the benchmark's 151 x 151 table: 13 weights in each of the first 7
    # residues of a row, 12 in the other 5
    values = euler_values(150, 150)
    assert len(values) == 151 and all(len(row) == 151 for row in values)
    for m1, row in enumerate(values):
        for m2, value in enumerate(row):
            assert value == sl3_euler_closed(HighestWeight(m1, m2))


def test_euler_values_reject_negative_bounds():
    with pytest.raises(ValueError):
        euler_values(-1, 4)
    with pytest.raises(ValueError):
        euler_values(4, -1)


def _shift_offset(monkeypatch, i, j):
    cells = [list(row) for row in euler._cells()]
    cells[i][j] = cells[i][j]._replace(offset=cells[i][j].offset + 1)
    monkeypatch.setattr(euler, "_cells", lambda: cells)


def test_a_wrong_cell_offset_raises_in_the_sweep(monkeypatch):
    _shift_offset(monkeypatch, 4, 6)
    # the sweep reads the fitted table, so a fault in one of its cells
    # shows, also in a sweep whose rows past m1 = 11 are derived, not evaluated
    for m1_max, m2_max in [(4, 6), (150, 150)]:
        with pytest.raises(CrossCheckError):
            euler_values(m1_max, m2_max)
    # weights in other cells are untouched
    assert euler_values(3, 5) == [
        [sl3_euler_closed(HighestWeight(m1, m2)) for m2 in range(6)]
        for m1 in range(4)
    ]


@pytest.mark.parametrize("m1_max, m2_max", [(11, 4), (40, 40)])
def test_a_wrong_cell_offset_in_the_last_evaluated_row_raises(monkeypatch, m1_max, m2_max):
    # (11, 4) is an "m1" cell; m1 = 11 is the last row whose cells are evaluated
    _shift_offset(monkeypatch, 11, 4)
    with pytest.raises(CrossCheckError):
        euler_values(m1_max, m2_max)


def test_a_fitted_step_that_names_no_kind_raises(monkeypatch):
    clean = euler.sl3_euler_wall
    # the m1 step of the "m1" cell (1, 2) read as 2 instead of 1
    monkeypatch.setattr(
        euler, "sl3_euler_wall", lambda lam: clean(lam) + ((lam.m1, lam.m2) == (13, 2))
    )
    with pytest.raises(CrossCheckError, match=r"steps \(2, 0\) at \(1, 2\)"):
        euler._fit_cell(1, 2)


def _outside_the_integers(monkeypatch):
    # the phi1*phi4 class counted 3 times instead of 2: the sum at (0, 0) is 5/4
    classes = tuple(
        c._replace(resultant=3) if c.label == "phi1*phi4" else c
        for c in euler.SL3_TORSION_CLASSES
    )
    monkeypatch.setattr(euler, "SL3_TORSION_CLASSES", classes)


@pytest.mark.parametrize(
    "call",
    [
        lambda: symbolic_cell(3, 5),
        symbolic_table,
        lambda: euler_values(2, 2),
        lambda: euler_report(HighestWeight(1, 1)),
    ],
    ids=["symbolic_cell", "symbolic_table", "euler_values", "euler_report"],
)
def test_a_cell_table_that_does_not_fit_raises_at_each_read(
    monkeypatch, cold_caches, call
):
    _outside_the_integers(monkeypatch)
    # not cached: the next read fits again and raises again
    for _ in range(2):
        with pytest.raises(CrossCheckError, match=r"is 5/4, not an integer"):
            call()


def test_a_cell_table_that_does_not_fit_leaves_the_import_working(tmp_path):
    # a copy of the package with the fault in its source, as a launch sees it
    src = Path(__file__).resolve().parent.parent / "src" / "sl3coh"
    pkg = tmp_path / "sl3coh"
    shutil.copytree(src, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    traces_py = pkg / "traces.py"
    text = traces_py.read_text(encoding="utf-8")
    good = 'TorsionClass("phi1*phi4", Fraction(1, 4), 2, 4)'
    assert text.count(good) == 1
    traces_py.write_text(text.replace(good, good.replace("2, 4)", "3, 4)")), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")

    def launch(*argv):
        return subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
        )

    imported = launch("-c", "import sl3coh")
    assert (imported.returncode, imported.stderr) == (0, "")
    version = launch("-m", "sl3coh.cli", "--version")
    assert (version.returncode, version.stderr) == (0, "")
    verify = launch("-m", "sl3coh.cli", "verify", "--max", "6")
    assert (verify.returncode, verify.stderr) == (1, "")
    assert "  euler_routes: 1 FAILED" in verify.stdout
    assert '"check": "euler_routes_raised"' in verify.stdout


def test_every_cell_matches_the_torsion_sum_far_out():
    # random_spots reaches only 25 cells per seed
    for i in range(12):
        for j in range(12):
            lam = HighestWeight(i + 12 * 10**10, j + 12 * 10**11)
            assert symbolic_cell(i, j).evaluate(lam.m1, lam.m2) == sl3_euler_wall(lam)
