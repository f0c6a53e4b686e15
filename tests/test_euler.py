"""Euler characteristics of SL3(Z) and GL3(Z), both routes and the table."""
import dataclasses

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
def test_wall_route_matches_closed_form(m1, m2):
    lam = HighestWeight(m1, m2)
    assert sl3_euler_wall(lam) == sl3_euler_closed(lam)


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
        euler = cohomology_report(HighestWeight(m1, m2, m3), "gl3")["euler"]
        assert euler["chi_wall"] == euler["chi_closed"]
        return euler["chi_closed"]

    assert chi(0, 0, 0) == 1
    assert chi(0, 0, 1) == 0
    assert chi(1, 0, 1) == sl3_euler_closed(HighestWeight(1, 0))
    assert chi(1, 0, 0) == 0
    assert chi(10, 0, 2) == -1
    with pytest.raises(ValueError):
        cohomology_report(HighestWeight(2, 2), "gl3")


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


def test_symbolic_table_shape_and_consistency():
    table = symbolic_table()
    assert len(table) == 12 and all(len(row) == 12 for row in table)
    for i in range(12):
        for j in range(12):
            assert table[i][j] == symbolic_cell(i, j)
            # each cell evaluates to the closed form at its smallest weight
            assert table[i][j].evaluate(i, j) == sl3_euler_closed(HighestWeight(i, j))


@given(small, small)
def test_symbolic_cell_evaluates_to_the_closed_form(m1, m2):
    cell = symbolic_cell(m1 % 12, m2 % 12)
    assert cell.evaluate(m1, m2) == sl3_euler_closed(HighestWeight(m1, m2))


def test_euler_values_match_the_closed_form():
    values = euler_values(60, 60)
    assert len(values) == 61 and all(len(row) == 61 for row in values)
    for m1, row in enumerate(values):
        for m2, value in enumerate(row):
            assert value == sl3_euler_closed(HighestWeight(m1, m2))


def test_euler_values_reject_negative_bounds():
    with pytest.raises(ValueError):
        euler_values(-1, 4)
    with pytest.raises(ValueError):
        euler_values(4, -1)


def test_a_wrong_cell_offset_raises_in_the_sweep(monkeypatch):
    clean = euler.symbolic_cell

    def corrupted(i, j):
        cell = clean(i, j)
        if (i, j) == (4, 6):
            return dataclasses.replace(cell, offset=cell.offset + 1)
        return cell

    monkeypatch.setattr(euler, "symbolic_cell", corrupted)
    # the sweep reads the cells at call time, so the fault shows
    with pytest.raises(CrossCheckError):
        euler_values(4, 6)
    # weights in other cells are untouched
    assert euler_values(3, 5) == [
        [sl3_euler_closed(HighestWeight(m1, m2)) for m2 in range(6)]
        for m1 in range(4)
    ]
