"""Homological Euler characteristics of SL3(Z) and GL3(Z).

Two routes for chi_h(SL3(Z), M_(m1,m2)):

* sl3_euler_wall: the rational sum over torsion classes, each contributing
  (centralizer Euler characteristic) x (class count) x (trace on M);
* sl3_euler_closed: the closed form in cusp form dimensions, organized by
  the parities of (m1, m2), with the dim S_2 = -1 convention.

The closed form is periodic-plus-linear in (m1, m2) mod 12, which gives the
12 x 12 table of symbolic cells; euler_values evaluates the cells over a
numeric sweep.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckError
from .gl2 import EULER, dim_cusp_forms
from .rootsystem import HighestWeight
from .traces import SL3_TORSION_CLASSES, closed_trace


def sl3_euler_wall(lam: HighestWeight) -> int:
    """chi_h(SL3(Z), M_lam) as the rational sum over torsion classes."""
    # the running sum is num / den, kept in integers
    num, den = 0, 1
    for cls in SL3_TORSION_CLASSES:
        if cls.order == 0:
            continue  # identity class: centralizer chi is 0
        chi = cls.centralizer_chi
        trace = closed_trace(lam.m1, lam.m2, 0, cls.order)
        term = chi.numerator * cls.resultant * trace
        num, den = num * chi.denominator + term * den, den * chi.denominator
    if num % den != 0:
        raise CrossCheckError(
            f"torsion sum at {lam} is {Fraction(num, den)}, not an integer"
        )
    return num // den


def sl3_euler_closed(lam: HighestWeight) -> int:
    """chi_h(SL3(Z), M_lam) in cusp form dimensions, by parity of (m1, m2)."""
    m1, m2 = lam.m1, lam.m2
    if m1 % 2 == 0 and m2 % 2 == 0:
        return -1 - dim_cusp_forms(m1 + 2, EULER) - dim_cusp_forms(m2 + 2, EULER)
    if m1 % 2 == 0:
        return -dim_cusp_forms(m1 + 2, EULER) + dim_cusp_forms(m1 + m2 + 3, EULER)
    if m2 % 2 == 0:
        return -dim_cusp_forms(m2 + 2, EULER) + dim_cusp_forms(m1 + m2 + 3, EULER)
    return 0


@dataclass(frozen=True)
class SymbolicCell:
    """One cell of the 12 x 12 Euler table.

    kind "sum" evaluates to -(m1 + m2 - offset)/12 + shift, "m1" to
    (m1 - offset)/12 + shift, "m2" to (m2 - offset)/12 + shift, and "zero"
    to 0.  The division is always exact for weights with the cell's
    residues.
    """

    kind: str
    offset: int = 0
    shift: int = 0

    def evaluate(self, m1: int, m2: int) -> int:
        if self.kind == "zero":
            return 0
        if self.kind == "sum":
            num = -(m1 + m2 - self.offset)
        elif self.kind == "m1":
            num = m1 - self.offset
        elif self.kind == "m2":
            num = m2 - self.offset
        else:
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if num % 12 != 0:
            raise CrossCheckError(f"{self} does not divide at ({m1}, {m2})")
        return num // 12 + self.shift

    def render(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "sum":
            body = "-(m1+m2)/12" if self.offset == 0 else f"-(m1+m2-{self.offset})/12"
        elif self.kind == "m1":
            body = f"(m1-{self.offset})/12"
        else:
            body = f"(m2-{self.offset})/12"
        if self.shift > 0:
            return f"{body} + {self.shift}"
        if self.shift < 0:
            return f"{body} - {-self.shift}"
        return body


def symbolic_cell(i: int, j: int) -> SymbolicCell:
    """The Euler table cell for m1 = i, m2 = j mod 12."""
    if not (0 <= i < 12 and 0 <= j < 12):
        raise ValueError(f"residues must be in 0..11, got ({i}, {j})")
    if i % 2 == 1 and j % 2 == 1:
        return SymbolicCell("zero")
    if i % 2 == 0 and j % 2 == 0:
        shift = -(1 + dim_cusp_forms(i + 2, EULER) + dim_cusp_forms(j + 2, EULER))
        return SymbolicCell("sum", offset=i + j, shift=shift)
    if i % 2 == 0:
        shift = dim_cusp_forms(i + j + 3, EULER) - dim_cusp_forms(i + 2, EULER)
        return SymbolicCell("m2", offset=j, shift=shift)
    shift = dim_cusp_forms(i + j + 3, EULER) - dim_cusp_forms(j + 2, EULER)
    return SymbolicCell("m1", offset=i, shift=shift)


def symbolic_table() -> list[list[SymbolicCell]]:
    """All 144 cells, rows indexed by m1 mod 12, columns by m2 mod 12."""
    return [[symbolic_cell(i, j) for j in range(12)] for i in range(12)]


def euler_values(m1_max: int, m2_max: int) -> list[list[int]]:
    """chi_h over 0 <= m1 <= m1_max, 0 <= m2 <= m2_max, one row per m1.

    Each weight is evaluated through its symbolic cell, so the cell's
    divisibility check runs at every weight; the 144 cells are built once
    per call.
    """
    if m1_max < 0 or m2_max < 0:
        raise ValueError("sweep bounds must be >= 0")
    cells = symbolic_table()
    m2s = range(m2_max + 1)
    out = []
    for m1 in range(m1_max + 1):
        row = cells[m1 % 12]
        out.append([row[m2 % 12].evaluate(m1, m2) for m2 in m2s])
    return out


def euler_report(lam: HighestWeight) -> dict:
    """Both routes and the table cell, as the report's euler block.

    CrossCheckError unless the torsion sum, the closed form and the cell agree.
    """
    sl3 = lam.sl3_part()
    wall = sl3_euler_wall(sl3)
    closed = sl3_euler_closed(sl3)
    row, col = sl3.m1 % 12, sl3.m2 % 12
    cell = symbolic_cell(row, col)
    value = cell.evaluate(sl3.m1, sl3.m2)
    if not wall == closed == value:
        raise CrossCheckError(
            f"chi at {lam}: torsion sum {wall}, closed {closed}, table cell {value}"
        )
    return {
        "chi_wall": wall,
        "chi_closed": closed,
        "table_cell": {"row": row, "col": col, "symbolic": cell.render()},
    }
