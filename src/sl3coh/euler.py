"""Homological Euler characteristics of SL3(Z) and GL3(Z).

Two routes for chi_h(SL3(Z), M_(m1,m2)):

* sl3_euler_wall: the rational sum over torsion classes, each contributing
  (centralizer Euler characteristic) x (class count) x (trace on M);
* sl3_euler_closed: the closed form in cusp form dimensions, organized by
  the parities of (m1, m2), with the residual value dim S_2 = -1 (_dim_s;
  gl2.dim_cusp_forms keeps the classical dim S_2 = 0).

The closed form is periodic-plus-linear in (m1, m2) mod 12, which gives the
12 x 12 table of symbolic cells; euler_values evaluates the cells over a
numeric sweep.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckError
from .gl2 import dim_cusp_forms
from .rootsystem import HighestWeight
from .traces import SL3_TORSION_CLASSES, closed_trace


def _dim_s(k: int) -> int:
    """dim S_k with the residual value dim S_2 = -1 of the Euler formulas."""
    return -1 if k == 2 else dim_cusp_forms(k)


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
        return -1 - _dim_s(m1 + 2) - _dim_s(m2 + 2)
    if m1 % 2 == 0:
        return -_dim_s(m1 + 2) + _dim_s(m1 + m2 + 3)
    if m2 % 2 == 0:
        return -_dim_s(m2 + 2) + _dim_s(m1 + m2 + 3)
    return 0


@dataclass(frozen=True, slots=True)
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

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "sum", "m1", "m2"):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if type(self.offset) is not int or type(self.shift) is not int:
            raise TypeError(f"offset and shift must be ints, got {self!r}")

    def evaluate(self, m1: int, m2: int) -> int:
        if self.kind == "zero":
            return 0
        if self.kind == "sum":
            num = -(m1 + m2 - self.offset)
        elif self.kind == "m1":
            num = m1 - self.offset
        else:
            num = m2 - self.offset
        if num % 12 != 0:
            raise CrossCheckError(f"{self} does not divide at ({m1}, {m2})")
        return num // 12 + self.shift

    def run(self, m1: int, m2: int, count: int) -> list[int]:
        """The values at (m1, m2 + 12 t) for 0 <= t < count.

        The numerator moves by a multiple of 12 along the run, so evaluate's
        divisibility check at its first two weights covers every weight.
        """
        first = self.evaluate(m1, m2)
        step = self.evaluate(m1, m2 + 12) - first
        return list(range(first, first + step * count, step)) if step else [first] * count

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
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"residues must be ints, got ({i!r}, {j!r})")
    if not (0 <= i < 12 and 0 <= j < 12):
        raise ValueError(f"residues must be in 0..11, got ({i}, {j})")
    if i % 2 == 1 and j % 2 == 1:
        return SymbolicCell("zero")
    if i % 2 == 0 and j % 2 == 0:
        shift = -(1 + _dim_s(i + 2) + _dim_s(j + 2))
        return SymbolicCell("sum", offset=i + j, shift=shift)
    if i % 2 == 0:
        shift = _dim_s(i + j + 3) - _dim_s(i + 2)
        return SymbolicCell("m2", offset=j, shift=shift)
    shift = _dim_s(i + j + 3) - _dim_s(j + 2)
    return SymbolicCell("m1", offset=i, shift=shift)


def symbolic_table() -> list[list[SymbolicCell]]:
    """All 144 cells, rows indexed by m1 mod 12, columns by m2 mod 12."""
    return [[symbolic_cell(i, j) for j in range(12)] for i in range(12)]


def euler_values(m1_max: int, m2_max: int) -> list[list[int]]:
    """chi_h over 0 <= m1 <= m1_max, 0 <= m2 <= m2_max, one row per m1.

    The 144 cells are built once per call; each row is filled by 12 residue
    runs m2 = j, j + 12, ... (SymbolicCell.run), whose divisibility checks
    at the first two weights of a run cover the whole run.
    """
    if type(m1_max) is not int or type(m2_max) is not int:
        raise TypeError(f"sweep bounds must be ints, got ({m1_max!r}, {m2_max!r})")
    if m1_max < 0 or m2_max < 0:
        raise ValueError("sweep bounds must be >= 0")
    cells = symbolic_table()
    width = m2_max + 1
    out = []
    for m1 in range(m1_max + 1):
        row = [0] * width
        for j, cell in enumerate(cells[m1 % 12][:width]):
            row[j::12] = cell.run(m1, j, (width - 1 - j) // 12 + 1)
        out.append(row)
    return out


def euler_report(lam: HighestWeight) -> dict:
    """Both routes and the table cell, as the report's euler block.

    CrossCheckError unless the torsion sum, the closed form and the cell agree.
    """
    wall = sl3_euler_wall(lam)
    closed = sl3_euler_closed(lam)
    row, col = lam.m1 % 12, lam.m2 % 12
    cell = symbolic_cell(row, col)
    value = cell.evaluate(lam.m1, lam.m2)
    if not wall == closed == value:
        raise CrossCheckError(
            f"chi at {lam}: torsion sum {wall}, closed {closed}, table cell {value}"
        )
    return {
        "chi_wall": wall,
        "chi_closed": closed,
        "table_cell": {"row": row, "col": col, "symbolic": cell.render()},
    }
