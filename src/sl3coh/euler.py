"""Homological Euler characteristics of SL3(Z) and GL3(Z).

Two routes for chi_h(SL3(Z), M_(m1,m2)):

* sl3_euler_wall: the rational sum over torsion classes, each contributing
  (centralizer Euler characteristic) x (class count) x (trace on M);
* sl3_euler_closed: the closed form in cusp form dimensions, organized by
  the parities of (m1, m2), with the residual value dim S_2 = -1 (_dim_s;
  gl2.dim_cusp_forms keeps the classical dim S_2 = 0).

chi_h is periodic-plus-linear in (m1, m2) mod 12.  The 144 cells of its
12 x 12 table are fitted from the torsion sum once, at import, so the
parity split is typed in sl3_euler_closed only; a sum that does not fit
raises at each read of the cells instead.  euler_values evaluates each
cell once and steps twelve at a time from there.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from operator import add

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
        chi_num, chi_den = cls.centralizer_chi.as_integer_ratio()
        term = chi_num * cls.resultant * closed_trace(lam.m1, lam.m2, 0, cls.order)
        num, den = num * chi_den + term * den, den * chi_den
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


_CELL_FORMS = {"zero": (0, 0, 0), "sum": (-1, -1, 1), "m1": (1, 0, -1), "m2": (0, 1, -1)}
_FIT_STEPS = ((0, 0), (12, 0), (0, 12))


class SymbolicCell(namedtuple("SymbolicCell", ("kind", "offset", "shift"), defaults=(0, 0))):
    """One cell of the 12 x 12 Euler table.

    It evaluates to (a m1 + b m2 + c offset)/12 + shift with (a, b, c) =
    _CELL_FORMS[kind]: -(m1 + m2 - offset)/12 + shift for kind "sum",
    (m1 - offset)/12 + shift for "m1", (m2 - offset)/12 + shift for "m2",
    and 0 for "zero".  The division is exact for the cell's residues.
    """

    __slots__ = ()

    def __new__(cls, kind: str, offset: int = 0, shift: int = 0) -> "SymbolicCell":
        # built first: the errors below show its repr
        self = tuple.__new__(cls, (kind, offset, shift))
        if kind not in _CELL_FORMS:
            raise ValueError(f"unknown cell kind {kind!r}")
        if type(offset) is not int or type(shift) is not int:
            raise TypeError(f"offset and shift must be ints, got {self!r}")
        if kind == "zero" and (offset or shift):
            raise ValueError(f"a zero cell has no offset or shift, got {self!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "SymbolicCell":
        # _replace builds through _make: keep it checked
        return cls(*iterable)

    def evaluate(self, m1: int, m2: int) -> int:
        a, b, c = _CELL_FORMS[self.kind]
        num = a * m1 + b * m2 + c * self.offset
        if num % 12 != 0:
            raise CrossCheckError(f"{self} does not divide at ({m1}, {m2})")
        return num // 12 + self.shift

    def render(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "sum":
            body = "-(m1+m2)/12" if self.offset == 0 else f"-(m1+m2-{self.offset})/12"
        else:
            body = f"({self.kind}-{self.offset})/12"
        if self.shift > 0:
            return f"{body} + {self.shift}"
        if self.shift < 0:
            return f"{body} - {-self.shift}"
        return body


def _fit_cell(i: int, j: int) -> SymbolicCell:
    """The cell of residues (i, j), fitted from the torsion sum.

    The value at (i, j) is the shift, the steps to (i + 12, j) and
    (i, j + 12) are the kind's (a, b), and the offset zeroes the numerator.
    """
    shift, at_i, at_j = (sl3_euler_wall(HighestWeight(i + p, j + q)) for p, q in _FIT_STEPS)
    steps = (at_i - shift, at_j - shift)
    kind = next((k for k, form in _CELL_FORMS.items() if form[:2] == steps), None)
    if kind is None:
        raise CrossCheckError(f"torsion sum steps {steps} at ({i}, {j}) name no cell kind")
    a, b, c = _CELL_FORMS[kind]
    return SymbolicCell(kind, -c * (a * i + b * j), shift)


@cache
def _cells() -> tuple[tuple[SymbolicCell, ...], ...]:
    """The 144 fitted cells, rows indexed by m1 mod 12, columns by m2 mod 12."""
    return tuple(tuple(_fit_cell(i, j) for j in range(12)) for i in range(12))


try:  # fitted at load, not in the first call; verify records a bad fit
    _cells()
except CrossCheckError:
    pass


def symbolic_cell(i: int, j: int) -> SymbolicCell:
    """The Euler table cell for m1 = i, m2 = j mod 12."""
    if type(i) is not int or type(j) is not int:
        raise TypeError(f"residues must be ints, got ({i!r}, {j!r})")
    if not (0 <= i < 12 and 0 <= j < 12):
        raise ValueError(f"residues must be in 0..11, got ({i}, {j})")
    return _cells()[i][j]


def symbolic_table() -> list[list[SymbolicCell]]:
    """All 144 cells, rows indexed by m1 mod 12, columns by m2 mod 12."""
    return [list(row) for row in _cells()]


def euler_values(m1_max: int, m2_max: int) -> list[list[int]]:
    """chi_h over 0 <= m1 <= m1_max, 0 <= m2 <= m2_max, one row per m1.

    Each fitted cell is evaluated once, with its divisibility check, at
    its residue weight (i, j).  Every other entry is the entry twelve back
    plus the cell's step along that axis, the (a, b) of its kind: b along m2
    in rows 0..11, a along m1 in later rows.  The numerator moves by
    12 x step, so the checks at the base weights cover every entry.
    """
    if type(m1_max) is not int or type(m2_max) is not int:
        raise TypeError(f"sweep bounds must be ints, got ({m1_max!r}, {m2_max!r})")
    if m1_max < 0 or m2_max < 0:
        raise ValueError("sweep bounds must be >= 0")
    cells, width = _cells(), m2_max + 1
    out = []
    for m1 in range(min(m1_max, 11) + 1):
        row = [0] * width
        for j, cell in enumerate(cells[m1][:width]):
            first, step = cell.evaluate(m1, j), _CELL_FORMS[cell.kind][1]
            count = (width - 1 - j) // 12 + 1
            row[j::12] = range(first, first + step * count, step) if step else [first] * count
        out.append(row)
    steps = [[_CELL_FORMS[cell.kind][0] for cell in row] * (width // 12 + 1) for row in cells]
    for m1 in range(12, m1_max + 1):
        out.append(list(map(add, out[m1 - 12], steps[m1 % 12])))
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
