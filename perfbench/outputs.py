"""Checks of the program's outputs against the references in refs.py.

Every check returns a list of error strings; an empty list means the output
is correct.  The text, markdown and csv renderings are parsed here, so the
checks see only what a user of the command line sees.
"""
from __future__ import annotations

import re
from fractions import Fraction

import refs

FAMILIES = (
    "kostant",
    "trace_routes",
    "euler_routes",
    "gl2_routes",
    "survivors",
    "boundary_assembly",
    "identities",
    "ghosts",
    "random_spots",
)
ZERO, UNDETERMINED = "Zero", "UndeterminedZeroOrOne"
TRIVIAL, CUSP = "TrivialLine", "Cusp"


# ---- cohomology reports --------------------------------------------------

def _summand_dim(s: dict) -> int:
    if s["kind"] == TRIVIAL:
        return s["mult"]
    if s["kind"] == CUSP:
        return s["mult"] * refs.dim_cusp(s["k"])
    raise ValueError(f"unknown summand kind {s['kind']!r}")


def profile_chi(profile: dict) -> int:
    return sum((-1) ** int(q) * sum(_summand_dim(s) for s in summands) for q, summands in profile.items())


def check_report(op: dict, rep: dict) -> list[str]:
    """A JSON cohomology report against the references and the method's identities."""
    m1, m2, m3 = op["m1"], op["m2"], op["m3"]
    where = f"{op['group']} ({m1}, {m2}, {m3})"
    vanish = op["group"] == "gl3" and refs.gl3_vanishes(m1, m2, m3)
    case = refs.parity_case(m1, m2)
    chi = 0 if vanish else refs.chi_h(m1, m2)
    weight = {"m1": m1, "m2": m2} if m3 is None else {"m1": m1, "m2": m2, "m3": m3}
    errs = []

    def expect(what, got, want):
        if got != want:
            errs.append(f"{where}: {what} is {got!r}, expected {want!r}")

    expect("weight", rep["weight"], weight)
    expect("group", rep["group"], op["group"])
    expect("case_id", rep["case_id"], case)
    expect("vanishes", rep["vanishes"], vanish)
    euler, eis = rep["euler"], rep["eisenstein"]
    expect("chi_closed", euler["chi_closed"], chi)
    expect("chi_wall", euler["chi_wall"], chi)
    boundary, eis_profile = rep["boundary"], eis["profile"]
    expect("boundary degrees", sorted(boundary), [str(q) for q in range(5)])
    expect("eisenstein degrees", sorted(eis_profile), [str(q) for q in range(4)])
    if vanish:
        expect("boundary profile", any(boundary.values()), False)
        expect("eisenstein profile", any(eis_profile.values()), False)
        expect("table cell", euler["table_cell"], None)
        expect("identities", eis["identities"], {})
        expect("chi_eis", eis["chi_eis"], 0)
    else:
        cell = euler["table_cell"]
        expect("table cell row/col", (cell["row"], cell["col"]), (m1 % 12, m2 % 12))
        expect("table cell value", evaluate_cell(cell["symbolic"], m1, m2), chi)
        expect("identity flags", (len(eis["identities"]), all(v is True for v in eis["identities"].values())), (3, True))
        chi_eis = profile_chi(eis_profile)
        expect("chi of the Eisenstein profile", chi_eis, chi)
        expect("chi_eis", eis["chi_eis"], chi_eis)
        expect("twice chi_eis", 2 * chi_eis, profile_chi(boundary))
    ghosts = {
        str(q): UNDETERMINED if not vanish and q == 2 and case in (6, 7) else ZERO for q in range(5)
    }
    expect("ghost statuses", rep["ghost"], ghosts)
    expect("self_dual", rep["total"]["self_dual"], m1 == m2)
    expect("inner_known", rep["total"]["inner_known"], vanish or m1 != m2)
    return errs


_SUMMAND = re.compile(r"^(Q|S_(\d+))(?:\^(\d+))?$")


def _parse_summands(text: str) -> list:
    if text == "0":
        return []
    out = []
    for part in text.split(" + "):
        m = _SUMMAND.match(part)
        if m is None:
            raise ValueError(f"unreadable summand {part!r}")
        kind, k = (TRIVIAL, None) if m.group(1) == "Q" else (CUSP, int(m.group(2)))
        out.append((kind, k, int(m.group(3) or 1)))
    return sorted(out, key=repr)


def _json_summands(summands: list) -> list:
    return sorted(((s["kind"], s["k"], s["mult"]) for s in summands), key=repr)


def _numbers(rep: dict) -> dict:
    """What both the text and the markdown renderings must carry."""
    w = rep["weight"]
    return {
        "weight": (w["m1"], w["m2"], w.get("m3")),
        "group": rep["group"],
        "case": rep["case_id"],
        "vanishes": rep["vanishes"],
        "boundary": {q: _json_summands(rep["boundary"][str(q)]) for q in range(5)},
        "eisenstein": {q: _json_summands(rep["eisenstein"]["profile"][str(q)]) for q in range(4)},
        "chi_eis": rep["eisenstein"]["chi_eis"],
        "chi_h": rep["euler"]["chi_closed"],
        "chi_wall": rep["euler"]["chi_wall"],
        "ghost": {q: rep["ghost"][str(q)] for q in range(5)},
    }


_HEAD = re.compile(r"^(#\s)?(sl3|gl3) weight \((\d+), (\d+)(?:, (-?\d+))?\)(?:, case (\d))?$")
_CHI = re.compile(r"chi_h = (-?\d+) \(torsion sum (-?\d+)\)")
_CHI_EIS = re.compile(r"chi_eis = (-?\d+)")


def _head(parsed: dict, line: str) -> None:
    m = _HEAD.match(line)
    if m is None:
        raise ValueError(f"unreadable heading {line!r}")
    parsed["group"] = m.group(2)
    parsed["weight"] = (int(m.group(3)), int(m.group(4)), None if m.group(5) is None else int(m.group(5)))
    if m.group(6):
        parsed["case"] = int(m.group(6))


def _chis(parsed: dict, text: str) -> None:
    m, e = _CHI.search(text), _CHI_EIS.search(text)
    if m is None or e is None:
        raise ValueError("no chi line")
    parsed["chi_h"], parsed["chi_wall"], parsed["chi_eis"] = int(m.group(1)), int(m.group(2)), int(e.group(1))


def parse_text_report(text: str) -> dict:
    lines = text.splitlines()
    parsed = {"vanishes": False, "boundary": {}, "eisenstein": {}}
    _head(parsed, lines[0])
    section = None
    for line in lines[1:]:
        if line == "all cohomology vanishes (odd central character)":
            parsed["vanishes"] = True
        elif line in ("boundary cohomology:", "eisenstein cohomology:"):
            section = line.split()[0]
        elif line.startswith("  H^"):
            q, _, body = line[4:].partition(" = ")
            parsed[section][int(q)] = _parse_summands(body)
        elif line.startswith("ghost classes: "):
            parsed["ghost"] = {
                int(item[2]): item.split(": ")[1] for item in line[len("ghost classes: "):].split(", ")
            }
    _chis(parsed, text)
    return parsed


def parse_md_report(text: str) -> dict:
    lines = text.splitlines()
    parsed = {"boundary": {}, "eisenstein": {}, "ghost": {}}
    _head(parsed, lines[0])
    case_line = lines[2]
    parsed["case"] = int(case_line.split(",")[0].split()[1])
    parsed["vanishes"] = case_line.endswith(", vanishes")
    for line in lines:
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cols) == 4 and cols[0].isdigit():
            q = int(cols[0])
            parsed["boundary"][q] = _parse_summands(cols[1])
            if q < 4:
                parsed["eisenstein"][q] = _parse_summands(cols[2])
            parsed["ghost"][q] = cols[3]
    _chis(parsed, text)
    return parsed


def check_rendering(fmt: str, text: str, rep: dict) -> list[str]:
    """The text or md rendering carries the same numbers as the JSON report."""
    try:
        parsed = parse_text_report(text) if fmt == "text" else parse_md_report(text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{fmt} report unreadable: {exc}"]
    want = _numbers(rep)
    return [
        f"{fmt} report {want['weight']}: {key} is {parsed.get(key)!r}, json says {value!r}"
        for key, value in want.items()
        if parsed.get(key) != value
    ]


# ---- euler tables --------------------------------------------------------

_CELL = re.compile(r"^(-?)\((m1\+m2|m1|m2)(?:-(\d+))?\)/12(?: ([+-]) (\d+))?$")


def evaluate_cell(text: str, m1: int, m2: int) -> int | None:
    """Evaluate a rendered symbolic cell exactly; None if it is unreadable or not integral."""
    if text == "0":
        return 0
    m = _CELL.match(text)
    if m is None:
        return None
    var = {"m1+m2": m1 + m2, "m1": m1, "m2": m2}[m.group(2)]
    value = Fraction(var - int(m.group(3) or 0), 12)
    if m.group(1):
        value = -value
    if m.group(4):
        value += int(m.group(5)) if m.group(4) == "+" else -int(m.group(5))
    return int(value) if value.denominator == 1 else None


def parse_numeric_table(fmt: str, text: str) -> dict:
    """{(m1, m2): chi} from a numeric euler-table rendering."""
    lines = text.splitlines()
    cells = {}
    if fmt == "csv":
        if lines[0] != "m1,m2,chi":
            raise ValueError(f"csv header {lines[0]!r}")
        for line in lines[1:]:
            m1, m2, chi = (int(v) for v in line.split(","))
            cells[(m1, m2)] = chi
        return cells
    cols = [int(c) for c in lines[0].strip("|").split("|")[1:]]
    for line in lines[2:]:
        row = [int(c) for c in line.strip("|").split("|")]
        for m2, chi in zip(cols, row[1:]):
            cells[(row[0], m2)] = chi
    return cells


def parse_symbolic_table(fmt: str, text: str) -> dict:
    """{(i, j): cell text} from a symbolic euler-table rendering."""
    lines = text.splitlines()
    cells = {}
    if fmt == "csv":
        if lines[0] != "m1_mod_12,m2_mod_12,cell":
            raise ValueError(f"csv header {lines[0]!r}")
        for line in lines[1:]:
            i, j, cell = line.split(",", 2)
            cells[(int(i), int(j))] = cell.strip('"')
        return cells
    for line in lines[2:]:
        row = [c.strip() for c in line.strip().strip("|").split("|")]
        for j, cell in enumerate(row[1:]):
            cells[(int(row[0]), j)] = cell
    return cells


def check_numeric_table(fmt: str, text: str, side: int, reference: dict) -> list[str]:
    try:
        cells = parse_numeric_table(fmt, text)
    except (ValueError, IndexError) as exc:
        return [f"numeric {fmt} table unreadable: {exc}"]
    if cells.keys() != reference.keys():
        return [f"numeric {fmt} table covers {len(cells)} cells, expected {(side + 1) ** 2}"]
    return [
        f"numeric {fmt} cell {key}: {cells[key]}, reference chi_h {want}"
        for key, want in reference.items()
        if cells[key] != want
    ][:20]


def check_symbolic_table(fmt: str, text: str, numeric: dict) -> list[str]:
    """Each parsed cell, evaluated, matches the numeric cells of its residue class."""
    try:
        cells = parse_symbolic_table(fmt, text)
    except (ValueError, IndexError) as exc:
        return [f"symbolic {fmt} table unreadable: {exc}"]
    if sorted(cells) != [(i, j) for i in range(12) for j in range(12)]:
        return [f"symbolic {fmt} table has {len(cells)} cells, expected 144"]
    errs = []
    for (m1, m2), chi in numeric.items():
        got = evaluate_cell(cells[(m1 % 12, m2 % 12)], m1, m2)
        if got != chi:
            errs.append(f"symbolic {fmt} cell {(m1 % 12, m2 % 12)} gives {got} at ({m1}, {m2}), numeric {chi}")
    return errs[:20]


# ---- verify ----------------------------------------------------------------

def check_verify(rep: dict, bound: int, seed: int) -> list[str]:
    errs = []
    if (rep.get("max_weight"), rep.get("seed")) != (bound, seed):
        errs.append(f"verify echoes bound/seed {rep.get('max_weight')}/{rep.get('seed')}")
    if tuple(rep.get("families", ())) != FAMILIES:
        errs.append(f"verify families {list(rep.get('families', ()))}")
    if rep.get("ok") is not True or rep.get("failures"):
        errs.append(f"verify is not ok: {rep.get('failures', [])[:3]}")
    if any(info.get("failures") for info in rep.get("families", {}).values()):
        errs.append("a verify family reports failures")
    return errs


def check_negative_control(rep: dict, i: int, j: int) -> list[str]:
    """With M6[i][j] corrupted, run_all must fail and name gt_trace_vs_closed_trace there."""
    caught = [
        f
        for f in rep.get("failures", [])
        if f["check"] == "gt_trace_vs_closed_trace"
        and f["params"]["k"] == 6
        and (f["params"]["m1"] % 6, f["params"]["m2"] % 6) == (i, j)
    ]
    if rep.get("ok") is not False or not caught:
        return [f"negative control: a corrupted traces.M6[{i}][{j}] was not reported as gt_trace_vs_closed_trace"]
    return []
