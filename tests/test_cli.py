"""The command line interface, run in process through main()."""
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sl3coh
from sl3coh import HighestWeight, checks, cli, cohomology_report, sl3_euler_closed, traces
from sl3coh.cli import main
from sl3coh.rootsystem import WeylElement
from test_acceptance import PINNED_TABLE


SRC = str(Path(__file__).resolve().parent.parent / "src")
# child interpreters block-buffer stdout, as in a shell pipeline
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": SRC}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cohomology_json_structure(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "sl3", "--m1", "0", "--m2", "11"
    )
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "sl3coh"
    assert report["group"] == "sl3"
    assert report["weight"] == {"m1": 0, "m2": 11}
    assert report["case_id"] == 6
    assert report["vanishes"] is False
    assert set(report["boundary"]) == {"0", "1", "2", "3", "4"}
    assert report["boundary"]["2"] == [
        {"kind": "TrivialLine", "k": None, "mult": 2},
        {"kind": "Cusp", "k": 14, "mult": 2},
    ]
    assert report["boundary"]["0"] == []
    eis = report["eisenstein"]
    assert set(eis["profile"]) == {"0", "1", "2", "3"}
    assert eis["profile"]["2"] == [
        {"kind": "TrivialLine", "k": None, "mult": 1},
        {"kind": "Cusp", "k": 14, "mult": 1},
    ]
    assert eis["chi_eis"] == 1
    assert eis["identities"] == {
        "chi_eis_equals_chi_h": True,
        "half_boundary": True,
        "poincare_pair": True,
    }
    assert report["euler"]["chi_wall"] == report["euler"]["chi_closed"] == 1
    assert report["euler"]["table_cell"]["row"] == 0
    assert report["euler"]["table_cell"]["col"] == 11
    assert report["ghost"]["2"] == "UndeterminedZeroOrOne"
    assert report["ghost"]["0"] == "Zero"
    assert report["total"] == {"self_dual": False, "inner_known": True}


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [{}, []]},
        {"n": [0, -2, 10**30], "flags": [True, False, None]},
        {"s": 'quote " backslash \\ tab \t accent \u00e9 partial \u2202'},
        cohomology_report(HighestWeight(0, 11)),
        cohomology_report(HighestWeight(1, 0, 0)),
    ],
    ids=["dict", "list", "empties", "scalars", "escapes", "report", "vanishing"],
)
def test_json_text_is_json_dumps_with_indent_two(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "int key"}])
def test_json_text_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_cohomology_gl3_vanishing(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "gl3",
        "--m1", "0", "--m2", "0", "--m3", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["vanishes"] is True
    assert report["weight"] == {"m1": 0, "m2": 0, "m3": 1}
    assert all(report["boundary"][q] == [] for q in report["boundary"])
    assert report["eisenstein"]["chi_eis"] == 0
    assert report["euler"] == {"chi_wall": 0, "chi_closed": 0, "table_cell": None}
    assert all(s == "Zero" for s in report["ghost"].values())
    assert report["total"]["inner_known"] is True


def test_cohomology_gl3_even(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "gl3",
        "--m1", "10", "--m2", "0", "--m3", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["vanishes"] is False
    assert report["euler"]["chi_wall"] == report["euler"]["chi_closed"] == -1
    assert report["boundary"]["1"] == [{"kind": "Cusp", "k": 12, "mult": 1}]


def _line():
    return {"kind": "TrivialLine", "k": None, "mult": 1}


def _cusp(k, mult=1):
    return {"kind": "Cusp", "k": k, "mult": mult}


def _degrees(top, summands):
    return {str(q): summands.get(q, []) for q in range(top)}


_CASE4 = [_line(), _cusp(1000000000004), _cusp(3000000000002)]
_CASE4_GL3 = [_line(), _cusp(1000000000006), _cusp(6000000000002)]


# m1 > m2, so the order by k differs from the case tables' order (m1 first)
@pytest.mark.parametrize(
    "argv, boundary, eisenstein",
    [
        pytest.param(
            ("sl3", "3000000000000", "1000000000002"),
            {1: _CASE4, 3: _CASE4},
            {3: _CASE4},
            id="case4",
        ),
        pytest.param(
            ("sl3", "2000000000004", "1000000000001"),
            {
                1: [_cusp(2000000000006)],
                2: [_cusp(3000000000008, 2)],
                3: [_cusp(2000000000006)],
            },
            {2: [_cusp(3000000000008)], 3: [_cusp(2000000000006)]},
            id="case5",
        ),
        pytest.param(
            ("sl3", "1000000000003", "400000000002"),
            {
                1: [_cusp(400000000004)],
                2: [_cusp(1400000000008, 2)],
                3: [_cusp(400000000004)],
            },
            {2: [_cusp(1400000000008)], 3: [_cusp(400000000004)]},
            id="case8",
        ),
        pytest.param(
            ("gl3", "6000000000000", "1000000000004", "2000000000000"),
            {1: _CASE4_GL3, 3: _CASE4_GL3},
            {3: _CASE4_GL3},
            id="gl3_case4",
        ),
    ],
)
def test_summand_order_at_large_weights(capsys, argv, boundary, eisenstein):
    group, m1, m2, *m3 = argv
    extra = ["--m3", *m3] if m3 else []
    code, out = run(capsys, "cohomology", "--group", group, "--m1", m1, "--m2", m2, *extra)
    assert code == 0
    report = json.loads(out)
    assert report["boundary"] == _degrees(5, boundary)
    assert report["eisenstein"]["profile"] == _degrees(4, eisenstein)


def test_cohomology_text_format(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "sl3",
        "--m1", "0", "--m2", "11", "--format", "text",
    )
    assert code == 0
    assert "sl3 weight (0, 11), case 6" in out
    assert "  H^2 = Q^2 + S_14^2" in out
    assert "chi_eis = 1" in out
    assert "chi_h = 1 (torsion sum 1)" in out
    assert "table cell (0, 11): (m2-11)/12 + 1" in out


def test_cohomology_md_format(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "sl3",
        "--m1", "0", "--m2", "0", "--format", "md",
    )
    assert code == 0
    assert "# sl3 weight (0, 0)" in out
    assert "| q | boundary | eisenstein | ghost |" in out
    assert "| 0 | Q | Q | Zero |" in out
    assert "| 4 | Q |  | Zero |" in out


def test_text_and_md_profiles_render_alike(capsys):
    # both formats write a degree's summands the same way, "0" when empty
    _, text = run(
        capsys, "cohomology", "--group", "sl3",
        "--m1", "0", "--m2", "11", "--format", "text",
    )
    _, md = run(
        capsys, "cohomology", "--group", "sl3",
        "--m1", "0", "--m2", "11", "--format", "md",
    )
    text_lines = text.splitlines()
    start = text_lines.index("boundary cohomology:")
    assert text_lines[start + 1 : start + 6] == [
        "  H^0 = 0",
        "  H^1 = 0",
        "  H^2 = Q^2 + S_14^2",
        "  H^3 = 0",
        "  H^4 = 0",
    ]
    assert text_lines[start + 7 : start + 11] == [
        "  H^0 = 0",
        "  H^1 = 0",
        "  H^2 = Q + S_14",
        "  H^3 = 0",
    ]
    assert "| 0 | 0 | 0 | Zero |" in md.splitlines()
    assert "| 2 | Q^2 + S_14^2 | Q + S_14 | UndeterminedZeroOrOne |" in md.splitlines()
    assert "| 4 | 0 |  | Zero |" in md.splitlines()


def test_symbolic_table_csv(capsys):
    code, out = run(capsys, "euler-table", "--symbolic", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m1_mod_12,m2_mod_12,cell"
    assert lines[1] == '0,0,"-(m1+m2)/12 + 1"'
    assert len(lines) == 145


def _pinned_symbolic_table(fmt):
    # the symbolic table rendered straight from the hand-transcribed cells
    if fmt == "csv":
        lines = ["m1_mod_12,m2_mod_12,cell"] + [
            f'{i},{j},"{cell}"'
            for i, row in enumerate(PINNED_TABLE)
            for j, cell in enumerate(row)
        ]
    else:
        lines = [
            "| m1\\m2 | " + " | ".join(str(j) for j in range(12)) + " |",
            "|---" * 13 + "|",
        ] + [f"| {i} | " + " | ".join(row) + " |" for i, row in enumerate(PINNED_TABLE)]
    return "\n".join(lines) + "\n"


def _format(fmt):
    # None runs with no --format, which must give the md bytes
    return ("--format", fmt) if fmt else ()


@pytest.mark.parametrize("fmt", ["csv", "md", pytest.param(None, id="default")])
def test_symbolic_table_matches_the_pinned_table(capsys, fmt):
    code, out = run(capsys, "euler-table", "--symbolic", *_format(fmt))
    assert code == 0
    assert out == _pinned_symbolic_table(fmt or "md")


def _reference_table(m1_max, m2_max, fmt):
    # the numeric table rendered straight from the closed form
    chi = {
        (m1, m2): sl3_euler_closed(HighestWeight(m1, m2))
        for m1 in range(m1_max + 1)
        for m2 in range(m2_max + 1)
    }
    if fmt == "csv":
        lines = ["m1,m2,chi"] + [f"{m1},{m2},{v}" for (m1, m2), v in chi.items()]
    else:
        cols = range(m2_max + 1)
        lines = [
            "| m1\\m2 | " + " | ".join(str(m2) for m2 in cols) + " |",
            "|---" * (m2_max + 2) + "|",
        ] + [
            f"| {m1} | " + " | ".join(str(chi[m1, m2]) for m2 in cols) + " |"
            for m1 in range(m1_max + 1)
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "md", pytest.param(None, id="default")])
@pytest.mark.parametrize(
    "m1_max, m2_max",
    [
        (40, 40), (0, 0), (13, 0), (0, 25), (11, 13), (25, 11), (3, 150), (150, 3),
        (12, 2), (2, 3), (150, 150),
        # around m1 = 12: the last rows of the first twelve and the first rows
        # twelve above them, at widths 1, 2, 13, 14 and 31
        (11, 30), (12, 0), (23, 12), (24, 1), (36, 13),
    ],
)
def test_numeric_table_matches_the_closed_form(capsys, fmt, m1_max, m2_max):
    code, out = run(
        capsys, "euler-table", "--m1-max", str(m1_max), "--m2-max", str(m2_max),
        *_format(fmt),
    )
    assert code == 0
    assert out == _reference_table(m1_max, m2_max, fmt or "md")


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max", "6", "--seed", "3")
    assert code == 0
    assert "verify: sweeps up to weight 6, seed 3" in out
    assert "trace_routes: ok" in out
    assert "all checks passed" in out


def test_verify_reports_failures(capsys, monkeypatch):
    # the +6 shift keeps the torsion sums integral, see test_checks
    bad = tuple(
        tuple(7 if (i, j) == (0, 0) else v for j, v in enumerate(row))
        for i, row in enumerate(traces.M6)
    )
    monkeypatch.setattr(traces, "M6", bad)
    code, out = run(capsys, "verify", "--max", "6")
    assert code == 1
    assert "gt_trace_vs_closed_trace" in out
    # the records print as json.dumps(..., indent=2) would print them
    records = json.dumps(checks.run_all(6)["failures"], indent=2)
    assert out.split("failures:\n", 1)[1] == records + "\n"


def test_verify_exits_one_when_a_route_raises(capsys, monkeypatch, cold_boundary_caches):
    clean = WeylElement.dot

    def corrupted(self, lam):
        # makes d1 hit two targets, which boundary_profile raises on
        c1, c2, c3 = clean(self, lam)
        return (c1 + 1, c2, c3) if self.name == "s1" else (c1, c2, c3)

    monkeypatch.setattr(WeylElement, "dot", corrupted)
    code, out = run(capsys, "verify", "--max", "6")
    assert code == 1
    assert "boundary_assembly: 1 FAILED" in out
    assert "boundary_assembly_raised" in out


# an extra family that always fails, so that verify decides on exit 1
_FAILING_FAMILY = (
    'checks.CHECKS += (("failing", lambda max_weight, seed: '
    '[checks._fail("failing", {}, "injected")]),)'
)


@pytest.mark.parametrize(
    "argv, setup, code",
    [
        (["cohomology", "--group", "sl3", "--m1", "2", "--m2", "4"], "", 0),
        (["euler-table", "--m1-max", "150", "--m2-max", "150"], "", 0),
        (["verify", "--max", "2"], "", 0),
        (["verify", "--max", "2"], _FAILING_FAMILY, 1),
    ],
    ids=["cohomology", "euler_table", "verify_ok", "verify_failed"],
)
def test_a_closed_stdout_keeps_the_exit_status(argv, setup, code):
    script = f"import sys\nfrom sl3coh import checks, cli\n{setup}\nsys.exit(cli.main(sys.argv[1:]))"
    # a pipe whose reader is gone before the command writes a byte
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            stdout=write, stderr=subprocess.PIPE, env=ENV, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_out_writes_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(
        capsys, "cohomology", "--group", "sl3",
        "--m1", "2", "--m2", "4", "--out", str(target),
    )
    assert code == 0
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["weight"] == {"m1": 2, "m2": 4}
    assert report["case_id"] == 4


def test_an_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as err:
        main([
            "cohomology", "--group", "sl3", "--m1", "1", "--m2", "1",
            "--out", str(target),
        ])
    assert err.value.code == 2
    out, errors = capsys.readouterr()
    assert out == ""
    assert errors.startswith("sl3coh: error: cannot write ")
    assert errors.count("\n") == 1
    assert not target.exists()


USAGE_ERRORS = [
    (
        ["cohomology", "--group", "sl3", "--m1", "-1", "--m2", "0"],
        "sl3coh cohomology: error: argument --m1: must be >= 0: -1",
    ),
    (
        ["cohomology", "--group", "sl3", "--m1", "0", "--m2", "0", "--m3", "0"],
        "sl3coh cohomology: error: --m3 only applies to --group gl3",
    ),
    (
        ["cohomology", "--group", "gl3", "--m1", "0", "--m2", "0"],
        "sl3coh cohomology: error: --group gl3 needs --m3",
    ),
    (
        ["euler-table", "--symbolic", "--m1-max", "4"],
        "sl3coh euler-table: error: --symbolic excludes --m1-max/--m2-max",
    ),
    (
        ["euler-table"],
        "sl3coh euler-table: error: "
        "need either --symbolic or both --m1-max and --m2-max",
    ),
    (
        ["euler-table", "--m1-max", "4"],
        "sl3coh euler-table: error: "
        "need either --symbolic or both --m1-max and --m2-max",
    ),
    (
        ["verify", "--max", "-2"],
        "sl3coh verify: error: argument --max: must be >= 0: -2",
    ),
    (
        ["cohomology", "--group", "sl3", "--m1", "x", "--m2", "0"],
        "sl3coh cohomology: error: argument --m1: not an integer: 'x'",
    ),
    (
        ["cohomology", "--group", "sl3", "--m1", "0", "--m2", "0", "--bogus"],
        "sl3coh cohomology: error: unrecognized arguments: --bogus",
    ),
    (
        ["euler-table", "--symbolic", "--bogus"],
        "sl3coh euler-table: error: unrecognized arguments: --bogus",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    USAGE_ERRORS,
    ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))],
)
def test_usage_errors_exit_two(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    # the usage line, then the message that names the guard that fired
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_consecutive_calls_in_one_process(capsys):
    code, out = run(capsys, "cohomology", "--group", "sl3", "--m1", "2", "--m2", "4")
    assert code == 0
    assert json.loads(out)["weight"] == {"m1": 2, "m2": 4}
    code, out = run(
        capsys, "cohomology", "--group", "gl3", "--m1", "1", "--m2", "0",
        "--m3", "1", "--format", "text",
    )
    assert code == 0
    assert out.startswith("gl3 weight (1, 0, 1), case 7")
    code, out = run(
        capsys, "euler-table", "--m1-max", "1", "--m2-max", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "m1,m2,chi"
    # nothing of the earlier calls carries over
    code, out = run(capsys, "cohomology", "--group", "sl3", "--m1", "0", "--m2", "0")
    assert code == 0
    report = json.loads(out)
    assert report["weight"] == {"m1": 0, "m2": 0}
    assert "m3" not in report["weight"]


def test_usage_error_then_a_valid_call(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cohomology", "--group", "sl3", "--m1", "0", "--m2", "0", "--m3", "0"])
    assert err.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "cohomology", "--group", "sl3", "--m1", "0", "--m2", "11")
    assert code == 0
    assert json.loads(out)["case_id"] == 6


def test_no_call_builds_a_parser(capsys, monkeypatch):
    # the parser is built when sl3coh.cli loads, so the first call of a
    # process costs what every later call does
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    code, out = run(capsys, "euler-table", "--m1-max", "1", "--m2-max", "1")
    assert code == 0
    assert out.splitlines()[2] == "| 0 | 1 | 1 |"


def _outcome(call, argv):
    # stdout, stderr and exit code of one call, whether it returns or exits
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


_TOP_USAGE = "usage: sl3coh [-h] [--version] {cohomology,euler-table,verify} ...\n"

# what these calls printed when every call went through the top-level
# parser: stdout, stderr, the exit code, and whether both texts are pinned
# whole; the help text and the list after "invalid choice" are argparse's
# wording, which differs between Python versions, so only their start is
_TOP_LEVEL_CALLS = {
    "no_arguments": (
        [],
        "",
        _TOP_USAGE + "sl3coh: error: the following arguments are required: command\n",
        2,
        True,
    ),
    "version": (["--version"], sl3coh.__version__ + "\n", "", 0, True),
    "help": (["-h"], _TOP_USAGE + "\nBoundary and Eisenstein cohomology", "", 0, False),
    "unknown_command": (
        ["frob"],
        "",
        _TOP_USAGE + "sl3coh: error: argument command: invalid choice: 'frob'",
        2,
        False,
    ),
}


@pytest.fixture
def top_level_parse_raises(monkeypatch):
    class ReachedTopLevel(Exception):
        pass

    def parse_args(*args, **kwargs):
        raise ReachedTopLevel

    monkeypatch.setattr(cli._PARSER, "parse_args", parse_args)
    return ReachedTopLevel


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--group", "gl3", "--m1", "2", "--m2", "3", "--m3", "1"],
        ["euler-table", "--m1-max", "2", "--m2-max", "2", "--format", "csv"],
        ["verify", "--max", "2"],
    ],
    ids=["cohomology", "euler_table", "verify"],
)
def test_a_subcommand_is_parsed_once(argv, top_level_parse_raises):
    # each subcommand's own parser reads its arguments; the top-level one
    # never sees them
    out, err, code = _outcome(main, argv)
    assert (err, code) == ("", 0)
    assert out


@pytest.mark.parametrize(
    "argv", [call[0] for call in _TOP_LEVEL_CALLS.values()], ids=_TOP_LEVEL_CALLS
)
def test_the_rest_reaches_the_top_level_parser(argv, top_level_parse_raises):
    with pytest.raises(top_level_parse_raises):
        main(argv)


@pytest.mark.parametrize(
    "argv, want_out, want_err, want_code, whole",
    _TOP_LEVEL_CALLS.values(),
    ids=_TOP_LEVEL_CALLS,
)
def test_the_top_level_parser_prints_what_it_did(
    argv, want_out, want_err, want_code, whole, monkeypatch
):
    # argparse wraps its usage line and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    out, err, code = _outcome(main, argv)
    assert code == want_code
    if whole:
        assert (out, err) == (want_out, want_err)
    else:
        assert out.startswith(want_out) and err.startswith(want_err)
        # and a text pinned as empty stays empty
        assert bool(out) == bool(want_out) and bool(err) == bool(want_err)


# sha256 of the concatenated stdout of the golden cohomology sweep, and an
# 8-hex-digit sha256 prefix of each call's stdout, in sweep order, that
# names the first call whose output changed
GOLDEN_DIGEST = "e6cbf82714393099706d97093fc057c78c738668a63e935d080d5c8fe493273f"
GOLDEN_CALLS = Path(__file__).with_name("golden_cohomology.txt")


def _golden_argvs():
    groups = [("sl3", ())] + [("gl3", ("--m3", str(m3))) for m3 in (-1, 0, 1, 2)]
    side = range(14)
    for m1, m2, fmt, (group, m3) in itertools.product(
        side, side, ("json", "text", "md"), groups
    ):
        yield [
            "cohomology", "--group", group, "--m1", str(m1), "--m2", str(m2),
            *m3, "--format", fmt,
        ]


def _golden_outputs():
    outputs = []
    for argv in _golden_argvs():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        outputs.append((argv, buf.getvalue()))
    return outputs


def test_cohomology_output_matches_the_golden_sweep():
    outputs = _golden_outputs()
    want = GOLDEN_CALLS.read_text(encoding="ascii").split()
    assert len(outputs) == len(want) == 2940
    for (argv, text), fingerprint in zip(outputs, want):
        got = hashlib.sha256(text.encode()).hexdigest()[:8]
        assert got == fingerprint, f"first changed output: {' '.join(argv)}"
    whole = "".join(text for _, text in outputs).encode()
    assert hashlib.sha256(whole).hexdigest() == GOLDEN_DIGEST
