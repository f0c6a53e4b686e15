"""Command line interface.

Three subcommands:

* cohomology: full report (boundary, Eisenstein, Euler, ghosts, identities)
  for one weight, as json, text, or markdown;
* euler-table: the 12 x 12 symbolic Euler table or a numeric sweep, as csv
  or markdown;
* verify: the cross-route verification suite; exits 1 on any failure, with
  the failures printed as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .eisenstein import TRIVIAL, cohomology_report
from .euler import euler_values, symbolic_table
from .rootsystem import HighestWeight


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def _weight_name(report: dict) -> str:
    """The weight as (m1, m2) or (m1, m2, m3)."""
    return "(" + ", ".join(str(m) for m in report["weight"].values()) + ")"


def _render_report_text(report: dict) -> str:
    name = _weight_name(report)
    lines = [f"{report['group']} weight {name}, case {report['case_id']}"]
    if report["vanishes"]:
        lines.append("all cohomology vanishes (odd central character)")
    lines.append("boundary cohomology:")
    lines += _text_from_json(report["boundary"])
    lines.append("eisenstein cohomology:")
    lines += _text_from_json(report["eisenstein"]["profile"])
    lines.append(f"chi_eis = {report['eisenstein']['chi_eis']}")
    euler = report["euler"]
    lines.append(
        f"chi_h = {euler['chi_closed']} (torsion sum {euler['chi_wall']})"
    )
    if euler["table_cell"]:
        cell = euler["table_cell"]
        lines.append(
            f"table cell ({cell['row']}, {cell['col']}): {cell['symbolic']}"
        )
    ghost = [f"H^{q}: {s}" for q, s in sorted(report["ghost"].items())]
    lines.append("ghost classes: " + ", ".join(ghost))
    if report["eisenstein"]["identities"]:
        flags = ", ".join(
            f"{k}={'ok' if v else 'FAIL'}"
            for k, v in report["eisenstein"]["identities"].items()
        )
        lines.append("identities: " + flags)
    total = report["total"]
    lines.append(
        f"self dual: {total['self_dual']}, inner part known: "
        f"{total['inner_known']}"
    )
    return "\n".join(lines)


def _text_from_json(profile: dict) -> list[str]:
    return [f"  H^{q} = " + _md_cell(summands) for q, summands in profile.items()]


def _render_report_md(report: dict) -> str:
    lines = [
        f"# {report['group']} weight {_weight_name(report)}",
        "",
        f"case {report['case_id']}"
        + (", vanishes" if report["vanishes"] else ""),
        "",
        "| q | boundary | eisenstein | ghost |",
        "|---|----------|------------|-------|",
    ]
    eisenstein = report["eisenstein"]["profile"]
    for q, summands in report["boundary"].items():
        eis = _md_cell(eisenstein[q]) if q in eisenstein else ""
        lines.append(f"| {q} | {_md_cell(summands)} | {eis} | {report['ghost'][q]} |")
    euler = report["euler"]
    lines += [
        "",
        f"chi_eis = {report['eisenstein']['chi_eis']}, "
        f"chi_h = {euler['chi_closed']} (torsion sum {euler['chi_wall']})",
    ]
    return "\n".join(lines)


def _md_cell(summands: list) -> str:
    parts = []
    for s in summands:
        body = "Q" if s["kind"] == TRIVIAL else f"S_{s['k']}"
        parts.append(body if s["mult"] == 1 else f"{body}^{s['mult']}")
    return " + ".join(parts) if parts else "0"


# the text of a JSON scalar, by its exact type
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) for a report's dicts, lists and scalars.

    The same bytes, without the stdlib's pure-Python indenting encoder:
    a report is nested dicts with str keys, lists, str, int, bool and None.
    """
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if type(value) is dict:
        items = [
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if type(value) is list:
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"not a report value: {value!r}")


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): drop the rest, and point
            # stdout at devnull so the flush at exit cannot raise again; the
            # exit status stays the one the command decided
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        _PARSER.exit(2, f"sl3coh: error: cannot write {out_path}: {exc.strerror}\n")


def cmd_cohomology(args) -> int:
    lam = HighestWeight(args.m1, args.m2, args.m3)
    report = {
        "tool": "sl3coh",
        "version": __version__,
        **cohomology_report(lam),
    }
    if args.format == "json":
        text = _json_text(report)
    elif args.format == "text":
        text = _render_report_text(report)
    else:
        text = _render_report_md(report)
    _emit(text, args.out)
    return 0


def cmd_euler_table(args) -> int:
    # one grid, one row per m1 (mod 12 for the symbolic cells); each row is one
    # string from a %-template built once per table (csv: "@" marks the row index)
    if args.symbolic:
        rows = [[cell.render() for cell in row] for row in symbolic_table()]
        header, field = "m1_mod_12,m2_mod_12,cell", '"%s"'
    else:
        rows = euler_values(args.m1_max, args.m2_max)
        header, field = "m1,m2,chi", "%s"
    width = len(rows[0])
    if args.format == "csv":
        lines = [header]
        template = "\n".join([f"@,{j},{field}" for j in range(width)])
        for i, row in enumerate(rows):
            lines.append(template.replace("@", str(i)) % tuple(row))
    else:
        lines = [
            "| m1\\m2 | " + " | ".join(map(str, range(width))) + " |",
            "|---" * (width + 1) + "|",
        ]
        template = "| " + " | ".join(["%s"] * (width + 1)) + " |"
        for i, row in enumerate(rows):
            lines.append(template % (i, *row))
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    from .checks import run_all  # only verify loads the checks
    report = run_all(max_weight=args.max, seed=args.seed)
    lines = [
        f"verify: sweeps up to weight {report['max_weight']}, "
        f"seed {report['seed']}"
    ]
    for name, info in report["families"].items():
        status = "ok" if info["failures"] == 0 else f"{info['failures']} FAILED"
        lines.append(f"  {name}: {status}")
    if report["ok"]:
        lines.append("all checks passed")
    else:
        lines += ["failures:", _json_text(report["failures"])]
    _emit("\n".join(lines), args.out)
    return 0 if report["ok"] else 1


# subcommand name -> its parser, filled by build_parser: main parses a known
# subcommand once, with its own parser
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3coh",
        description=(
            "Boundary and Eisenstein cohomology of SL3(Z) and GL3(Z) "
            "in exact arithmetic"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    coh = sub.add_parser("cohomology", help="full report for one weight")
    coh.add_argument("--group", required=True, choices=("sl3", "gl3"))
    coh.add_argument("--m1", required=True, type=_nonneg)
    coh.add_argument("--m2", required=True, type=_nonneg)
    coh.add_argument("--m3", type=int, help="determinant power (gl3 only)")
    coh.add_argument("--format", choices=("json", "text", "md"), default="json")
    coh.add_argument("--out", help="write output to this file")
    coh.set_defaults(fn=cmd_cohomology, error=coh.error)

    table = sub.add_parser("euler-table", help="Euler characteristic tables")
    table.add_argument(
        "--symbolic", action="store_true", help="the 12 x 12 table of cells"
    )
    table.add_argument("--m1-max", type=_nonneg, help="numeric sweep bound for m1")
    table.add_argument("--m2-max", type=_nonneg, help="numeric sweep bound for m2")
    table.add_argument("--format", choices=("csv", "md"), default="md")
    table.add_argument("--out", help="write output to this file")
    table.set_defaults(fn=cmd_euler_table, error=table.error)

    verify = sub.add_parser("verify", help="run the cross-route checks")
    verify.add_argument("--max", type=_nonneg, default=60)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out", help="write output to this file")
    verify.set_defaults(fn=cmd_verify)
    _COMMANDS.update({"cohomology": coh, "euler-table": table, "verify": verify})
    return parser


# Built once, when the module loads: building it costs more than a report,
# and a parser built on first use would make the first call of a process
# slower than every later one.
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known subcommand goes straight to its own parser; the top-level one
    # takes the rest (no arguments, -h, --version, an unknown command)
    command = _COMMANDS.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
    # args.error is the subcommand's, so its usage line names --m3 and the rest
    if args.fn is cmd_cohomology:
        if args.group == "sl3" and args.m3 is not None:
            args.error("--m3 only applies to --group gl3")
        if args.group == "gl3" and args.m3 is None:
            args.error("--group gl3 needs --m3")
    if args.fn is cmd_euler_table:
        if args.symbolic and (args.m1_max is not None or args.m2_max is not None):
            args.error("--symbolic excludes --m1-max/--m2-max")
        if not args.symbolic and (args.m1_max is None or args.m2_max is None):
            args.error("need either --symbolic or both --m1-max and --m2-max")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
