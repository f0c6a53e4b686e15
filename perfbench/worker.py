"""One round of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <round> <trace 0|1>
    python3 perfbench/worker.py negative_control <seed> 0 0

run.py starts this with PYTHONPATH pointing at the checkout's src.  The
timed part of a round calls only sl3coh; output checks run after it, so
they are neither timed nor traced, and the cache counters are read before
them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import inputs
import outputs
import refs
import tracing

NEGATIVE_CONTROL_BOUND = 6
NEGATIVE_CONTROL_CELL = (1, 1)  # shifted by 6, so the torsion sums stay integral


def _call_cli(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"sl3coh {' '.join(argv)} returned {rc}")
    return buf.getvalue()


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _run_cli(cli, argvs) -> list[tuple]:
    """(seconds, stdout) per call; a call that raises gives (None, the exception)."""
    out = []
    for argv in argvs:
        try:
            out.append(_timed(_call_cli, cli, argv))
        except (Exception, SystemExit) as exc:
            out.append((None, exc))
    return out


def round_verify(seed: int, _round: int):
    from sl3coh import checks

    dt, rep = _timed(checks.run_all, inputs.VERIFY_BOUND, seed)
    result = {"op_s": [dt], "items": (inputs.VERIFY_BOUND + 1) ** 2, "attempted": 1, "failed": 0}
    return result, lambda: outputs.check_verify(rep, inputs.VERIFY_BOUND, seed)


def round_report(seed: int, round_no: int):
    from sl3coh import cli

    ops = inputs.report_stream(seed, round_no)
    calls = _run_cli(cli, (inputs.report_argv(op) for op in ops))
    times = [dt for dt, _ in calls if dt is not None]

    def check():
        errs = []
        for op, (dt, text) in zip(ops, calls):
            if dt is None:
                continue
            doc = text if op["format"] == "json" else _call_cli(cli, inputs.report_argv(op, "json"))
            rep = json.loads(doc)
            errs += outputs.check_report(op, rep)
            if op["format"] != "json":
                errs += outputs.check_rendering(op["format"], text, rep)
        return errs

    result = {"op_s": times, "items": len(times), "attempted": len(ops), "failed": len(ops) - len(times)}
    return result, check


def round_euler_table(seed: int, round_no: int):
    from sl3coh import cli

    ops = inputs.table_ops(seed, round_no)
    calls = _run_cli(cli, ops)
    times = [dt for argv, (dt, _) in zip(ops, calls) if dt is not None and "--symbolic" not in argv]
    done = [argv for argv, (dt, _) in zip(ops, calls) if dt is not None]

    def check():
        side = inputs.TABLE_SIDE
        reference = {(m1, m2): refs.chi_h(m1, m2) for m1 in range(side + 1) for m2 in range(side + 1)}
        errs, numeric, symbolic, seen = [], None, [], set()
        for argv, (dt, text) in zip(ops, calls):
            # a repeated call must print the same text, which was checked once
            if dt is None or text in seen:
                continue
            seen.add(text)
            fmt = argv[argv.index("--format") + 1]
            if "--symbolic" in argv:
                symbolic.append((fmt, text))
            else:
                errs += outputs.check_numeric_table(fmt, text, side, reference)
                numeric = outputs.parse_numeric_table(fmt, text)
        distinct = {tuple(argv) for argv in done}
        if len(seen) != len(distinct):
            errs.append(f"euler-table printed {len(seen)} distinct texts for {len(distinct)} distinct calls")
        for fmt, text in symbolic:
            errs += outputs.check_symbolic_table(fmt, text, numeric or reference)
        return errs

    cells = len(times) * (inputs.TABLE_SIDE + 1) ** 2
    result = {"op_s": times, "items": cells, "attempted": len(ops), "failed": len(ops) - len(done)}
    return result, check


def round_traces_large(seed: int, _round: int):
    from sl3coh import traces

    weights = inputs.trace_set(seed)
    values, failed = [], 0
    t0 = time.perf_counter()
    for m1, m2, m3 in weights:
        for k in inputs.TRACE_ORDERS:
            try:
                values.append(
                    (m1, m2, m3, k,
                     traces.gt_trace(m1, m2, m3, k),
                     traces.closed_trace(m1, m2, m3, k),
                     traces.weyl_det_trace(m1, m2, k))
                )
            except Exception:  # noqa: BLE001 - counted as a failed operation
                failed += 3
    dt = time.perf_counter() - t0

    def check():
        errs = []
        for m1, m2, m3, k, *routes in values:
            want = refs.trace(m1, m2, k)
            if routes != [want] * 3:
                errs.append(f"trace ({m1}, {m2}, {m3}) k={k}: gt/closed/weyl_det {routes}, reference {want}")
        return errs

    n = 3 * len(weights) * len(inputs.TRACE_ORDERS)
    return {"op_s": [dt], "items": n - failed, "attempted": n, "failed": failed}, check


def negative_control(seed: int) -> dict:
    """Corrupt one entry of the order-6 table and require run_all to say where."""
    from sl3coh import checks, traces

    i, j = NEGATIVE_CONTROL_CELL
    traces.M6 = tuple(
        tuple(v + 6 if (r, c) == (i, j) else v for c, v in enumerate(row)) for r, row in enumerate(traces.M6)
    )
    rep = checks.run_all(NEGATIVE_CONTROL_BOUND, seed)
    return {"errors": outputs.check_negative_control(rep, i, j), "attempted": 1, "failed": 0}


ROUNDS = {
    "verify": round_verify,
    "report": round_report,
    "euler_table": round_euler_table,
    "traces_large": round_traces_large,
}


def main(argv: list[str]) -> int:
    workload, seed, round_no, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    import sl3coh

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(sl3coh.__file__), src]) != src:
        print(f"sl3coh was imported from {sl3coh.__file__}, not from {src}", file=sys.stderr)
        return 2
    if workload == "negative_control":
        print(json.dumps(negative_control(seed)))
        return 0
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result, check = ROUNDS[workload](seed, round_no)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.totals
        result["caches"] = tracing.cache_counters()
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(
            os.path.join(out_dir, f"spans-{workload}-r{round_no}.jsonl"),
            {"workload": workload, "seed": seed, "round": round_no},
        )
    # copy the totals before checking: the checks call the CLI again
    result = json.loads(json.dumps(result))
    result["errors"] = check()[:50]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
