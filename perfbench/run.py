"""Benchmark of sl3coh: four workloads, timed end to end and per module.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src and
the metric lists are read from ./BENCHMARK.json.  With --trace 0 the last
line of standard output is one JSON object carrying every end-to-end
metric; with --trace 1 it carries every per-layer metric instead.  See
perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs
import outputs
import refs

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3  # per kind of round: untraced, and traced with --trace 1
WORKER_TIMEOUT_S = 150
HARD_STOP_S = 150  # stop starting rounds here, whatever MIN_ROUNDS asks
READY = "import sl3coh, sl3coh.cli; print(sl3coh.__file__, flush=True)"

# the name each workload's primary operation has in the human-readable lines
OP_NAMES = {
    "verify": ("verify_s", "s", 1.0, "weights_swept_per_s", "weights/s"),
    "report": ("report_us_p50", "us", 1e6, "report_rate", "reports/s"),
    "euler_table": ("table_ms_p50", "ms", 1e3, "table_cells_per_s", "cells/s"),
    "traces_large": ("traces_s", "s", 1.0, "trace_evals_per_s", "evals/s"),
}


class Run:
    """Counts and errors of one benchmark invocation."""

    def __init__(self, root: str, env: dict):
        self.root, self.env = root, env
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def python(self, args: list[str], timeout: float = WORKER_TIMEOUT_S) -> subprocess.CompletedProcess:
        """Run a child interpreter to its end; one that times out is killed and reads as failed."""
        try:
            return subprocess.run(
                [sys.executable, *args], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return subprocess.CompletedProcess(args, -9, "", f"timed out after {timeout} s")

    def setup_time(self) -> float | None:
        """Interpreter launch until sl3coh is imported and says so."""
        self.attempted += 1
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", READY], cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        src = os.path.join(self.root, "src")
        if rc != 0 or not line.strip().startswith(src + os.sep):
            self.failed += 1
            self.errors.append(f"setup launch: exit {rc}, imported {line.strip()!r}")
            return None
        return elapsed

    def cli_time(self, m1: int, m2: int) -> float | None:
        """One `sl3coh cohomology` process, with its JSON output checked."""
        self.attempted += 1
        argv = ["-m", "sl3coh.cli", "cohomology", "--group", "sl3", "--m1", str(m1), "--m2", str(m2)]
        t0 = time.perf_counter()
        proc = self.python(argv, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"sl3coh cohomology ({m1}, {m2}): exit {proc.returncode}: {proc.stderr[-300:]}")
            return None
        op = {"group": "sl3", "m1": m1, "m2": m2, "m3": None}
        self.errors += outputs.check_report(op, json.loads(proc.stdout))
        return elapsed

    def worker(self, workload: str, seed: int, round_no: int, traced: bool) -> dict | None:
        proc = self.python([os.path.join(HERE, "worker.py"), workload, str(seed), str(round_no), str(int(traced))])
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{workload} round {round_no}: exit {proc.returncode}: {proc.stderr[-500:]}")
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]
        return result


def _median(values):
    return statistics.median(values) if values else float("nan")


def _layer_value(name: str, traced: list[dict], overhead: tuple[float, float]) -> float:
    """One per-layer metric, per traced round."""
    parts = name.split(".")
    n = len(traced)
    if parts[0] == "tracing":
        return overhead[0] if parts[1] == "overhead_ms" else overhead[1]
    if parts[0] == "cache":
        counters = [r["caches"][parts[1]] for r in traced]
        if parts[2] == "entries":
            return _median([c["entries"] for c in counters])
        hits = sum(c["hits"] for c in counters)
        calls = hits + sum(c["misses"] for c in counters)
        return hits / calls if calls else 0.0
    if parts[1] == "self_s":  # a whole module
        return sum(v[2] for r in traced for k, v in r["spans"].items() if k.split(".")[0] == parts[0]) / n / 1e9
    span, stat = f"{parts[0]}.{parts[1]}", parts[2]
    index = {"calls": 0, "s": 1, "self_s": 2}[stat]
    total = sum(r["spans"].get(span, [0, 0, 0])[index] for r in traced) / n
    return total if stat == "calls" else total / 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sl3coh", "__init__.py")):
        print("run from the root of an sl3coh checkout: src/sl3coh is missing", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    run = Run(root, env)
    run.errors += refs.self_test()
    start = time.perf_counter()

    run.python(["-c", READY])  # warm-up: compiles the bytecode once
    if args.workload == "verify":
        run.worker("negative_control", args.seed, 0, False)

    # one setup launch and one `sl3coh cohomology` launch per weight, spread
    # over the run so that they meet the same machine conditions as the rounds
    weights = inputs.cli_weights(args.workload, args.seed)
    setups, clis = [], []

    def launch_due(elapsed: float) -> None:
        due = min(len(weights), int(elapsed / args.seconds * len(weights)) + 1)
        while len(clis) < due:
            setups.append(run.setup_time())
            clis.append(run.cli_time(*weights[len(clis)]))

    # whole rounds until the time is spent; with --trace 1 untraced and
    # traced rounds alternate, and their difference is the tracing overhead
    plain, traced = [], []
    round_no = 0
    while time.perf_counter() - start < HARD_STOP_S and (
        time.perf_counter() - start < args.seconds
        or len(plain) < MIN_ROUNDS
        or (args.trace and len(traced) < MIN_ROUNDS)
    ):
        launch_due(time.perf_counter() - start)
        with_trace = bool(args.trace) and round_no % 2 == 1
        result = run.worker(args.workload, args.seed, round_no, with_trace)
        round_no += 1
        if result is not None:
            (traced if with_trace else plain).append(result)

    launch_due(args.seconds)
    setups = [t for t in setups if t is not None]
    clis = [t for t in clis if t is not None]
    op_s = [t for r in plain for t in r["op_s"]]
    if not op_s or (args.trace and not traced) or not setups or not clis:
        run.errors.append("no complete measurement: every round or launch of one kind failed")
    op_total = sum(op_s)
    end_to_end = {
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["rss_mb"] for r in plain]),
        "op_ms_p50": _median(op_s) * 1e3,
        "items_per_s": sum(r["items"] for r in plain) / op_total if op_total else float("nan"),
        "cli_cohomology_s": _median(clis),
    }
    name, unit, scale, rate_name, rate_unit = OP_NAMES[args.workload]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} rounds, {len(op_s)} timed operations")
    print(f"  {name} = {_median(op_s) * scale:.6g} {unit} (median)")
    if args.workload == "report" and len(op_s) >= 1000:
        p99 = statistics.quantiles(op_s, n=100)[98]
        print(f"  report_us_p99 = {p99 * 1e6:.6g} us ({len(op_s)} samples)")
    print(f"  {rate_name} = {end_to_end['items_per_s']:.6g} {rate_unit}")
    print(f"  setup_s = {end_to_end['setup_s']:.6g} s (median of {len(setups)} launches)")
    print(f"  cli_cohomology_s = {end_to_end['cli_cohomology_s']:.6g} s (median of {len(clis)} launches)")
    print(f"  peak_rss_mb = {end_to_end['peak_rss_mb']:.6g} MB (median over rounds)")

    if args.trace:
        overhead_ms = (_median([t for r in traced for t in r["op_s"]]) - _median(op_s)) * 1e3
        overhead = (overhead_ms, overhead_ms / (_median(op_s) * 1e3))
        metrics = {m["name"]: (_layer_value(m["name"], traced, overhead), m["unit"]) for m in spec["per_layer"]}
        print(f"  tracing overhead = {overhead_ms:.6g} ms per operation ({len(traced)} traced rounds)")
    else:
        metrics = {m["name"]: (end_to_end[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    correct = not run.errors
    print(f"  attempted {run.attempted}, failed {run.failed}, correct {str(correct).lower()}")
    for err in run.errors[:20]:
        print(f"  error: {err}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
