"""Seeded inputs of the four workloads.

The same seed always gives the same inputs.  Every round of a workload has
the same make-up (the same number of operations of each kind, at sizes
whose cost does not depend on the seed), so runs with different seeds
measure the same amount of work.
"""
from __future__ import annotations

import random

from refs import CASE_KINDS

WORKLOADS = ("verify", "report", "euler_table", "traces_large")

# verify: one checks.run_all sweep at this bound per round
VERIFY_BOUND = 40

# report: per round, BLOCKS x 9 cases x 3 groups x 3 formats reports
REPORT_BLOCKS = 25
REPORT_GROUPS = ("sl3", "gl3_even", "gl3_odd")
REPORT_FORMATS = ("json", "text", "md")
REPORT_MAX_EXPONENT = 12  # magnitudes up to 10^12

# euler_table: per round, TABLE_REPEATS numeric csv and md tables of this
# side, plus the symbolic table in both formats
TABLE_SIDE = 150
TABLE_REPEATS = 2

# traces_large: m1 + m2 before a seeded shift of 0..11, and the share of the
# sum given to m2; cold weyl_det_trace costs about (m1 + m2)^2
TRACE_SUMS = (150, 300, 600, 1000, 1500, 2000)
TRACE_M2_THIRDS = (1, 2, 1, 2, 1, 2)
TRACE_ORDERS = (2, 3, 4, 6)

# setup launches, and launches of `sl3coh cohomology`, per run
LAUNCHES = 11


def _magnitude(rng: random.Random, kind: str) -> int:
    if kind == "zero":
        return 0
    e = rng.randint(1, REPORT_MAX_EXPONENT)
    v = rng.randrange(10 ** (e - 1), 10**e)
    if kind == "even":
        return 2 * max(1, v // 2)
    return v | 1


def report_stream(seed: int, round_no: int) -> list[dict]:
    """One round of distinct weights over the nine cases, both groups, all formats.

    gl3_even and gl3_odd fix the parity of the central character of a GL3
    weight.  Weights repeat only where a case has a single weight: (0, 0)
    for sl3.
    """
    rng = random.Random(f"report/{seed}/{round_no}")
    seen = set()
    out = []
    for _ in range(REPORT_BLOCKS):
        for case in range(1, 10):
            k1, k2 = CASE_KINDS[case]
            for group in REPORT_GROUPS:
                for fmt in REPORT_FORMATS:
                    for _attempt in range(100):
                        m1, m2 = _magnitude(rng, k1), _magnitude(rng, k2)
                        m3 = None
                        if group != "sl3":
                            m3 = rng.randrange(-10**6, 10**6)
                            odd = group == "gl3_odd"
                            if ((m1 + m3) % 2 == 1) != odd:
                                m3 += 1
                        key = (group, m1, m2, m3)
                        if key not in seen or (m1, m2) == (0, 0) and group == "sl3":
                            break
                    seen.add(key)
                    out.append({"group": group[:3], "m1": m1, "m2": m2, "m3": m3, "format": fmt})
    rng.shuffle(out)
    return out


def report_argv(op: dict, fmt: str | None = None) -> list[str]:
    argv = ["cohomology", "--group", op["group"], "--m1", str(op["m1"]), "--m2", str(op["m2"])]
    if op["m3"] is not None:
        argv += ["--m3", str(op["m3"])]
    return argv + ["--format", fmt or op["format"]]


def table_ops(seed: int, round_no: int) -> list[list[str]]:
    """The euler-table calls of one round, in a seeded order."""
    side = str(TABLE_SIDE)
    ops = [
        ["euler-table", "--m1-max", side, "--m2-max", side, "--format", fmt]
        for fmt in ("csv", "md") * TABLE_REPEATS
    ] + [
        ["euler-table", "--symbolic", "--format", "csv"],
        ["euler-table", "--symbolic", "--format", "md"],
    ]
    random.Random(f"table/{seed}/{round_no}").shuffle(ops)
    return ops


def trace_set(seed: int) -> list[tuple[int, int, int]]:
    """(m1, m2, m3) with m1 + m2 from a few hundred to about two thousand."""
    rng = random.Random(f"traces/{seed}")
    out = []
    for total, thirds in zip(TRACE_SUMS, TRACE_M2_THIRDS):
        total += rng.randrange(12)
        m2 = min(total, total * thirds // 3 + rng.randrange(12))
        out.append((total - m2, m2, rng.randrange(-5, 6)))
    return out


def cli_weights(workload: str, seed: int) -> list[tuple[int, int]]:
    """SL3 weights for the `sl3coh cohomology` launches, drawn from the workload's range."""
    rng = random.Random(f"cli/{workload}/{seed}")
    if workload == "report":
        return [(op["m1"], op["m2"]) for op in report_stream(seed, 0) if op["group"] == "sl3"][:LAUNCHES]
    if workload == "traces_large":
        pool = [(m1, m2) for m1, m2, _ in trace_set(seed)]
        return [pool[i % len(pool)] for i in range(LAUNCHES)]
    bound = VERIFY_BOUND if workload == "verify" else TABLE_SIDE
    return [(rng.randint(0, bound), rng.randint(0, bound)) for _ in range(LAUNCHES)]
