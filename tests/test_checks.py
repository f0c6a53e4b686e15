"""The cross-route verification suite, including an injected-fault run."""
import os
import subprocess
import sys
import textwrap

import pytest

from sl3coh import CrossCheckError, traces
from sl3coh.checks import CHECKS, check_trace_routes, run_all
from sl3coh.rootsystem import WeylElement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_run_all_is_green():
    report = run_all(max_weight=10, seed=1)
    assert report["ok"]
    assert report["failures"] == []
    assert report["max_weight"] == 10
    assert report["seed"] == 1
    assert set(report["families"]) == {name for name, _ in CHECKS}
    assert all(v == {"failures": 0} for v in report["families"].values())


def test_run_all_rejects_negative_bound():
    with pytest.raises(ValueError):
        run_all(max_weight=-1)


def _corrupted_m6():
    # shift one entry of the order-6 periodicity table by 6: the shift keeps
    # the rational torsion sums integral, so the fault surfaces as failure
    # records instead of tripping an internal integrality assert
    return tuple(
        tuple(7 if (i, j) == (0, 0) else v for j, v in enumerate(row))
        for i, row in enumerate(traces.M6)
    )


def test_injected_table_fault_is_caught(monkeypatch):
    monkeypatch.setattr(traces, "M6", _corrupted_m6())
    assert traces.closed_trace(0, 0, 0, 6) == 7
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert "gt_trace_vs_closed_trace" in names
    for record in report["failures"]:
        assert set(record) == {"check", "params", "detail"}
    hits = [
        f
        for f in report["failures"]
        if f["check"] == "gt_trace_vs_closed_trace" and f["params"]["k"] == 6
    ]
    assert any(
        f["params"]["m1"] % 6 == 0 and f["params"]["m2"] % 6 == 0 for f in hits
    )


def test_injected_fault_leaves_other_orders_alone(monkeypatch):
    monkeypatch.setattr(traces, "M6", _corrupted_m6())
    failures = check_trace_routes(6)
    assert failures
    assert all(f["params"]["k"] == 6 for f in failures)
    assert all(f["check"] == "gt_trace_vs_closed_trace" for f in failures)


@pytest.fixture
def cold_h_row():
    # _h_row caches its values, so a fault in the counts underneath it
    # shows only on a cold cache, and must not outlive the test
    traces._h_row.cache_clear()
    yield
    traces._h_row.cache_clear()


def test_injected_h_row_fault_is_caught(monkeypatch, cold_h_row):
    clean = traces._h_counts

    def corrupted(m, k):
        counts = clean(m, k)
        if k == 6 and m % 6 == 1:
            counts[0] += 1
        return counts

    monkeypatch.setattr(traces, "_h_counts", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert names == {"gt_trace_vs_weyl_det_trace"}
    assert all(f["params"]["k"] == 6 for f in report["failures"])


def test_injected_gt_trace_fault_is_caught(monkeypatch):
    clean = traces._gt_counts

    def corrupted(m1, m2, m3, k):
        counts = clean(m1, m2, m3, k)
        if k == 6 and (m1 % 6, m2 % 6) == (1, 1):
            counts[0] += 1
        return counts

    monkeypatch.setattr(traces, "_gt_counts", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert "gt_trace_vs_closed_trace" in names
    hits = [f for f in report["failures"] if f["check"] == "gt_trace_vs_closed_trace"]
    assert {(f["params"]["m1"], f["params"]["m2"], f["params"]["k"]) for f in hits} == {
        (1, 1, 6)
    }


def test_injected_weyl_action_fault_is_caught(monkeypatch, cold_boundary_caches):
    clean = WeylElement.dot

    def corrupted(self, lam):
        c1, c2, c3 = clean(self, lam)
        # moves the P1 Levi weight of s1 . lam by (2, 2): parities stay,
        # the cusp weight of the face term does not
        return (c1, c2 + 2, c3) if self.name == "s1" else (c1, c2, c3)

    monkeypatch.setattr(WeylElement, "dot", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    names = {f["check"] for f in report["failures"]}
    assert names & {"survivor_parity", "boundary_profile_vs_case_formula"}
    assert names <= {
        "survivor_parity",
        "survivor_reflection",
        "boundary_profile_vs_case_formula",
        "boundary_euler_closed",
    }


@pytest.mark.parametrize(
    "name, shift, error",
    [
        # d1 of (1, 0) in degree 1 gets two targets: CrossCheckError
        ("s1", (1, 0, 0), "CrossCheckError"),
        # a Levi weight with a < 0: ValueError from GL2Weight
        ("e", (0, 2, 0), "ValueError"),
    ],
)
def test_a_route_that_raises_is_recorded(monkeypatch, cold_boundary_caches, name, shift, error):
    clean = WeylElement.dot

    def corrupted(self, lam):
        c = clean(self, lam)
        return tuple(a + b for a, b in zip(c, shift)) if self.name == name else c

    monkeypatch.setattr(WeylElement, "dot", corrupted)
    report = run_all(max_weight=6)
    assert not report["ok"]
    # every family ran, including those after the one that raised
    assert list(report["families"]) == [family for family, _ in CHECKS]
    raised = [f for f in report["failures"] if f["check"].endswith("_raised")]
    assert raised
    for record in raised:
        family = record["check"][: -len("_raised")]
        assert record["params"] == {"family": family}
        assert record["detail"].startswith(f"{error}: ")
    assert "boundary_assembly_raised" in {f["check"] for f in raised}
    # each raising family counts one failure
    for family, info in report["families"].items():
        own = [f for f in report["failures"] if f["check"] == f"{family}_raised"]
        if own:
            assert info["failures"] == 1


def test_cross_check_error_is_an_assertion_error():
    assert issubclass(CrossCheckError, AssertionError)


def test_cross_checks_raise_under_python_O():
    # plain asserts vanish under -O; the cross-checks must not
    script = textwrap.dedent(
        """
        import sys
        from sl3coh import CrossCheckError, HighestWeight, boundary, euler

        if sys.flags.optimize != 1:
            raise SystemExit("not running under -O")
        lam = HighestWeight(2, 4)
        wrong = boundary.case_profile(HighestWeight(2, 6))
        boundary.case_profile = lambda lam: wrong
        try:
            boundary.boundary_profile(lam)
        except CrossCheckError:
            print("boundary_profile raised")
        euler.sl3_euler_closed = lambda lam: 99
        try:
            euler.euler_report(lam)
        except CrossCheckError:
            print("euler_report raised")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [
        "boundary_profile raised",
        "euler_report raised",
    ]
