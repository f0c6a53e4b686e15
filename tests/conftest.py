"""Fixtures shared by the fault-injection tests."""
import pytest

from sl3coh import boundary, euler, parity, rootsystem, traces

CACHES = (
    parity.survivor_sets,
    boundary.case_profile,
    rootsystem.kostant_set,
    euler._cells,
    traces._h_row,
)


@pytest.fixture
def cold_caches():
    # survivor sets and case profiles are cached per weight, Kostant sets
    # per parabolic, h values per (m, k), and the Euler cells are fitted
    # once; values computed under a fault must not outlive the test, and a
    # cached value must not mask a fault in the tables underneath it
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()
