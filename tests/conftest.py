"""Fixtures shared by the fault-injection tests."""
import pytest

from sl3coh import boundary, euler, parity, rootsystem, traces

CACHES = (
    parity.survivor_sets,
    boundary.case_profile,
    rootsystem.kostant_set,
    euler._cells,
)


@pytest.fixture
def cold_boundary_caches():
    # survivor sets and case profiles are cached per weight, Kostant sets
    # per parabolic, and the Euler cells are fitted once; values computed
    # under a fault must not outlive the test, and a cached profile or cell
    # must not mask a table fault
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture
def cold_h_row():
    # _h_row caches its values, so a fault in the rows underneath it shows
    # only on a cold cache, and must not outlive the test
    traces._h_row.cache_clear()
    yield
    traces._h_row.cache_clear()
