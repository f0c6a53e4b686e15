"""Fixtures shared by the fault-injection tests."""
import pytest

from sl3coh import boundary, parity, rootsystem

CACHES = (parity.survivor_sets, boundary.e1_page, rootsystem.kostant_set)


@pytest.fixture
def cold_boundary_caches():
    # survivor sets and E1 pages are cached per weight, Kostant sets per
    # parabolic; values computed under a fault must not outlive the test
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()
