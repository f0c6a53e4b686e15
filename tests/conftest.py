"""Fixtures shared by the fault-injection tests."""
import pytest

from sl3coh import boundary, parity, rootsystem

CACHES = (
    parity.survivor_sets,
    boundary.e1_page,
    boundary.case_profile,
    rootsystem.kostant_set,
)


@pytest.fixture
def cold_boundary_caches():
    # survivor sets, E1 pages and case profiles are cached per weight,
    # Kostant sets per parabolic; values computed under a fault must not
    # outlive the test, and a cached profile must not mask a table fault
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()
