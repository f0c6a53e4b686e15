"""Fixtures shared by the fault-injection tests."""
import pytest

from sl3coh import boundary, parity


@pytest.fixture
def cold_boundary_caches():
    # survivor sets and E1 pages are cached per weight; values computed
    # under a fault must not outlive the test
    parity.survivor_sets.cache_clear()
    boundary.e1_page.cache_clear()
    yield
    parity.survivor_sets.cache_clear()
    boundary.e1_page.cache_clear()
