"""GL2/SL2 Euler characteristics, cusp form dimensions, and the H^1 split."""
import pytest
from hypothesis import given, strategies as st

from sl3coh.gl2 import (
    ACTUAL,
    COMPACT_BRANCH,
    EULER,
    GL2Weight,
    INTERIOR_BRANCH,
    dim_cusp_forms,
    gl2_euler,
    gl2_euler_wall,
    h1_split,
    sl2_euler,
)

# classical level-one dimensions
CLASSICAL_DIMS = {2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1,
                  20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2}


def test_cusp_dimensions_match_classical_table():
    for k, d in CLASSICAL_DIMS.items():
        assert dim_cusp_forms(k) == d


def test_cusp_dimension_conventions():
    assert dim_cusp_forms(2, ACTUAL) == 0
    assert dim_cusp_forms(2, EULER) == -1
    assert dim_cusp_forms(4, EULER) == dim_cusp_forms(4, ACTUAL) == 0


def test_cusp_dimension_validation():
    with pytest.raises(ValueError):
        dim_cusp_forms(0)
    with pytest.raises(ValueError):
        dim_cusp_forms(-4)
    with pytest.raises(ValueError):
        dim_cusp_forms(12, "classical")
    assert dim_cusp_forms(13) == 0  # odd weight


@given(st.integers(min_value=4, max_value=400).filter(lambda k: k % 2 == 0))
def test_cusp_dimension_period_twelve(k):
    assert dim_cusp_forms(k + 12) == dim_cusp_forms(k) + 1


def test_euler_closed_form_pins():
    assert gl2_euler(0, 0) == 1
    assert gl2_euler(2, 0) == 0
    assert gl2_euler(10, 0) == -1
    assert gl2_euler(12, 0) == 0
    assert gl2_euler(22, 0) == -2
    assert gl2_euler(0, 1) == 0
    assert gl2_euler(2, 1) == -1
    assert gl2_euler(10, 1) == -2
    assert gl2_euler(12, 1) == -1
    assert gl2_euler(1, 0) == gl2_euler(1, 1) == 0
    assert sl2_euler(0) == 1
    assert sl2_euler(2) == -1
    assert sl2_euler(10) == -3
    assert sl2_euler(12) == -1


def test_euler_validation():
    with pytest.raises(ValueError):
        gl2_euler(-2, 0)
    with pytest.raises(ValueError):
        gl2_euler(2, 2)
    with pytest.raises(ValueError):
        gl2_euler_wall(2, -1)
    with pytest.raises(ValueError):
        sl2_euler(-1)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=1))
def test_wall_sum_equals_closed_form(m, t):
    assert gl2_euler_wall(m, t) == gl2_euler(m, t)


@given(st.integers(min_value=0, max_value=300))
def test_sl2_splits_over_the_two_twists(m):
    assert sl2_euler(m) == gl2_euler(m, 0) + gl2_euler(m, 1)


@given(st.integers(min_value=1, max_value=200))
def test_h1_dimension_from_euler(half_m):
    # H^0 and H^2 vanish for m > 0, so dim H^1 = -chi = dim S_{m+2}
    m = 2 * half_m
    assert -gl2_euler_wall(m, 0) == dim_cusp_forms(m + 2)


def test_gl2_weight_validation():
    with pytest.raises(ValueError):
        GL2Weight(-2, 0)
    with pytest.raises(ValueError):
        GL2Weight(1, 2)


def test_h1_split_examples():
    # Sym^10, no twist: one cusp line, compact branch, one Eisenstein line
    split = h1_split(GL2Weight(10, 0))
    assert split["inner_dim"] == 1
    assert split["eisenstein_dim"] == 1
    assert split["boundary_context"] == COMPACT_BRANCH
    # Sym^2 tensor det: interior branch, nothing at all in weight 4
    split = h1_split(GL2Weight(2, 2))
    assert split["inner_dim"] == 0
    assert split["eisenstein_dim"] == 0
    assert split["boundary_context"] == INTERIOR_BRANCH
    # trivial weight: no H^1
    split = h1_split(GL2Weight(0, 0))
    assert split == {
        "inner_dim": 0,
        "eisenstein_dim": 0,
        "boundary_context": INTERIOR_BRANCH,
    }
    # Sym^22: two cusp lines
    assert h1_split(GL2Weight(22, 0))["inner_dim"] == 2


def test_h1_split_rejects_non_survivors():
    with pytest.raises(ValueError):
        h1_split(GL2Weight(3, 1))  # n odd
    with pytest.raises(ValueError):
        h1_split(GL2Weight(0, 2))  # a = 0 with n/2 odd


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=-30, max_value=30))
def test_h1_split_eisenstein_parity(a_half, n_half):
    # within survivors the Eisenstein line appears exactly on the compact
    # branch, and never for one-dimensional coefficients
    a, n = 2 * a_half, 2 * n_half
    if a == 0 and n_half % 2 != 0:
        return
    split = h1_split(GL2Weight(a, n))
    compact = (a_half - n_half) % 2 == 1
    assert split["eisenstein_dim"] == (1 if (compact and a > 0) else 0)
    assert split["boundary_context"] == (
        COMPACT_BRANCH if compact else INTERIOR_BRANCH
    )
