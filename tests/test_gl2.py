"""GL2/SL2 Euler characteristics, cusp form dimensions, and the H^1 split."""
import pytest
from hypothesis import given, strategies as st

from sl3coh import checks
from sl3coh.checks import run_all
from sl3coh.euler import SymbolicCell, _dim_s, euler_values, symbolic_cell
from sl3coh.gl2 import (
    GL2Weight,
    dim_cusp_forms,
    gl2_euler,
    gl2_euler_wall,
    h1_split,
    sl2_euler,
)
from sl3coh.rootsystem import E, HighestWeight, restrict_to_levi

# classical level-one dimensions
CLASSICAL_DIMS = {2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0, 16: 1, 18: 1,
                  20: 1, 22: 1, 24: 2, 26: 1, 28: 2, 30: 2}


def test_cusp_dimensions_match_classical_table():
    for k, d in CLASSICAL_DIMS.items():
        assert dim_cusp_forms(k) == d


def test_cusp_dimension_conventions():
    # the Euler formulas' residual dim S_2 = -1 lives in euler, not in gl2
    assert dim_cusp_forms(2) == 0
    assert _dim_s(2) == -1
    assert _dim_s(4) == dim_cusp_forms(4) == 0


def test_cusp_dimension_validation():
    with pytest.raises(ValueError):
        dim_cusp_forms(0)
    with pytest.raises(ValueError):
        dim_cusp_forms(-4)
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


def _cached_then_float():
    # after a call with the equal int, the float must still raise
    dim_cusp_forms(12)
    dim_cusp_forms(12.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: gl2_euler(4.0, 0), id="gl2_euler_float_m"),
        pytest.param(lambda: gl2_euler(4, True), id="gl2_euler_bool_twist"),
        pytest.param(lambda: gl2_euler_wall(4.0, 0), id="gl2_euler_wall_float_m"),
        pytest.param(lambda: sl2_euler(12.0), id="sl2_euler_float_m"),
        pytest.param(lambda: dim_cusp_forms(14.0), id="dim_cusp_forms_float_k"),
        pytest.param(_cached_then_float, id="dim_cusp_forms_float_k_after_int"),
        pytest.param(lambda: GL2Weight(2.0, 0), id="gl2_weight_float_a"),
        pytest.param(lambda: GL2Weight(2, True), id="gl2_weight_bool_n"),
        pytest.param(lambda: run_all(2.5), id="run_all_float_bound"),
        pytest.param(lambda: run_all(2, None), id="run_all_none_seed"),
        pytest.param(lambda: run_all(2, 1.5), id="run_all_float_seed"),
        pytest.param(lambda: euler_values(True, 1), id="euler_values_bool_bound"),
        pytest.param(lambda: euler_values(3, 2.0), id="euler_values_float_bound"),
        pytest.param(lambda: symbolic_cell(1.0, 3), id="symbolic_cell_float_residue"),
        pytest.param(lambda: symbolic_cell(True, 1), id="symbolic_cell_bool_residue"),
        pytest.param(
            lambda: restrict_to_levi(E, HighestWeight(2, 1), True),
            id="restrict_to_levi_bool_levi",
        ),
        pytest.param(
            lambda: SymbolicCell("sum", offset=1.5), id="symbolic_cell_float_offset"
        ),
    ],
)
def test_non_int_arguments_raise_type_error(call):
    # exact arithmetic only: a float or bool never passes for an int
    with pytest.raises(TypeError):
        call()


def _flagged(check, m):
    """The registry's failures of one GL2 comparison at Sym^m."""
    return [f for f in checks.gl2_at(m) if f["check"] == check]


@given(st.integers(min_value=0, max_value=400))
def test_wall_sum_equals_closed_form(m):
    # both determinant twists
    assert _flagged("gl2_euler_wall_vs_closed", m) == []


@given(st.integers(min_value=0, max_value=400))
def test_sl2_splits_over_the_two_twists(m):
    assert _flagged("sl2_additivity", m) == []


@given(st.integers(min_value=1, max_value=200))
def test_h1_dimension_from_euler(half_m):
    # H^0 and H^2 vanish for m > 0, so dim H^1 = -chi = dim S_{m+2}
    assert _flagged("gl2_h1_dimension", 2 * half_m) == []


def test_gl2_weight_validation():
    with pytest.raises(ValueError):
        GL2Weight(-2, 0)
    with pytest.raises(ValueError):
        GL2Weight(1, 2)


def test_h1_split_examples():
    # Sym^10, no twist: compact branch, one Eisenstein line
    assert h1_split(GL2Weight(10, 0)) == 1
    # Sym^2 tensor det: interior branch, no Eisenstein line
    assert h1_split(GL2Weight(2, 2)) == 0
    # trivial weight: no H^1
    assert h1_split(GL2Weight(0, 0)) == 0


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
    compact = (a_half - n_half) % 2 == 1
    assert h1_split(GL2Weight(a, n)) == (1 if (compact and a > 0) else 0)
