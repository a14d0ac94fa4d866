"""Column-scale and row-permutation invariance over the whole float range.

Both methods are column statistics that do not depend on a column's unit,
so scaling each column by any power of ten from 1e-300 to 1e300 and
shuffling the rows must leave the weights where they were.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcdm_weights import (
    AllColumnsConstant,
    MethodError,
    dwm_weights,
    entropy_weights,
    validate_matrix,
)

#: deterministic and bounded, so the suite stays reproducible and fast
FIXED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def rescaled_matrices(draw):
    """A small positive grid, and the same grid with each column scaled by
    ``10**u`` (u in [-300, 300]) and its rows permuted.

    Entries of the rescaled grid span 1e-300 to 1e308, so a column sum
    taken without scaling first can overflow.
    """
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(1, 5))
    grid = draw(arrays(np.float64, (rows, cols), elements=st.floats(1.0, 1e8)))
    powers = draw(arrays(np.int64, cols, elements=st.integers(-300, 300)))
    order = draw(st.permutations(range(rows)))
    return grid, grid[list(order)] * 10.0**powers


#: always tried: column a's sum overflows unless it is scaled first
NEAR_LIMIT = np.array([[1e8, 1.0], [1.5e8, 2.0]])
NEAR_LIMIT_PAIR = (NEAR_LIMIT, NEAR_LIMIT[::-1] * 10.0 ** np.array([300, -300]))


def weigh(method, grid):
    """The weights as an array, or the class of the method's refusal."""
    try:
        return method(validate_matrix(grid))[0].weights
    except MethodError as exc:
        return type(exc)


@pytest.mark.parametrize("method", [entropy_weights, dwm_weights])
@FIXED
@given(pair=rescaled_matrices())
@example(pair=NEAR_LIMIT_PAIR)
def test_weights_do_not_depend_on_column_units_or_row_order(method, pair):
    grid, rescaled = pair
    expected = weigh(method, grid)
    got = weigh(method, rescaled)
    if isinstance(expected, type):
        assert got is expected
    else:
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@FIXED
@given(pair=rescaled_matrices(), data=st.data())
def test_constant_column_gets_no_dwm_weight(pair, data):
    _, rescaled = pair
    j = data.draw(st.integers(0, rescaled.shape[1] - 1))
    rescaled[:, j] = rescaled[0, j]
    try:
        weights, _ = dwm_weights(validate_matrix(rescaled))
    except AllColumnsConstant:
        return
    assert weights.weights[j] <= 1e-12
