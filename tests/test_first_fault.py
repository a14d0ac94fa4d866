"""Which fault is reported when a grid holds several.

Every located error names the first faulty cell in row-major (C) order,
the order ``np.argwhere`` lists cells in, or the lowest faulty column, and
that holds for Fortran-ordered and transposed grids too.
"""

import math

import numpy as np
import pytest

from mcdm_weights import (
    DegenerateMean,
    NegativeEntry,
    NonFiniteValue,
    ZeroColumn,
    dwm_weights,
    normalize_columns,
    validate_matrix,
)


def layouts(grid):
    """The same logical grid as C-ordered, Fortran-ordered and transposed
    arrays (the last a view whose memory runs down the columns)."""
    grid = np.array(grid, dtype=np.float64)
    return [
        pytest.param(np.ascontiguousarray(grid), id="c-order"),
        pytest.param(np.asfortranarray(grid), id="fortran-order"),
        pytest.param(np.ascontiguousarray(grid.T).T, id="transposed"),
    ]


# NaN at (2, 1), inf at (1, 3), -inf at (3, 0): row-major order meets (1, 3)
# first, column-major order would meet (3, 0)
NON_FINITE = [[1.0] * 4 for _ in range(4)]
NON_FINITE[2][1] = math.nan
NON_FINITE[1][3] = math.inf
NON_FINITE[3][0] = -math.inf

# negatives at (0, 4), (1, 0) and (3, 2); column 3 is all zero as well
NEGATIVE = [
    [1.0, 2.0, 3.0, 0.0, -1.0],
    [-2.0, 2.0, 3.0, 0.0, 5.0],
    [1.0, 2.0, 3.0, 0.0, 5.0],
    [1.0, 2.0, -3.0, 0.0, 5.0],
]

# zero columns 1 and 3
ZERO = [[1.0, 0.0, 2.0, 0.0], [3.0, 0.0, 4.0, 0.0], [5.0, 0.0, 6.0, 0.0]]

# columns 2 and 4 have a zero mean
DEGENERATE = [[1.0, 2.0, 1.0, 3.0, -4.0], [2.0, 3.0, -1.0, 4.0, 4.0]]

# column 1 has a zero mean and column 3 is all zero: the zero column is
# refused before any mean is taken, so it is the one named
ZERO_BEFORE_MEAN = [[1.0, 5.0, 2.0, 0.0], [2.0, -5.0, 3.0, 0.0]]


@pytest.mark.parametrize("grid", layouts(NON_FINITE))
def test_first_non_finite_value_in_row_major_order(grid):
    with pytest.raises(NonFiniteValue) as info:
        validate_matrix(grid)
    assert (info.value.row, info.value.col) == (1, 3)


@pytest.mark.parametrize("grid", layouts(NEGATIVE))
def test_first_negative_entry_in_row_major_order(grid):
    with pytest.raises(NegativeEntry) as info:
        normalize_columns(validate_matrix(grid))
    assert (info.value.row, info.value.col) == (0, 4)


@pytest.mark.parametrize("grid", layouts(ZERO))
def test_lowest_zero_column(grid):
    with pytest.raises(ZeroColumn) as info:
        normalize_columns(validate_matrix(grid))
    assert info.value.col == 1


@pytest.mark.parametrize("grid", layouts(DEGENERATE))
def test_lowest_degenerate_mean(grid):
    with pytest.raises(DegenerateMean) as info:
        dwm_weights(validate_matrix(grid))
    assert info.value.col == 2


@pytest.mark.parametrize("grid", layouts(ZERO_BEFORE_MEAN))
def test_zero_column_is_named_before_a_lower_degenerate_mean(grid):
    with pytest.raises(DegenerateMean) as info:
        dwm_weights(validate_matrix(grid))
    assert info.value.col == 3


def test_located_faults_agree_with_argwhere_on_random_grids():
    rng = np.random.default_rng(8)
    for _ in range(300):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        grid = rng.uniform(-1.0, 4.0, size=(rows, cols))
        if rng.random() < 0.5:
            grid = np.asfortranarray(grid)
        matrix = validate_matrix(grid)
        negatives = np.argwhere(grid < 0)
        if negatives.size:
            with pytest.raises(NegativeEntry) as info:
                normalize_columns(matrix)
            assert (info.value.row, info.value.col) == tuple(negatives[0])
        broken = grid.copy()
        broken[rng.random(grid.shape) < 0.2] = math.nan
        non_finite = np.argwhere(np.isnan(broken))
        if non_finite.size:
            with pytest.raises(NonFiniteValue) as info:
                validate_matrix(broken)
            assert (info.value.row, info.value.col) == tuple(non_finite[0])
