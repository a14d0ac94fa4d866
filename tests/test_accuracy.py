"""Both weighers against an exact oracle, across the float range.

The exact oracles in ``oracles.py`` carry each float input into 60-digit
decimal arithmetic, so their weights are the true weights of the grid the
package was given. Near-uniform columns are where entropy's ``1 - E``
keeps fewest digits and where a rounded column scaling shows most;
mixed-sign columns with a small mean are where a plain sum cancels. On
both, every weight must lie within 1e-12 of the exact one, and print at 6
decimals as the exact one rounds.
"""

from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcdm_weights import (
    DegenerateMean,
    dwm_weights,
    entropy_weights,
    validate_matrix,
)

from oracles import exact_dwm_weights, exact_entropy_weights

#: deterministic and bounded, so the suite stays reproducible and fast
FIXED = settings(derandomize=True, database=None, max_examples=150, deadline=None)

MICRO = Decimal("1e-6")


@st.composite
def near_uniform_grids(draw):
    """2-8 × 1-6 positive columns ``level * (1 + cv * z)``, z in [-1, 1],
    with cv from 1e-7 to 0.5 and level from 1e-300 to 1e300, per column.
    Some column has a nonzero spread."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    z = draw(arrays(np.float64, (rows, cols), elements=st.floats(-1.0, 1.0)))
    z[0, 0], z[1, 0] = -1.0, 1.0
    cv = 10.0 ** draw(arrays(np.float64, cols, elements=st.floats(-7.0, -0.3)))
    level = 10.0 ** draw(arrays(np.float64, cols, elements=st.floats(-300, 300)))
    return level * (1.0 + cv * z)


@st.composite
def cancelling_grids(draw):
    """2-8 × 1-6 mixed-sign columns whose mean is 1e-8.9 to 1e-3 of their
    largest |value|, at levels from 1e-300 to 1e300."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    z = draw(arrays(np.float64, (rows, cols), elements=st.floats(-1.0, 1.0)))
    z[0], z[1] = -1.0, 1.0
    offset = 10.0 ** draw(arrays(np.float64, cols, elements=st.floats(-8.9, -3.0)))
    level = 10.0 ** draw(arrays(np.float64, cols, elements=st.floats(-300, 300)))
    return (z - z.mean(axis=0) + offset) * level


def assert_exact(weights, exact):
    """Within 1e-12 of the exact weights, and printed at 6 decimals as
    they round, unless one lies within 1e-14 of a halfway point."""
    np.testing.assert_allclose(weights, [float(w) for w in exact], rtol=0, atol=1e-12)
    for got, want in zip(weights.tolist(), exact):
        if abs(want % MICRO - MICRO / 2) > Decimal("1e-14"):
            # abs: a weight is at least 0, and the oracle's may be -1e-60
            assert f"{round(got, 6):.6f}" == str(abs(want).quantize(MICRO))


@FIXED
@given(grid=near_uniform_grids())
def test_entropy_weighs_near_uniform_columns_exactly(grid):
    weights, _ = entropy_weights(validate_matrix(grid))
    assert_exact(weights.weights, exact_entropy_weights(grid.tolist())[0])


@FIXED
@given(grid=near_uniform_grids())
def test_dwm_weighs_near_uniform_columns_exactly(grid):
    weights, _ = dwm_weights(validate_matrix(grid))
    assert_exact(weights.weights, exact_dwm_weights(grid.tolist())[0])


@FIXED
@given(grid=cancelling_grids())
def test_dwm_weighs_cancelling_columns_exactly(grid):
    try:
        weights, _ = dwm_weights(validate_matrix(grid))
    except DegenerateMean as exc:
        # refused only for a mean at most 1e-9 of the largest |value|,
        # up to the rounding of that bound
        column = [Decimal(float(x)) for x in grid[:, exc.col]]
        largest = max(map(abs, column))
        bound = Decimal(1e-9) * largest * Decimal(1 + 1e-15)
        assert abs(sum(column)) / len(column) <= bound
        return
    assert_exact(weights.weights, exact_dwm_weights(grid.tolist())[0])
