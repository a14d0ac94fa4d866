"""The CV² law: why entropy and DWM weights agree.

With ``q = x / mean - 1`` per column, the divergence is exactly
``d = (1 / (A ln A)) * sum f(q)``, ``f(q) = (1 + q) log1p(q) - q``, and
``f(q) = q²/2 - q³/6 + ...`` gives ``d = CV² / (2 ln A) * (1 - γ CV / 3 + ...)``
(γ the column's skewness). So as the columns approach uniform, entropy
weights approach ``CV² / sum CV²`` while DWM weights are ``CV / sum CV``,
and the gap to the CV² law is of the order of the largest CV.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcdm_weights import entropy_weights, validate_matrix

#: deterministic and bounded, so the suite stays reproducible and fast
FIXED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def column_shapes(draw, rows):
    """One column's pattern before scaling: uniform draws, one spike (the
    most skewed column of its length), or two levels.

    Uniform draws are integers, so no subnormal spread distorts the
    standardized shape.
    """
    kind = draw(st.sampled_from(["uniform", "spike", "two-level"]))
    if kind == "uniform":
        return draw(arrays(np.int64, rows, elements=st.integers(0, 1000))) * 1.0
    shape = np.zeros(rows)
    if kind == "spike":
        shape[draw(st.integers(0, rows - 1))] = draw(st.sampled_from([1.0, -1.0]))
    else:
        shape[: draw(st.integers(1, rows - 1))] = 1.0
        shape = shape[list(draw(st.permutations(range(rows))))]
    return shape


@st.composite
def near_uniform_grids(draw):
    """A grid of 2 to 8 rows whose largest column CV lies in [1e-3, 0.1].

    Column j is ``level_j * (1 + cv_j * z_j)``, with ``z_j`` its shape
    standardized to mean 0 and standard deviation 1, and ``cv_j`` a drawn
    fraction of the largest CV (column 0 takes the largest itself). A
    constant shape gives a constant column.
    """
    rows = draw(st.integers(2, 8))
    cols = draw(st.integers(2, 5))
    top_cv = draw(st.floats(1e-3, 0.1))
    grid = np.empty((rows, cols))
    for j in range(cols):
        shape = draw(column_shapes(rows))
        spread = shape.std()
        if j == 0 and spread == 0.0:
            shape[0] += 1.0  # column 0 must reach the largest CV
            spread = shape.std()
        z = (shape - shape.mean()) / spread if spread > 0.0 else np.zeros(rows)
        cv = top_cv * (1.0 if j == 0 else draw(st.floats(0.0, 1.0)))
        level = 10.0 ** draw(st.integers(-3, 3))
        # |z| <= sqrt(rows - 1) < 2.7, so every entry stays positive
        grid[:, j] = level * (1.0 + cv * z)
    return grid


@FIXED
@given(grid=near_uniform_grids())
def test_entropy_weights_approach_the_cv_squared_law(grid):
    cv = grid.std(axis=0) / grid.mean(axis=0)
    law = cv**2 / (cv**2).sum()
    weights, _ = entropy_weights(validate_matrix(grid))
    assert np.abs(weights.weights - law).max() <= cv.max()
