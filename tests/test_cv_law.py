"""The CV² law: why entropy and DWM weights agree.

With ``q = x / mean - 1`` per column, the divergence is exactly
``d = (1 / (A ln A)) * sum f(q)``, ``f(q) = (1 + q) log1p(q) - q``, and
``f(q) = q²/2 - q³/6 + ...`` gives ``d = CV² / (2 ln A) * (1 - γ CV / 3 + ...)``
(γ the column's skewness). So as the columns approach uniform, entropy
weights approach ``CV² / sum CV²`` while DWM weights are ``CV / sum CV``,
and the gap to the CV² law is of the order of the largest CV. The
correlations between the methods follow: Pearson's r is close to
``r(CV², CV)``, and Spearman's rho is exactly ``rho(entropy, CV²)``.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcdm_weights import (
    dwm_weights,
    entropy_weights,
    pearson,
    spearman,
    validate_matrix,
)

from oracles import exact_columns
from sampling import random_matrices

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
def near_uniform_grids(draw, least_top_cv=1e-3, least_fraction=0.0):
    """A grid of 2 to 8 rows whose largest column CV lies in
    [least_top_cv, 0.1].

    Column j is ``level_j * (1 + cv_j * z_j)``, with ``z_j`` its shape
    standardized to mean 0 and standard deviation 1, and ``cv_j`` a drawn
    fraction, at least ``least_fraction``, of the largest CV (column 0
    takes the largest itself). A constant shape gives a constant column,
    unless the column must reach a CV above 0.
    """
    rows = draw(st.integers(2, 8))
    cols = draw(st.integers(2, 5))
    top_cv = draw(st.floats(least_top_cv, 0.1))
    grid = np.empty((rows, cols))
    for j in range(cols):
        shape = draw(column_shapes(rows))
        spread = shape.std()
        if (j == 0 or least_fraction) and spread == 0.0:
            shape[0] += 1.0  # the column must reach its drawn CV
            spread = shape.std()
        z = (shape - shape.mean()) / spread if spread > 0.0 else np.zeros(rows)
        cv = top_cv * (1.0 if j == 0 else draw(st.floats(least_fraction, 1.0)))
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


@FIXED
@given(grid=near_uniform_grids())
def test_pearson_r_between_the_methods_is_predicted_by_the_cvs(grid):
    """``|r(w_e, w_d) - r(CV², CV)| <= 2 max CV / std(CV² / sum CV²)``.

    With ``b = CV² / sum CV²`` and P the centring projection, r is
    scale-invariant, so ``r(CV², CV) = r(b, w_d)``, and r is the inner
    product of the unit vectors ``Px / ||Px||``. Hence
    ``|r(w_e, w_d) - r(b, w_d)| <= ||Pw_e / ||Pw_e|| - Pb / ||Pb|| ||``,
    which is at most ``2 ||P(w_e - b)|| / ||Pb|| <= 2 ||w_e - b|| / ||Pb||``.
    The law above gives ``|w_e - b| <= max CV`` in each of the C entries,
    and ``||Pb|| = sqrt(C) std(b)``.
    """
    matrix = validate_matrix(grid)
    we = entropy_weights(matrix)[0].weights
    dwm, spread = dwm_weights(matrix)
    cv = spread.cv
    assume(np.ptp(we) > 0.0 and np.ptp(cv) > 0.0)  # r needs spread on both sides
    law = cv**2 / (cv**2).sum()
    bound = 2.0 * cv.max() / law.std()
    assert abs(pearson(we, dwm.weights) - pearson(cv**2, cv)) <= bound


@pytest.mark.parametrize("lo", [1.0, 50.0, 90.0])
def test_spearman_rho_between_the_methods_is_rho_with_cv_squared(lo):
    """``rho(w_e, w_d) == rho(w_e, CV²)``, with no approximation.

    ``w_d = CV / sum CV`` and ``CV²`` are both monotone in CV, so they
    rank the criteria alike, ties included; rho sees only ranks. The one
    exception is rounding: two distinct CVs whose squares, or whose DWM
    weights, round to one float tie on one side only. Such draws are
    skipped, and are counted to show they are rare.
    """
    skipped = checked = 0
    for _, cols, grid in random_matrices(400, seed=2025, lo=lo, hi=100.0):
        if cols < 2:
            continue
        matrix = validate_matrix(grid)
        we = entropy_weights(matrix)[0].weights
        dwm, spread = dwm_weights(matrix)
        cv = spread.cv
        # a rounding tie on one side leaves that side fewer distinct values
        if len({len(set(v.tolist())) for v in (cv, cv**2, dwm.weights)}) > 1:
            skipped += 1
            continue
        checked += 1
        assert spearman(we, dwm.weights) == spearman(we, cv**2)
    assert skipped <= checked // 100


def column_0_elasticity(method, grid, eps=1e-4):
    """``d ln w_0 / d ln s_0`` by a central difference, where column 0's
    deviations about its mean are scaled by ``1 ± eps``; and ``w_0``."""
    log_weights = []
    for step in (eps, -eps):
        moved = grid.copy()
        mean = moved[:, 0].mean()
        moved[:, 0] = mean + (1.0 + step) * (moved[:, 0] - mean)
        log_weights.append(np.log(method(validate_matrix(moved))[0].weights[0]))
    w0 = method(validate_matrix(grid))[0].weights[0]
    return (log_weights[0] - log_weights[1]) / (np.log1p(eps) - np.log1p(-eps)), w0


@FIXED
@given(grid=near_uniform_grids(least_top_cv=1e-2, least_fraction=0.1))
def test_entropy_weights_react_twice_as_strongly_to_spread(grid):
    # w_j ∝ s_j**k gives d ln w_j / d ln s_j = k (1 - w_j): DWM is k = 1
    # exactly, and entropy, with d ∝ CV² (1 - γ CV / 3 + κ CV² / 6 + ...),
    # is k = 2 - γ CV / 3 + (κ / 3 - γ² / 9) CV² + ... . Column 0's CV is at
    # least 1e-2, where entropy's 1 - E keeps enough digits for the
    # difference, and every other column's CV is at least a tenth of it, so
    # no weight is near 1.
    elasticity, w0 = column_0_elasticity(dwm_weights, grid)
    # the central difference errs by about eps² = 1e-8
    assert abs(elasticity - (1.0 - w0)) <= 1e-7

    column = grid[:, 0]
    z = (column - column.mean()) / column.std()
    cv = column.std() / column.mean()
    skewness, kurtosis = (z**3).mean(), (z**4).mean()
    elasticity, w0 = column_0_elasticity(entropy_weights, grid)
    k = elasticity / (1.0 - w0)
    # κ >= γ² + 1, so the second-order term lies in (0, κ CV² / 3]; the
    # bound leaves κ CV² / 6 for the terms beyond it
    assert abs(k - (2.0 - skewness * cv / 3)) <= kurtosis * cv**2 / 2
    # hence k = 2 to leading order
    assert abs(k - 2.0) <= abs(skewness) * cv / 3 + kurtosis * cv**2 / 2


@st.composite
def law_grids(draw):
    """A grid of 2 to 8 rows and 1 to 5 columns ``level * (1 + cv * z)``,
    with ``z`` a column shape standardized as in ``near_uniform_grids``,
    each column's cv drawn from 1e-7 to 0.1 on a log scale, and level from
    1e-300 to 1e300. Column 0 has a spread."""
    rows = draw(st.integers(2, 8))
    grid = np.empty((rows, draw(st.integers(1, 5))))
    for j in range(grid.shape[1]):
        shape = draw(column_shapes(rows))
        if j == 0 and shape.std() == 0.0:
            shape[0] += 1.0
        spread = shape.std()
        z = (shape - shape.mean()) / spread if spread > 0.0 else np.zeros(rows)
        cv = 10.0 ** draw(st.floats(-7.0, -1.0))
        grid[:, j] = 10.0 ** draw(st.integers(-300, 300)) * (1.0 + cv * z)
    return grid


@FIXED
@given(grid=law_grids())
def test_divergence_follows_the_cv_squared_law_to_fourth_order(grid):
    """``d 2 ln A / CV² = 1 - γ CV / 3 + κ CV² / 6 + R`` per column.

    ``2 d ln A`` is the mean of ``2 f(q)``, and ``f``'s series
    ``q²/2 - q³/6 + q⁴/12 - ...`` has k-th coefficient at most ``1/20``
    from k = 5 on, so ``|R| <= mean|q|⁵ / (10 CV² (1 - max|q|))``. γ and κ
    are the raw moment ratios ``mean q³ / CV³`` and ``mean q⁴ / CV⁴``, and
    the right side is taken exactly from the grid's own values. d must
    match it to 4e-13 beyond R: at a CV of 1e-7, ``1 - E`` keeps no more
    than 3 digits of d.
    """
    _, breakdown = entropy_weights(validate_matrix(grid))
    rows = len(grid)
    with localcontext() as ctx:
        ctx.prec = 60
        for column, d in zip(exact_columns(grid.tolist()), breakdown.divergence):
            if len(set(column)) == 1:
                continue  # a constant column: no CV to divide by
            mean = sum(column) / rows
            q = [x / mean - 1 for x in column]
            m2, m3, m4 = (sum(v**k for v in q) / rows for k in (2, 3, 4))
            lhs = Decimal(float(d)) * 2 * Decimal(rows).ln() / m2
            rhs = 1 - m3 / (3 * m2) + m4 / (6 * m2)
            remainder = sum(abs(v) ** 5 for v in q) / rows
            bound = remainder / (10 * m2 * (1 - max(map(abs, q))))
            assert abs(lhs - rhs) <= bound + Decimal("4e-13")
