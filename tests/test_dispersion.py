"""Dispersion weighting: mean, population std, CV, weights."""

import numpy as np
import pytest

from mcdm_weights import (
    AllColumnsConstant,
    DegenerateMean,
    DispersionBreakdown,
    MethodError,
    TooFewAlternatives,
    dwm_weights,
    validate_matrix,
)
from mcdm_weights.dispersion import _dwm_columns

import golden
from oracles import exact_dwm_weights, oracle_dwm_weights
from sampling import random_matrices

INCOME, DISTANCE = 0, 3  # example 1 columns [15, 12, 20, 30] and [10, 3, 30, 1]


def breakdown_of(grid):
    return dwm_weights(validate_matrix(grid))[1]


class TestColumnStats:
    def test_income_mean(self, example1):
        assert dwm_weights(example1)[1].mean[INCOME] == 19.25

    def test_distance_mean(self, example1):
        assert dwm_weights(example1)[1].mean[DISTANCE] == 11.0

    def test_constant_column_mean(self):
        assert breakdown_of([[4.2, 1.0], [4.2, 2.0], [4.2, 3.0]]).mean[0] == 4.2

    def test_income_std_is_population_form(self, example1):
        # divisor n, not n-1: sqrt(186.75 / 4)
        std = dwm_weights(example1)[1].std[INCOME]
        assert std == pytest.approx(6.832825, abs=1e-5)

    def test_distance_std(self, example1):
        std = dwm_weights(example1)[1].std[DISTANCE]
        assert std == pytest.approx(11.46734, abs=1e-4)

    def test_constant_column_std_is_zero(self):
        grid = [[7.0, 1.0], [7.0, 2.0], [7.0, 3.0], [7.0, 4.0]]
        assert breakdown_of(grid).std[0] == 0.0

    def test_single_value_rejected(self):
        # a column needs two values; the matrix model refuses fewer rows
        with pytest.raises(TooFewAlternatives):
            breakdown_of([[1.0]])


class TestCoefficientOfVariation:
    def test_income(self, example1):
        cv = dwm_weights(example1)[1].cv[INCOME]
        assert cv == pytest.approx(0.354952, abs=1e-5)

    def test_distance(self, example1):
        cv = dwm_weights(example1)[1].cv[DISTANCE]
        assert cv == pytest.approx(1.042486, abs=1e-5)

    def test_all_negative_column(self):
        # oracle-computed: CV uses the absolute mean, so negative data works
        grid = [[v, 1.0 + k] for k, v in enumerate(golden.NEGATIVE_COLUMN)]
        breakdown = breakdown_of(grid)
        assert breakdown.mean[0] == golden.NEGATIVE_COLUMN_MEAN
        assert breakdown.std[0] == pytest.approx(golden.NEGATIVE_COLUMN_STD, abs=1e-6)
        assert breakdown.cv[0] == pytest.approx(golden.NEGATIVE_COLUMN_CV, abs=1e-6)

    def test_zero_mean_rejected(self):
        with pytest.raises(DegenerateMean):
            breakdown_of([[-1.0, 1.0], [1.0, 2.0]])

    def test_mean_vanishing_at_scale_rejected(self):
        # mean 5e-4 is nonzero but vanishes next to the column's scale 1e6
        grid = [[1e6, 1.0], [-1e6, 2.0], [1e-3, 3.0], [1e-3, 4.0]]
        with pytest.raises(DegenerateMean):
            breakdown_of(grid)


class TestDwmWeights:
    def test_example1_matches_published(self, example1):
        weights, breakdown = dwm_weights(example1)
        np.testing.assert_allclose(weights.weights, golden.EXAMPLE1_DWM_W, atol=5e-4)
        np.testing.assert_allclose(breakdown.mean, golden.EXAMPLE1_DWM_MU, atol=1e-4)
        np.testing.assert_allclose(breakdown.std, golden.EXAMPLE1_DWM_S, atol=1e-4)
        np.testing.assert_allclose(breakdown.cv, golden.EXAMPLE1_DWM_CV, atol=1e-4)
        assert weights.method == "dwm"

    def test_example2_matches_published(self, example2):
        weights, _ = dwm_weights(example2)
        expected = [golden.EXAMPLE2_DWM_W[c] for c in golden.EXAMPLE2_CODES]
        np.testing.assert_allclose(weights.weights, expected, atol=2e-3)

    def test_results_are_read_only_float64_arrays(self, example1):
        weights, breakdown = dwm_weights(example1)
        for field in (weights.weights, breakdown.mean, breakdown.std, breakdown.cv):
            assert field.dtype == np.float64
            assert not field.flags.writeable

    def test_breakdown_does_not_follow_the_callers_arrays(self):
        mean, std, cv = np.array([[2.0, 4.0], [1.0, 1.0], [0.5, 0.25]])
        breakdown = DispersionBreakdown(mean, std, cv)
        for source in (mean, std, cv):
            source[:] = 9.0
        assert breakdown.mean.tolist() == [2.0, 4.0]
        assert breakdown.std.tolist() == [1.0, 1.0]
        assert breakdown.cv.tolist() == [0.5, 0.25]

    def test_breakdown_fields_must_share_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            DispersionBreakdown(np.ones(3), np.ones(2), np.ones(5))

    def test_breakdown_fields_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            DispersionBreakdown(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))

    def test_breakdown_negative_std_rejected(self):
        with pytest.raises(ValueError, match="standard deviations"):
            DispersionBreakdown(np.ones(2), np.array([1.0, -1.0]), np.ones(2))

    def test_breakdown_negative_cv_rejected(self):
        with pytest.raises(ValueError, match="coefficients of variation"):
            DispersionBreakdown(np.ones(2), np.ones(2), np.array([1.0, -1.0]))

    def test_all_constant_rejected(self):
        m = validate_matrix([[3.0, 7.0], [3.0, 7.0], [3.0, 7.0]])
        with pytest.raises(AllColumnsConstant):
            dwm_weights(m)

    def test_degenerate_mean_located(self):
        m = validate_matrix([[1.0, -5.0], [2.0, 5.0]])
        with pytest.raises(DegenerateMean) as info:
            dwm_weights(m)
        assert info.value.col == 1

    def test_zero_column_rejected_before_division(self):
        # a 0/0 would warn, and the suite turns warnings into errors
        m = validate_matrix([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateMean) as info:
            dwm_weights(m)
        assert info.value.col == 1

    def test_tiny_column_weighs_like_its_unit_scaled_copy(self):
        # the degeneracy test is relative to each column's largest |value|
        grid = np.array([[1.0, 3.0], [2.0, 4.0], [4.0, 1.0]])
        tiny = grid.copy()
        tiny[:, 0] *= 1e-12
        base, _ = dwm_weights(validate_matrix(grid))
        weights, breakdown = dwm_weights(validate_matrix(tiny))
        np.testing.assert_allclose(weights.weights, base.weights, rtol=0, atol=1e-12)
        assert breakdown.mean[0] == pytest.approx(7e-12 / 3, rel=1e-12)

    def test_all_negative_matrix_is_fine(self):
        m = validate_matrix([[-10.0, -1.0], [-20.0, -2.0], [-30.0, -4.0]])
        weights, breakdown = dwm_weights(m)
        assert sum(weights.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in weights.weights)
        assert breakdown.cv[0] == pytest.approx(golden.NEGATIVE_COLUMN_CV, abs=1e-6)


class TestDwmProperties:
    def test_matches_oracle(self):
        for _, _, grid in random_matrices(60, seed=201):
            weights, breakdown = dwm_weights(validate_matrix(grid))
            expected_w, expected_mu, expected_s, expected_cv = oracle_dwm_weights(
                grid.tolist()
            )
            np.testing.assert_allclose(weights.weights, expected_w, atol=1e-12)
            np.testing.assert_allclose(breakdown.mean, expected_mu, atol=1e-12)
            np.testing.assert_allclose(breakdown.cv, expected_cv, atol=1e-12)

    def test_matches_oracle_on_negative_data(self):
        for _, _, grid in random_matrices(30, seed=202, lo=-50.0, hi=-1.0):
            weights, _ = dwm_weights(validate_matrix(grid))
            expected_w, _, _, _ = oracle_dwm_weights(grid.tolist())
            np.testing.assert_allclose(weights.weights, expected_w, atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _, _, grid in random_matrices(30, seed=203):
            base, _ = dwm_weights(validate_matrix(grid))
            shuffled, _ = dwm_weights(
                validate_matrix(grid[rng.permutation(grid.shape[0])])
            )
            np.testing.assert_allclose(shuffled.weights, base.weights, atol=1e-12)

    def test_column_scale_invariance(self):
        # mean and std scale with the column; CV and weights stay put
        for _, cols, grid in random_matrices(30, seed=204):
            base, base_bd = dwm_weights(validate_matrix(grid))
            target = cols // 2
            scaled = grid.copy()
            scaled[:, target] *= 0.125
            rescored, bd = dwm_weights(validate_matrix(scaled))
            np.testing.assert_allclose(rescored.weights, base.weights, atol=1e-12)
            assert bd.mean[target] == pytest.approx(
                0.125 * base_bd.mean[target], rel=1e-12
            )
            assert bd.std[target] == pytest.approx(
                0.125 * base_bd.std[target], rel=1e-12
            )
            np.testing.assert_allclose(bd.cv, base_bd.cv, atol=1e-12)

    def test_not_translation_invariant(self):
        # shifting a column changes its mean but not its std, so weights
        # must move; this is a property of the method, not a defect
        grid = np.array([[1.0, 5.0], [2.0, 9.0], [4.0, 2.0]])
        base, _ = dwm_weights(validate_matrix(grid))
        shifted = grid.copy()
        shifted[:, 0] += 100.0
        moved, _ = dwm_weights(validate_matrix(shifted))
        assert abs(moved.weights[0] - base.weights[0]) > 1e-6

    def test_constant_column_gets_zero_weight(self):
        grid = np.array([[1.0, 5.0, 8.0], [2.0, 5.0, 1.0], [9.0, 5.0, 3.0]])
        weights, _ = dwm_weights(validate_matrix(grid))
        assert abs(weights.weights[1]) <= 1e-12


def test_mean_just_above_the_bound_is_weighed_by_its_own_size():
    # scaled means 2e-9 and 3e-9: past the 1e-9 bound, so each CV divides
    # by the mean itself, not by the bound
    grid = np.array([[-1.0, 1.0], [0.0, -1.0], [1.0 + 6e-9, 9e-9]])
    cv = np.array([float(c) for c in exact_dwm_weights(grid.tolist())[1]])
    # the exact CVs, 408248288.126 and 272165526.976, rounded
    assert np.array_equal(breakdown_of(grid).cv, cv)
    assert np.array_equal(dwm_weights(validate_matrix(grid))[0].weights, cv / cv.sum())


def faulty_stack(rows, cols, seed):
    """Seeded grids over several ranges, with hand-placed faults up front."""
    rng = np.random.default_rng(seed)
    ranges = [(-5.0, 100.0), (1.0, 100.0), (-50.0, -1.0), (1e307, 1.7e308), (1e-300, 1e-299)]
    stack = np.concatenate(
        [rng.uniform(lo, hi, size=(60, rows, cols)) for lo, hi in ranges]
    )
    symmetric = np.linspace(-1.0, 1.0, rows)  # |mean| <= 1e-9 of its scale
    stack[0, :, cols - 1] = 0.0  # a zero column
    stack[1, :, cols // 2] = symmetric  # a degenerate mean
    stack[2] = stack[2, :1]  # every column constant
    stack[4, :, 0] = symmetric + 4e-9  # |mean| just above the bound: weighed
    if cols > 1:
        # a zero column after a degenerate one: the zero column is named
        stack[3, :, 0] = symmetric
        stack[3, :, cols - 1] = 0.0
    return stack


@pytest.mark.parametrize("cols", [1, 5, 8, 9, 12])
@pytest.mark.parametrize("rows", [2, 4, 9])
def test_stacked_kernel_matches_dwm_weights_per_grid(rows, cols):
    stack = faulty_stack(rows, cols, seed=rows * 100 + cols)
    means, stds, cvs, zero, degenerate, constant = _dwm_columns(stack)
    ok = ~(np.logical_or.reduce(zero | degenerate, -1) | constant)
    # the bench's normalization: all passing grids at once
    weights = cvs[ok]
    weights /= np.add.reduce(weights, -1, keepdims=True)
    assert zero[0, -1] and degenerate[1].any() and constant[2] and ok[4]
    if cols > 1:
        assert degenerate[3, 0] and zero[3, -1] and not zero[3, 0]

    passing = iter(weights)
    for t, grid in enumerate(stack):
        try:
            want, breakdown = dwm_weights(validate_matrix(grid))
        except DegenerateMean as exc:
            assert not ok[t]
            faults = zero[t] if zero[t].any() else degenerate[t]
            assert exc.col == int(np.flatnonzero(faults)[0])
            continue
        except MethodError:
            assert not ok[t] and constant[t]
            continue
        assert ok[t]
        assert next(passing).tobytes() == want.weights.tobytes()
        assert means[t].tobytes() == breakdown.mean.tobytes()
        assert stds[t].tobytes() == breakdown.std.tobytes()
        assert cvs[t].tobytes() == breakdown.cv.tobytes()
    assert next(passing, None) is None
