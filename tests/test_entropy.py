"""Entropy weighting: share normalization, column entropy, weights."""

import numpy as np
import pytest

from mcdm_weights import (
    AllColumnsUniform,
    EntropyBreakdown,
    NegativeEntry,
    ZeroColumn,
    entropy_weights,
    normalize_columns,
    validate_matrix,
)

import golden
from oracles import oracle_entropy_weights
from sampling import random_matrices


class TestNormalizeColumns:
    def test_example1_shares_match_published(self, example1):
        shares = normalize_columns(example1)
        np.testing.assert_allclose(
            shares, np.array(golden.EXAMPLE1_NORMALIZED), atol=5e-5
        )

    def test_income_column(self, example1):
        np.testing.assert_allclose(
            normalize_columns(example1)[:, 0],
            [0.1948, 0.1558, 0.2597, 0.3896],
            atol=5e-5,
        )

    def test_security_column(self, example1):
        np.testing.assert_allclose(
            normalize_columns(example1)[:, 4],
            [0.1538, 0.0769, 0.3077, 0.4615],
            atol=5e-5,
        )

    def test_equal_pair_splits_evenly(self):
        m = validate_matrix([[5.0, 1.0], [5.0, 3.0]])
        np.testing.assert_array_equal(normalize_columns(m)[:, 0], [0.5, 0.5])

    def test_negative_entry_located(self):
        m = validate_matrix([[1.0, 2.0], [3.0, -4.0]])
        with pytest.raises(NegativeEntry) as info:
            normalize_columns(m)
        assert (info.value.row, info.value.col) == (1, 1)

    def test_zero_column_located(self):
        m = validate_matrix([[1.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ZeroColumn) as info:
            normalize_columns(m)
        assert info.value.col == 1

    def test_columns_sum_to_one(self, example2):
        sums = normalize_columns(example2).sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def column_entropies(grid):
    return entropy_weights(validate_matrix(grid))[1].entropy


class TestColumnEntropy:
    def test_income_column_matches_published(self, example1):
        entropy = entropy_weights(example1)[1].entropy[0]
        assert entropy == pytest.approx(0.9563, abs=5e-4)

    def test_uniform_column_is_fully_entropic(self):
        grid = [[3.0, 1.0], [3.0, 2.0], [3.0, 3.0], [3.0, 4.0]]
        assert column_entropies(grid)[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_column_has_zero_entropy(self):
        grid = [[5.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 4.0]]
        assert column_entropies(grid)[0] == 0.0

    def test_two_alternatives_allowed(self):
        assert column_entropies([[5.0, 1.0], [5.0, 2.0]])[0] == pytest.approx(
            1.0, abs=1e-12
        )


class TestEntropyWeights:
    def test_example1_weights_match_published(self, example1):
        weights, breakdown = entropy_weights(example1)
        np.testing.assert_allclose(
            weights.weights, golden.EXAMPLE1_ENTROPY_W, atol=5e-4
        )
        np.testing.assert_allclose(
            breakdown.entropy, golden.EXAMPLE1_ENTROPY_E, atol=5e-4
        )
        assert weights.method == "entropy"
        assert breakdown.k == pytest.approx(1.0 / np.log(4), abs=1e-15)

    def test_example2_weights_match_published(self, example2):
        weights, _ = entropy_weights(example2)
        expected = [golden.EXAMPLE2_ENTROPY_W[c] for c in golden.EXAMPLE2_CODES]
        np.testing.assert_allclose(weights.weights, expected, atol=2e-3)

    def test_divergence_is_one_minus_entropy(self, example2):
        _, breakdown = entropy_weights(example2)
        for e, d in zip(breakdown.entropy, breakdown.divergence):
            assert e == 1.0 - d

    def test_results_are_read_only_float64_arrays(self, example1):
        weights, breakdown = entropy_weights(example1)
        for field in (weights.weights, breakdown.entropy, breakdown.divergence):
            assert field.dtype == np.float64
            assert not field.flags.writeable

    def test_breakdown_does_not_follow_the_callers_arrays(self):
        entropy = np.array([0.25, 0.5])
        divergence = 1.0 - entropy
        breakdown = EntropyBreakdown(entropy, divergence, 1.0)
        entropy[0] = 0.75
        divergence[0] = 0.25
        assert breakdown.entropy.tolist() == [0.25, 0.5]
        assert breakdown.divergence.tolist() == [0.75, 0.5]

    def test_breakdown_fields_must_share_one_length(self):
        # divergence == 1 - entropy would broadcast a length-1 divergence
        with pytest.raises(ValueError, match="one length"):
            EntropyBreakdown(np.array([0.5, 0.5, 0.5]), np.array([0.5]), 1.0)

    def test_breakdown_fields_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            EntropyBreakdown(np.array([[0.5]]), np.array([[0.5]]), 1.0)

    @pytest.mark.parametrize("e", [-0.5, 1.5])
    def test_breakdown_entropy_outside_unit_interval_rejected(self, e):
        with pytest.raises(ValueError, match="outside"):
            EntropyBreakdown(np.array([0.5, e]), np.array([0.5, 1.0 - e]), 1.0)

    def test_breakdown_divergence_must_be_one_minus_entropy(self):
        with pytest.raises(ValueError, match="1 - entropy"):
            EntropyBreakdown(np.array([0.5, 0.25]), np.array([0.5, 0.7]), 1.0)

    def test_all_constant_columns_rejected(self):
        m = validate_matrix([[3.0, 7.0], [3.0, 7.0], [3.0, 7.0]])
        with pytest.raises(AllColumnsUniform):
            entropy_weights(m)

    def test_negative_data_propagates(self):
        m = validate_matrix([[1.0, -2.0], [3.0, 4.0]])
        with pytest.raises(NegativeEntry):
            entropy_weights(m)


class TestEntropyProperties:
    def test_matches_oracle(self):
        for _, _, grid in random_matrices(60, seed=101):
            weights, breakdown = entropy_weights(validate_matrix(grid))
            expected_w, expected_e = oracle_entropy_weights(grid.tolist())
            np.testing.assert_allclose(weights.weights, expected_w, atol=1e-12)
            np.testing.assert_allclose(breakdown.entropy, expected_e, atol=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _, _, grid in random_matrices(30, seed=102):
            base, _ = entropy_weights(validate_matrix(grid))
            shuffled, _ = entropy_weights(
                validate_matrix(grid[rng.permutation(grid.shape[0])])
            )
            np.testing.assert_allclose(shuffled.weights, base.weights, atol=1e-12)

    def test_column_scale_invariance(self):
        for _, cols, grid in random_matrices(30, seed=103):
            base, _ = entropy_weights(validate_matrix(grid))
            scaled = grid.copy()
            scaled[:, cols // 2] *= 37.5
            rescored, _ = entropy_weights(validate_matrix(scaled))
            np.testing.assert_allclose(rescored.weights, base.weights, atol=1e-12)

    def test_permuted_columns_share_entropy(self):
        # two columns holding the same value multiset must tie exactly
        grid = np.array(
            [[4.0, 1.0, 9.0], [1.0, 6.0, 2.0], [6.0, 4.0, 5.0], [2.0, 2.0, 1.0]]
        )
        grid = np.column_stack([grid, grid[[2, 0, 3, 1], 0]])
        _, breakdown = entropy_weights(validate_matrix(grid))
        assert breakdown.entropy[3] == pytest.approx(breakdown.entropy[0], abs=1e-12)

    def test_constant_column_gets_zero_weight(self):
        grid = np.array([[1.0, 5.0, 8.0], [2.0, 5.0, 1.0], [9.0, 5.0, 3.0]])
        weights, _ = entropy_weights(validate_matrix(grid))
        assert abs(weights.weights[1]) <= 1e-12

    def test_entropy_stays_in_unit_interval(self):
        for _, _, grid in random_matrices(60, seed=104):
            _, breakdown = entropy_weights(validate_matrix(grid))
            for e in breakdown.entropy:
                assert -1e-12 <= e <= 1.0 + 1e-12
