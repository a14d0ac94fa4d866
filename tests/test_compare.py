"""Scoring, ranking, and the method-to-method statistics."""

import numpy as np
import pytest
from scipy import stats

from mcdm_weights import (
    ComparisonReport,
    ConstantVector,
    DimensionMismatch,
    WeightVector,
    compare_methods,
    compare_weights,
    dwm_weights,
    entropy_weights,
    normalize_columns,
    pearson,
    rank_desc,
    saw_scores,
    spearman,
    validate_matrix,
)

from mcdm_weights.compare import _fractional_ranks, _pearson_rows

import golden
from oracles import oracle_pearson, oracle_rank_desc
from sampling import random_matrices


class TestSawScores:
    def test_forced_arithmetic(self):
        shares = normalize_columns(validate_matrix([[0.6, 0.2], [0.4, 0.8]]))
        scores = saw_scores(shares, WeightVector((0.5, 0.5), "manual"))
        np.testing.assert_allclose(scores, (0.4, 0.6), atol=1e-15)

    def test_one_hot_weights_pick_a_column(self, example1):
        shares = normalize_columns(example1)
        scores = saw_scores(shares, WeightVector((0.0, 0.0, 0.0, 1.0, 0.0), "manual"))
        np.testing.assert_allclose(scores, shares[:, 3], atol=1e-15)

    def test_example1_scores_match_oracle(self, example1):
        # frozen from the brute-force dot products; A3 must come out on top
        shares = normalize_columns(example1)
        weights, _ = entropy_weights(example1)
        scores = saw_scores(shares, weights)
        np.testing.assert_allclose(scores, golden.EXAMPLE1_SAW_ENTROPY, atol=1e-12)
        assert int(np.argmax(scores)) == golden.EXAMPLE1_TOP_ALTERNATIVE

    def test_example1_dwm_scores_match_oracle(self, example1):
        shares = normalize_columns(example1)
        weights, _ = dwm_weights(example1)
        scores = saw_scores(shares, weights)
        np.testing.assert_allclose(scores, golden.EXAMPLE1_SAW_DWM, atol=1e-12)
        assert int(np.argmax(scores)) == golden.EXAMPLE1_TOP_ALTERNATIVE

    def test_correlated_weightings_can_pick_different_alternatives(
        self, example1, example2
    ):
        # the paper's agreement is between weight vectors; the alternative
        # SAW picks from them may still differ
        picks = {}
        for name, matrix in (("example1", example1), ("example2", example2)):
            shares = normalize_columns(matrix)
            entropy, dwm = entropy_weights(matrix)[0], dwm_weights(matrix)[0]
            by_entropy, by_dwm = saw_scores(shares, entropy), saw_scores(shares, dwm)
            picks[name] = (
                matrix.alternatives[int(np.argmax(by_entropy))],
                matrix.alternatives[int(np.argmax(by_dwm))],
                round(pearson(entropy.weights, dwm.weights), 3),
                round(spearman(by_entropy, by_dwm), 12),
            )
        assert picks == {
            "example1": ("A3", "A3", 0.997, 1.0),
            "example2": ("HMM", "YM", 0.975, 0.8),
        }

    def test_dimension_mismatch(self, example1):
        shares = normalize_columns(example1)
        with pytest.raises(DimensionMismatch):
            saw_scores(shares, WeightVector((0.5, 0.5), "manual"))

    def test_shares_must_be_2d(self):
        with pytest.raises(DimensionMismatch, match="2-D"):
            saw_scores(np.ones(2), WeightVector((0.5, 0.5), "manual"))

    def test_linear_in_weights(self, example1):
        shares = normalize_columns(example1)
        w1, _ = entropy_weights(example1)
        w2, _ = dwm_weights(example1)
        alpha = 0.3
        blended = WeightVector(
            tuple(alpha * a + (1 - alpha) * b for a, b in zip(w1, w2)), "blend"
        )
        lhs = saw_scores(shares, blended)
        s1 = saw_scores(shares, w1)
        s2 = saw_scores(shares, w2)
        rhs = [alpha * a + (1 - alpha) * b for a, b in zip(s1, s2)]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestRankDesc:
    def test_example1_entropy_ranks(self):
        assert rank_desc(golden.EXAMPLE1_ENTROPY_W) == golden.EXAMPLE1_RANKS

    def test_example1_dwm_ranks(self):
        assert rank_desc(golden.EXAMPLE1_DWM_W) == golden.EXAMPLE1_RANKS

    def test_ties_break_toward_lower_index(self):
        assert rank_desc([1.0, 1.0, 1.0]) == (1, 2, 3)

    def test_always_a_permutation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(-10, 10, size=int(rng.integers(1, 12)))
            ranks = rank_desc(values)
            assert sorted(ranks) == list(range(1, len(values) + 1))

    def test_published_comparison_ranks_at_consistent_positions(self):
        # the published dispersion-side rank column is internally
        # inconsistent (rank 10 appears twice, rank 12 never); check only
        # the positions that agree with the published weights themselves
        published = {
            "F1": 21, "F2": 4, "F6": 9, "F8": 13, "F9": 14, "F12": 10,
            "F13": 11, "F14": 18, "F15": 17, "F16": 6, "F24": 5, "F25": 2,
            "F19": 19, "F3": 8, "F5": 20, "F20": 1, "F21": 3,
        }
        weights = [golden.EXAMPLE2_DWM_W[c] for c in golden.EXAMPLE2_CODES]
        ranks = rank_desc(weights)
        for code, expected in published.items():
            assert ranks[golden.EXAMPLE2_CODES.index(code)] == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_desc([])

    def test_matches_oracle_with_ties_and_signed_zeros(self):
        rng = np.random.default_rng(17)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.25, 1e-300, -1e-300, 1e300])
        for trial in range(3000):
            n = int(rng.integers(1, 40))
            if trial % 3 == 0:
                values = rng.uniform(-1, 1, n)
            else:
                # few distinct values, so most vectors hold ties
                values = rng.choice(pool[: int(rng.integers(2, pool.size + 1))], n)
            assert rank_desc(values) == tuple(oracle_rank_desc(values.tolist()))


def stacked_pearson(x, y):
    """``pearson`` through the row kernel: the pair is the middle row of a
    Fortran-ordered stack, between a constant row and a random one."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    noise = np.random.default_rng(x.size).uniform(-1.0, 1.0, x.size)
    xs = np.asfortranarray([np.full(x.size, 2.0), x, noise])
    ys = np.asfortranarray([noise, y, noise[::-1]])
    r, constant = _pearson_rows(xs, ys)
    assert constant[0]
    if constant[1]:
        raise ConstantVector("flagged by the row kernel")
    return float(r[1])


#: the wrapper and the kernel's stacked case must pass the same cases
BOTH_WAYS = (pearson, stacked_pearson)


class TestPearson:
    def test_affine_cases(self):
        x = [1.0, 2.0, 5.0, 9.0]
        for corr in BOTH_WAYS:
            assert corr(x, [3 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
            assert corr(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 20)
        y = rng.uniform(0, 1, 20)
        for corr in BOTH_WAYS:
            assert corr(x, y) == pytest.approx(corr(y, x), abs=1e-15)

    def test_example1_weight_pair(self, example1):
        we, _ = entropy_weights(example1)
        wd, _ = dwm_weights(example1)
        for corr in BOTH_WAYS:
            r = corr(we.weights, wd.weights)
            assert r == pytest.approx(golden.EXAMPLE1_PEARSON_ORACLE, abs=1e-12)
            assert r == pytest.approx(golden.EXAMPLE1_PEARSON_PUBLISHED, abs=2e-3)

    def test_example2_published_pair_reproduces_spss_value(self):
        # the published .980 came from the comparison table as printed
        entropy_w = [golden.EXAMPLE2_ENTROPY_W[c] for c in golden.EXAMPLE2_CODES]
        dwm_w = [
            golden.EXAMPLE2_COMPARISON_DWM_W_AS_PRINTED[c]
            for c in golden.EXAMPLE2_CODES
        ]
        for corr in BOTH_WAYS:
            assert corr(entropy_w, dwm_w) == pytest.approx(
                golden.EXAMPLE2_PEARSON_PUBLISHED, abs=2e-3
            )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            pearson([1.0], [2.0])

    def test_constant_vector(self):
        for corr in BOTH_WAYS:
            with pytest.raises(ConstantVector):
                corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
            with pytest.raises(ConstantVector):
                corr([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])

    def test_matches_oracle_and_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.uniform(-5, 5, n)
            y = rng.uniform(-5, 5, n)
            for corr in BOTH_WAYS:
                r = corr(x, y)
                assert r == pytest.approx(oracle_pearson(list(x), list(y)), abs=1e-12)
                assert r == pytest.approx(stats.pearsonr(x, y).statistic, abs=1e-12)
                # beyond about 1e+-154 the unscaled sums would over- or underflow
                for k in (-900, 900):
                    assert corr(np.ldexp(x, k), y) == r

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_equal_pearson_bit_for_bit(self, order):
        # rows of 1 to 33 points at scales 1e-9 to 1e9; one-point rows and
        # rows holding one exact value are flagged constant, and only they
        rng = np.random.default_rng(29)
        for n in range(1, 34):
            scale = 10.0 ** rng.uniform(-9, 9, (2, 30, 1))
            x = rng.uniform(-5.0, 100.0, (2, 30, n)) * scale
            y = rng.uniform(-5.0, 100.0, (2, 30, n)) * scale
            x[0, ::4] = rng.integers(-9, 9, (8, 1))
            y[1, ::5] = 7.0
            x, y = np.asarray(x, order=order), np.asarray(y, order=order)
            r, constant = _pearson_rows(x, y)
            assert r.shape == constant.shape == (2, 30)
            for i in np.ndindex(2, 30):
                try:
                    want = pearson(x[i], y[i])
                except (ConstantVector, DimensionMismatch):
                    assert constant[i] and np.isnan(r[i])
                    continue
                assert not constant[i]
                assert r[i] == want


class TestSpearman:
    def test_monotone_map_gives_one(self):
        x = [1.0, 4.0, 2.0, 9.0]
        y = [v**3 for v in x]
        assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            x = rng.integers(0, 6, n).astype(float)  # ties likely
            y = rng.integers(0, 6, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(
                stats.spearmanr(x, y).statistic, abs=1e-12
            )

    @pytest.mark.parametrize(
        "x, y", [([1.0, 2.0, 3.0], [1.0, 2.0]), ([[1.0, 2.0], [3.0, 4.0]],) * 2]
    )
    def test_shapes_must_be_one_equal_1d_shape(self, x, y):
        # unchecked, numpy 1.x's flat np.unique inverse would rank each 2-D
        # grid as one vector and correlate the two
        with pytest.raises(DimensionMismatch, match="shapes"):
            spearman(x, y)

    def test_fractional_ranks_are_exact_average_ranks(self):
        rng = np.random.default_rng(29)
        for n in range(1, 40):
            for x in (rng.integers(0, 5, n).astype(float), rng.uniform(-1, 1, n)):
                np.testing.assert_array_equal(
                    _fractional_ranks(x), stats.rankdata(-x, method="average")
                )


class TestComparisonReport:
    def test_correlation_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ComparisonReport((1, 2), (1, 2), 1.5, None, 2)
        with pytest.raises(ValueError, match="outside"):
            ComparisonReport((1, 2), (1, 2), None, -1.5, 2)
        with pytest.raises(ValueError, match="outside"):
            ComparisonReport((1, 2), (2, 1), float("nan"), None, 0)

    def test_ranks_must_be_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            ComparisonReport((1, 2), (1, 1), None, None, 1)
        # the check counts and looks up values, so a repeat that pads the
        # length and a value past C must fail it too
        for ranks in ((1, 2, 2), (1, 3)):
            with pytest.raises(ValueError, match="permutation"):
                ComparisonReport((1, 2), ranks, None, None, 1)

    def test_agreement_count_must_match_the_ranks(self):
        with pytest.raises(ValueError, match="^rank_agreements 5, not 0$"):
            ComparisonReport((1, 2), (2, 1), None, None, 5)
        with pytest.raises(ValueError, match="^rank_agreements 0, not 2$"):
            ComparisonReport((1, 2), (1, 2), None, None, 0)

    def test_weights_of_different_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            compare_weights(
                WeightVector((0.5, 0.5), "a"), WeightVector((0.2, 0.3, 0.5), "b")
            )


class TestCompareMethods:
    def test_example1_rank_vectors_identical(self, example1):
        report = compare_methods(example1)
        assert report.ranks_a == golden.EXAMPLE1_RANKS
        assert report.ranks_b == golden.EXAMPLE1_RANKS
        assert report.rank_agreements == 5
        assert report.spearman == pytest.approx(1.0, abs=1e-12)

    def test_example2_statistics(self, example2):
        report = compare_methods(example2)
        assert report.pearson == pytest.approx(
            golden.EXAMPLE2_PEARSON_ORACLE, abs=1e-12
        )
        assert report.spearman == pytest.approx(
            golden.EXAMPLE2_SPEARMAN_ORACLE, abs=1e-12
        )
        top3 = tuple(
            golden.EXAMPLE2_CODES[report.ranks_b.index(r)] for r in (1, 2, 3)
        )
        assert top3 == golden.EXAMPLE2_TOP3

    def test_symmetric_input_reports_not_applicable(self):
        # both methods emit (0.5, 0.5); correlation is undefined, not an error
        m = validate_matrix([[1.0, 2.0], [3.0, 6.0]])
        report = compare_methods(m)
        for method in (entropy_weights, dwm_weights):
            weights, _ = method(m)
            np.testing.assert_allclose(weights.weights, (0.5, 0.5), atol=1e-12)
        assert report.pearson is None
        assert report.spearman is None
        assert report.rank_agreements == 2

    def test_agreement_count_spot_check(self):
        cases = [
            ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5), (1, 2, 3), (3, 2, 1), 1),
            # tied weights share their average rank in rho, not in the ranks
            ((0.4, 0.4, 0.2), (0.2, 0.5, 0.3), (1, 2, 3), (3, 1, 2), 0),
            # one constant side leaves both correlations undefined
            ((0.25,) * 4, (0.1, 0.2, 0.3, 0.4), (1, 2, 3, 4), (4, 3, 2, 1), 0),
        ]
        for a, b, ranks_a, ranks_b, agreements in cases:
            report = compare_weights(WeightVector(a, "entropy"), WeightVector(b, "dwm"))
            assert report.ranks_a == ranks_a
            assert report.ranks_b == ranks_b
            assert report.rank_agreements == agreements
            if len(set(a)) == 1:
                assert report.pearson is report.spearman is None
            else:
                assert report.pearson == pearson(a, b)
                assert report.spearman == spearman(a, b)
                assert report.spearman == pytest.approx(
                    stats.spearmanr(a, b).statistic, abs=1e-12
                )

    def test_matches_sequential_weighers(self):
        for _, _, grid in random_matrices(20, seed=301):
            m = validate_matrix(grid)
            report = compare_methods(m)
            we, _ = entropy_weights(m)
            wd, _ = dwm_weights(m)
            assert report.ranks_a == rank_desc(we.weights)
            assert report.ranks_b == rank_desc(wd.weights)
            # one criterion leaves the correlations undefined
            single = len(we) == 1
            expected_r = None if single else pearson(we.weights, wd.weights)
            expected_rho = None if single else spearman(we.weights, wd.weights)
            assert report.pearson == expected_r
            assert report.spearman == expected_rho
