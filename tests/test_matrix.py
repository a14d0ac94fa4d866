"""Decision-matrix model: validation, Likert conversion, generation."""

import math

import numpy as np
import pytest

from mcdm_weights import (
    DEFAULT_LIKERT_MAP,
    BadDims,
    BadRange,
    CriterionSpec,
    DuplicateCriterionName,
    LikertMap,
    NonFiniteValue,
    NonRectangular,
    TooFewAlternatives,
    UnknownGrade,
    WeightVector,
    apply_likert,
    generate_matrix,
    validate_matrix,
)

import golden


class TestValidateMatrix:
    def test_example1_grid_is_valid(self):
        m = validate_matrix(
            golden.EXAMPLE1_VALUES,
            golden.EXAMPLE1_ALTERNATIVES,
            golden.EXAMPLE1_CRITERIA,
        )
        assert m.n_alternatives == 4
        assert m.n_criteria == 5
        assert m.criterion_names == golden.EXAMPLE1_CRITERIA
        np.testing.assert_array_equal(m.values, np.array(golden.EXAMPLE1_VALUES))

    def test_single_row_rejected(self):
        with pytest.raises(TooFewAlternatives):
            validate_matrix([[1.0, 2.0, 3.0]])

    def test_nan_located(self):
        grid = np.ones((4, 3))
        grid[2, 1] = math.nan
        with pytest.raises(NonFiniteValue) as info:
            validate_matrix(grid)
        assert (info.value.row, info.value.col) == (2, 1)

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate_matrix([[1.0, math.inf], [2.0, 3.0]])

    def test_ragged_grid_rejected(self):
        with pytest.raises(NonRectangular):
            validate_matrix([[1.0, 2.0], [3.0]])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(NonRectangular):
            validate_matrix([[1.0, 2.0], [3.0, 4.0]], alternatives=["A1"])

    def test_duplicate_criterion_name_rejected(self):
        with pytest.raises(DuplicateCriterionName):
            validate_matrix([[1.0, 2.0], [3.0, 4.0]], criteria=["x", "x"])

    def test_zero_columns_rejected(self):
        with pytest.raises(BadDims):
            validate_matrix(np.empty((3, 0)))

    def test_default_labels(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.alternatives == ("A1", "A2")
        assert m.criterion_names == ("C1", "C2")

    def test_idempotent(self):
        m = validate_matrix(
            golden.EXAMPLE1_VALUES,
            golden.EXAMPLE1_ALTERNATIVES,
            golden.EXAMPLE1_CRITERIA,
        )
        again = validate_matrix(m.values, m.alternatives, m.criteria)
        assert again == m

    def test_values_are_read_only(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0

    def test_values_do_not_follow_the_callers_grid(self):
        array = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows = [[1.0, 2.0], [3.0, 4.0]]
        from_array = validate_matrix(array)
        from_rows = validate_matrix(rows)
        array[0, 0] = 99.0
        rows[0][0] = 99.0
        rows[1] = [7.0, 8.0]
        for m in (from_array, from_rows):
            np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


class TestLikert:
    def test_forward_scores(self):
        assert apply_likert("Extremely high") == 7
        assert apply_likert("Medium") == 4
        assert apply_likert("Low") == 2

    def test_reverse_reflects_about_midpoint(self):
        assert apply_likert("Extremely high", reverse=True) == 1
        assert apply_likert("Relatively high", reverse=True) == 3
        assert apply_likert("Medium", reverse=True) == 4

    def test_unknown_grade(self):
        with pytest.raises(UnknownGrade):
            apply_likert("Stupendous")

    def test_lookup_ignores_case_and_spacing(self):
        assert apply_likert("extremely  HIGH") == 7

    def test_double_reverse_is_identity(self):
        for grade, score in DEFAULT_LIKERT_MAP.grades:
            once = apply_likert(grade, reverse=True)
            lo, hi = DEFAULT_LIKERT_MAP.grades[0][1], DEFAULT_LIKERT_MAP.grades[-1][1]
            assert (hi + lo) - once == score

    def test_map_rejects_nonincreasing_scores(self):
        with pytest.raises(ValueError):
            LikertMap((("low", 2.0), ("high", 2.0)))

    def test_map_rejects_nonpositive_scores(self):
        with pytest.raises(ValueError):
            LikertMap((("zero", 0.0), ("one", 1.0)))


class TestGenerateMatrix:
    def test_deterministic(self):
        a = generate_matrix(42, (4, 5), (1.0, 100.0))
        b = generate_matrix(42, (4, 5), (1.0, 100.0))
        assert a == b
        assert a.values.tobytes() == b.values.tobytes()

    def test_entries_within_range(self):
        m = generate_matrix(7, (6, 4), (-5.0, 5.0))
        assert (m.values >= -5.0).all() and (m.values <= 5.0).all()

    def test_different_seeds_differ(self):
        # derived contract, checked against direct generation: two distinct
        # seeds must disagree somewhere
        a = generate_matrix(1, (4, 5), (1.0, 100.0))
        b = generate_matrix(2, (4, 5), (1.0, 100.0))
        assert (a.values != b.values).any()
        direct = np.random.default_rng(1).uniform(1.0, 100.0, size=(4, 5))
        np.testing.assert_array_equal(a.values, direct)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            generate_matrix(0, (1, 5), (0.0, 1.0))
        with pytest.raises(BadDims):
            generate_matrix(0, (4, 0), (0.0, 1.0))

    def test_bad_range(self):
        with pytest.raises(BadRange):
            generate_matrix(0, (4, 5), (2.0, 2.0))
        with pytest.raises(BadRange):
            generate_matrix(0, (4, 5), (5.0, 1.0))

    def test_range_wider_than_floats_rejected(self):
        # both bounds are finite, but hi - lo is not
        with pytest.raises(BadRange):
            generate_matrix(0, (4, 5), (-1e308, 1e308))


class TestWeightVector:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            WeightVector((0.6, 0.6), "entropy")
        with pytest.raises(ValueError):
            WeightVector((1.2, -0.2), "entropy")

    @pytest.mark.parametrize(
        "weights", [(math.nan, 1.0), (math.inf, 0.0), (0.5, math.nan, 0.5)]
    )
    def test_non_finite_weight_rejected(self, weights):
        with pytest.raises(ValueError):
            WeightVector(weights, "dwm")

    def test_valid_vector(self):
        w = WeightVector((0.25, 0.75), "dwm")
        assert len(w) == 2
        assert list(w) == [0.25, 0.75]

    def test_weights_are_a_read_only_copy(self):
        source = np.array([0.25, 0.75])
        w = WeightVector(source, "dwm")
        source[0] = 0.5
        assert w.weights.dtype == np.float64
        assert not w.weights.flags.writeable
        assert w.weights.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            w.weights[0] = 0.5


class TestCriterionSpec:
    def test_direction_checked(self):
        with pytest.raises(ValueError):
            CriterionSpec("x", direction="sideways")

    def test_defaults(self):
        spec = CriterionSpec("Income")
        assert spec.direction == "benefit"
        assert not spec.likert_reverse
