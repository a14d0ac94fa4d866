"""Decision-matrix model: validation, Likert conversion, generation."""

import math

import numpy as np
import pytest

from mcdm_weights import (
    DEFAULT_LIKERT_MAP,
    BadDims,
    BadRange,
    CriterionSpec,
    DecisionMatrix,
    DispersionBreakdown,
    DuplicateCriterionName,
    EntropyBreakdown,
    LikertMap,
    NonFiniteValue,
    NonRectangular,
    TooFewAlternatives,
    UnknownGrade,
    WeightVector,
    build_report,
    compare_weights,
    dwm_weights,
    emit_report,
    entropy_weights,
    generate_matrix,
    pearson,
    rank_desc,
    saw_scores,
    spearman,
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

    def test_1d_array_rejected(self):
        with pytest.raises(NonRectangular, match="2-D"):
            validate_matrix(np.ones(3))

    def test_criterion_count_mismatch_rejected(self):
        with pytest.raises(NonRectangular, match="criterion specs"):
            validate_matrix([[1.0, 2.0], [3.0, 4.0]], criteria=["x"])

    def test_matrix_is_not_equal_to_other_types(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert (m == 3) is False
        assert m != 3

    def test_default_labels(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.alternatives == ("A1", "A2")
        assert m.criterion_names == ("C1", "C2")
        grid = np.arange(1.0, 13.0).reshape(4, 3)
        built = DecisionMatrix(None, None, grid)
        assert built == validate_matrix(grid)
        assert built.alternatives == ("A1", "A2", "A3", "A4")
        assert built.criterion_names == ("C1", "C2", "C3")

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


# NaN at (2, 1) and inf at (1, 3) of a Fortran-ordered grid: row-major
# order meets (1, 3) first, the grid's memory order (2, 1)
NON_FINITE = np.ones((4, 4), order="F")
NON_FINITE[2, 1] = math.nan
NON_FINITE[1, 3] = math.inf
SQUARE = [[1.0, 2.0], [3.0, 4.0]]

#: grids and labels that both ways into a DecisionMatrix refuse, as (values,
#: alternatives, criteria, error); None labels are validate_matrix's defaults
INVALID = {
    "non-finite": (NON_FINITE, None, None, NonFiniteValue),
    "inf": ([[1.0, math.inf], [2.0, 3.0]], None, None, NonFiniteValue),
    "one-row": ([[1.0, 2.0, 3.0]], None, None, TooFewAlternatives),
    "no-rows": ([], None, None, TooFewAlternatives),
    "no-columns": (np.empty((3, 0)), None, None, BadDims),
    "1-d": (np.ones(3), None, None, NonRectangular),
    "ragged": ([[1.0, 2.0], [3.0]], None, None, NonRectangular),
    "1-d-list": ([1.0, 2.0], None, None, NonRectangular),
    "3-d-list": ([[[1.0, 2.0]], [[3.0, 4.0]]], None, None, NonRectangular),
    "non-numeric-cell": ([["1", "x"], ["2", "3"]], None, None, NonRectangular),
    "complex-cell": ([[1.0, 2j], [3.0, 4.0]], None, None, NonRectangular),
    "complex-array": (np.array([[1j, 1], [1, 1]]), None, None, NonRectangular),
    "numpy-complex-cell": (
        [[np.complex128(2j), 1.0], [1.0, 1.0]], None, None, NonRectangular
    ),
    "int-past-float-range": ([[10**400, 1], [1, 1]], None, None, NonRectangular),
    "label-count": (SQUARE, ["A1"], ["x", "y"], NonRectangular),
    "spec-count": (SQUARE, ["A1", "A2"], ["x"], NonRectangular),
    "duplicate-name": (SQUARE, ["A1", "A2"], ["x", "x"], DuplicateCriterionName),
    "duplicate-spec": (
        SQUARE, ["A1", "A2"], ["x", CriterionSpec("x")], DuplicateCriterionName
    ),
}


def refusal(build, *args):
    """The class, message and attributes (a fault's position) of the error
    ``build(*args)`` raises."""
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value), vars(info.value)


@pytest.mark.parametrize("case", INVALID.values(), ids=INVALID.keys())
def test_the_constructor_refuses_what_validate_matrix_refuses(case):
    values, alternatives, criteria, error = case
    via_validate = refusal(validate_matrix, values, alternatives, criteria)
    # a grid fault is raised before any label is read, so where
    # validate_matrix fills in default labels the constructor gets none
    via_type = refusal(DecisionMatrix, alternatives or (), criteria or (), values)
    assert via_validate[0] is error
    assert via_type == via_validate


#: two-cell vectors that cannot be read as real numbers: numpy would drop
#: an imaginary part with only a warning, or raise an untyped error
UNREADABLE = {
    "complex-array": np.array([0.5 + 1j, 0.5]),
    "numpy-complex-cell": [np.complex128(0.5 + 1j), 0.5],
    "complex-cell": [0.5 + 1j, 0.5],
    "string-cell": ["a", 0.5],
    "int-past-float-range": [10**400, 0.5],
    "ragged": [[0.5, 0.5], 0.5],
}


def two_rows(vector):
    """Two rows of ``vector``, an ndarray if it is one."""
    if isinstance(vector, np.ndarray):
        return np.stack((vector, vector))
    return [vector, vector]


HALVES = WeightVector((0.5, 0.5), "x")

#: every public entry point that reads a caller's array, given ``vector``
#: where it reads one and valid values elsewhere
READERS = {
    "DecisionMatrix": lambda vector: DecisionMatrix(None, None, two_rows(vector)),
    "WeightVector": lambda vector: WeightVector(vector, "x"),
    "EntropyBreakdown": lambda vector: EntropyBreakdown([0.5, 0.5], vector, 1.0),
    "DispersionBreakdown": lambda vector: DispersionBreakdown(
        [1.0, 2.0], [0.5, 0.5], vector
    ),
    "pearson": lambda vector: pearson([1.0, 2.0], vector),
    "spearman": lambda vector: spearman(vector, [1.0, 2.0]),
    "rank_desc": rank_desc,
    "saw_scores": lambda vector: saw_scores(two_rows(vector), HALVES),
}

NAN, INF = math.nan, math.inf


def at(row, col):
    return f"non-finite value at row {row}, column {col}$"


#: calls that refuse their input, as (call, args, error, a pattern its
#: message matches); a NonFiniteValue in a vector pair names the vector,
#: 0 for x and 1 for y, as its row. A warning on the way is raised as an
#: error, so it fails the case
REFUSED = {
    **{
        f"{reader}-{value}": (read, (vector,), NonRectangular, "real numbers")
        for reader, read in READERS.items()
        for value, vector in UNREADABLE.items()
    },
    "pearson-nan": (pearson, ([NAN, 2, 3], [1, 2, 4]), NonFiniteValue, at(0, 0)),
    "pearson-inf": (pearson, ([1, 2, 3], [1, INF, 4]), NonFiniteValue, at(1, 1)),
    "spearman-nan": (spearman, ([1, 2, 3], [1, 2, NAN]), NonFiniteValue, at(1, 2)),
    "spearman-inf": (spearman, ([1, 2, -INF], [1, 2, 4]), NonFiniteValue, at(0, 2)),
    "saw_scores-nan": (
        saw_scores, ([[NAN, 2], [3, 4]], HALVES), NonFiniteValue, at(0, 0)
    ),
    "saw_scores-inf": (
        saw_scores, ([[1, 2], [3, -INF]], HALVES), NonFiniteValue, at(1, 1)
    ),
    "rank_desc-2-d": (rank_desc, ([[1, 2], [3, 4]],), ValueError, "1-D vector"),
    # an int past int64 or a None makes numpy read an object array, whose
    # dtype is not complex though a cell is
    "rank_desc-object-complex-big-int": (
        rank_desc, ([np.complex128(1 + 1j), 10**20],), NonRectangular, "real numbers"
    ),
    "rank_desc-object-complex-none": (
        rank_desc, ([np.complex128(1j), 2.0, None],), NonRectangular, "real numbers"
    ),
    "validate_matrix-object-complex-big-int": (
        validate_matrix,
        ([[np.complex128(1 + 1j), 10**20], [1, 2]],),
        NonRectangular,
        "real numbers",
    ),
    "pearson-object-complex-big-int": (
        pearson,
        ([np.complex128(1 + 1j), 10**20, 3], [1, 2, 4]),
        NonRectangular,
        "real numbers",
    ),
    "DispersionBreakdown-nan-mean": (
        DispersionBreakdown, ([NAN, 2], [1, 1], [NAN, 0.5]), ValueError, "finite"
    ),
    "DispersionBreakdown-inf-std": (
        DispersionBreakdown, ([1, 2], [INF, 1], [INF, 0.5]), ValueError, "finite"
    ),
    "DispersionBreakdown-inf-cv": (
        DispersionBreakdown, ([1, 2], [1, 1], [1, INF]), ValueError, "finite"
    ),
}


@pytest.mark.parametrize("case", REFUSED.values(), ids=REFUSED.keys())
def test_every_array_reader_refuses_unreadable_and_non_finite_input(case):
    call, args, error, message = case
    with pytest.raises(error, match=message):
        call(*args)


class TestMemoryLayout:
    """One grid weighs to the same bits in any memory layout."""

    GRID = np.random.default_rng(27).uniform(1.0, 100.0, size=(3000, 20))

    def layouts(self):
        grid = self.GRID
        wider = np.zeros((grid.shape[0], 2 * grid.shape[1]))
        wider[:, 1::2] = grid
        return {
            "c-order": np.ascontiguousarray(grid),
            "fortran-order": np.asfortranarray(grid),
            "transposed": np.ascontiguousarray(grid.T).T,
            "negative-strides": np.ascontiguousarray(grid[::-1, ::-1])[::-1, ::-1],
            "column-slice": wider[:, 1::2],
        }

    @staticmethod
    def weighed(values):
        """Bytes of every array both weighers return, and the report's JSON
        and CSV."""
        matrix = validate_matrix(values)
        entropy, dwm = entropy_weights(matrix), dwm_weights(matrix)
        arrays = [
            np.asarray(array).tobytes()
            for weights, breakdown in (entropy, dwm)
            for array in (weights.weights, *vars(breakdown).values())
        ]
        report = build_report(
            matrix.criterion_names,
            "0" * 64,
            entropy,
            dwm,
            compare_weights(entropy[0], dwm[0]),
        )
        return arrays, emit_report(report, "json"), emit_report(report, "csv")

    def test_values_are_a_read_only_c_ordered_copy(self):
        for name, values in self.layouts().items():
            checked = validate_matrix(values)
            direct = DecisionMatrix(checked.alternatives, checked.criteria, values)
            for matrix in (checked, direct):
                assert matrix.values.flags.c_contiguous, name
                assert not matrix.values.flags.writeable, name
                assert np.array_equal(matrix.values, self.GRID), name

    def test_weights_breakdowns_and_reports_do_not_depend_on_layout(self):
        layouts = self.layouts()
        expected = self.weighed(layouts.pop("c-order"))
        for name, values in layouts.items():
            assert self.weighed(values) == expected, name


class TestLikert:
    def test_forward_scores(self):
        assert DEFAULT_LIKERT_MAP.score("Extremely high") == 7
        assert DEFAULT_LIKERT_MAP.score("Medium") == 4
        assert DEFAULT_LIKERT_MAP.score("Low") == 2

    def test_reverse_reflects_about_midpoint(self):
        assert DEFAULT_LIKERT_MAP.score("Extremely high", reverse=True) == 1
        assert DEFAULT_LIKERT_MAP.score("Relatively high", reverse=True) == 3
        assert DEFAULT_LIKERT_MAP.score("Medium", reverse=True) == 4

    def test_unknown_grade(self):
        with pytest.raises(UnknownGrade):
            DEFAULT_LIKERT_MAP.score("Stupendous")

    def test_lookup_ignores_case_and_spacing(self):
        assert DEFAULT_LIKERT_MAP.score("extremely  HIGH") == 7

    def test_double_reverse_is_identity(self):
        for grade, score in DEFAULT_LIKERT_MAP.grades:
            once = DEFAULT_LIKERT_MAP.score(grade, reverse=True)
            lo, hi = DEFAULT_LIKERT_MAP.grades[0][1], DEFAULT_LIKERT_MAP.grades[-1][1]
            assert (hi + lo) - once == score

    def test_map_rejects_nonincreasing_scores(self):
        with pytest.raises(ValueError):
            LikertMap((("low", 2.0), ("high", 2.0)))

    def test_map_rejects_nonpositive_scores(self):
        with pytest.raises(ValueError):
            LikertMap((("zero", 0.0), ("one", 1.0)))

    def test_map_rejects_empty_scale(self):
        with pytest.raises(ValueError, match="at least one grade"):
            LikertMap(())

    def test_map_rejects_labels_differing_only_in_case(self):
        with pytest.raises(ValueError, match="duplicate"):
            LikertMap((("Low", 1.0), ("low", 2.0)))

    def test_map_rejects_nan_score(self):
        # NaN compares false both ways, so the order checks alone let it by
        with pytest.raises(ValueError, match="finite"):
            LikertMap((("lo", 1.0), ("hi", math.nan)))

    def test_map_rejects_infinite_score(self):
        # an infinite top score would reverse-code itself to inf - inf = NaN
        with pytest.raises(ValueError, match="finite"):
            LikertMap((("lo", 1.0), ("hi", math.inf)))


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
        # a range that is not a pair of real numbers
        for value_range in [(1.0,), (1.0, 2.0, 3.0), ("a", "b"), (1.0, "2"), 1.0]:
            with pytest.raises(BadRange, match="must be real numbers"):
                generate_matrix(0, (4, 5), value_range)

    def test_range_wider_than_floats_rejected(self):
        # both bounds are finite, but hi - lo is not; or an int bound is past
        # the float range, where float() raised an untyped OverflowError
        for value_range in [(-1e308, 1e308), (0, 10**400), (-(2**1024), 0)]:
            with pytest.raises(BadRange):
                generate_matrix(0, (4, 5), value_range)


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

    def test_weights_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            WeightVector(np.array([[0.5], [0.5]]), "dwm")


class TestCriterionSpec:
    def test_direction_checked(self):
        with pytest.raises(ValueError):
            CriterionSpec("x", direction="sideways")

    def test_defaults(self):
        spec = CriterionSpec("Income")
        assert spec.direction == "benefit"
        assert not spec.likert_reverse
