"""File parsing, report emission, plot series, and round-trips."""

import csv
import json
import random

import numpy as np
import pytest

import mcdm_weights.io as matrix_io
from mcdm_weights import (
    DEFAULT_LIKERT_MAP,
    CriterionSpec,
    DimensionMismatch,
    LikertMap,
    McdmError,
    ParseError,
    UnknownGrade,
    WeightVector,
    build_report,
    compare_weights,
    dwm_weights,
    emit_matrix,
    emit_plot_series,
    emit_report,
    entropy_weights,
    parse_matrix,
    parse_report,
    rank_desc,
    sha256_digest,
    validate_matrix,
)

import golden


def both_methods_report(matrix, notes=()):
    entropy = entropy_weights(matrix)
    dwm = dwm_weights(matrix)
    comparison = compare_weights(entropy[0], dwm[0])
    return build_report(
        matrix.criterion_names,
        sha256_digest(emit_matrix(matrix)),
        entropy=entropy,
        dwm=dwm,
        comparison=comparison,
        notes=notes,
    )


#: One fault per input: (id, text, error class, line, column, message).
MALFORMED = [
    ("short-row", "alternative,a,b,c\nA1,1,2\nA2,1,2,3\n",
     ParseError, 2, 1, "line 2, column 1: row has 2 cells, expected 3"),
    ("long-row", "alternative,a,b\nA1,1,2,3\nA2,1,2\n",
     ParseError, 2, 1, "line 2, column 1: row has 3 cells, expected 2"),
    ("missing-label", "alternative,a\n ,1\nA2,2\n",
     ParseError, 2, 1, "line 2, column 1: missing alternative label"),
    ("empty-cell", "alternative,a,b\nA1,1,\nA2,3,4\n",
     ParseError, 2, 3, "line 2, column 3: empty cell"),
    ("blank-cell", "alternative,a,b\nA1,1,2\nA2, ,4\n",
     ParseError, 3, 2, "line 3, column 2: empty cell"),
    ("unknown-grade", "alternative,a,b\nA1,1,Low\nA2,2,Bananas\n",
     UnknownGrade, 3, 3, "unknown grade 'Bananas' at line 3, column 3"),
    ("unknown-grade-after-blank-lines", "\n\nalternative,a\n\nA1, Lowish \nA2,2\n",
     UnknownGrade, 5, 2, "unknown grade 'Lowish' at line 5, column 2"),
    ("unknown-grade-after-quoted-newline", '"alternative",a\n"A\n1",x\nA2,2\n',
     UnknownGrade, 3, 2, "unknown grade 'x' at line 3, column 2"),
    ("bad-first-header-cell", "name,a,b\nA1,1,2\nA2,3,4\n",
     ParseError, 1, 1,
     "line 1, column 1: first header cell must be blank or 'alternative'"),
    ("no-criterion-columns", "alternative\nA1\nA2\n",
     ParseError, 1, 2, "line 1, column 2: no criterion columns"),
    ("unknown-annotation", "alternative,a:sideways\nA1,1\nA2,2\n",
     ParseError, 1, 2, "line 1, column 2: unknown annotation 'sideways'"),
    ("empty-criterion-name", "alternative,a,:cost\nA1,1,2\nA2,3,4\n",
     ParseError, 1, 3, "line 1, column 3: empty criterion name"),
    ("empty-document", "", ParseError, 1, 1, "line 1, column 1: empty document"),
    ("blank-document", "\n , \n\n", ParseError, 1, 1, "line 1, column 1: empty document"),
    ("csv-error", "alternative,a\nA1,1\rA2,2\n",
     ParseError, 2, 1,
     "line 2, column 1: new-line character seen in unquoted field - "
     "do you need to open the file in universal-newline mode?"),
]


#: Cells of the fuzzed matrix files. A trap is a text on which a bulk read
#: and the row reader could part: float() takes "1_000" and "１２" where
#: np.loadtxt refuses them, loadtxt takes "5\x1c" without a strip(), and a
#: quote, "\r" or NUL means something to csv.reader alone.
FUZZ_NUMBERS = ("1", "2.5", " 7 ", "-0.0", "1e3", "0.30000000000000004", "+.5")
FUZZ_GRADES = ("Low", " high ", "MEDIUM", "Extremely  high", "relatively\tlow")
FUZZ_TRAPS = (
    "1_000", "１２", "5\x1c", "\x1c5", "7\x0c", "8\x85", "9\u2028", "0x10",
    "", " ", "Bananas", "nan", "inf", "1e400", '"3"', '"4,5"', "6\r", "\r", "\x00",
)
FUZZ_BLANK_LINES = ("", "   ", ",,", " , ", "\t,\x1c", "\x85")


def fuzzed_matrix_file(seed: int) -> str:
    """A small matrix file; about half are well formed and quote-free.

    A "mixed" column draws each cell as a number or a grade, so a grade can
    sit below a numeric first row, and a number below a grade.
    """
    rng = random.Random(seed)
    kinds = rng.choices(("number", "grade", "mixed"), (3, 1, 1), k=rng.randint(1, 4))
    annotations = ("", "", "", ":cost", ":reverse", ":cost:reverse")
    header = rng.choices(
        ("alternative", "", " Alternative ", "\ufeffalternative"), (16, 1, 1, 1)
    )
    header += [f"c{j}{rng.choice(annotations)}" for j in range(len(kinds))]
    if rng.random() < 0.03:
        header[-1] += ":sideways"
    rows = [header]
    for i in range(rng.choice((0, 1) + (2, 3, 4, 5) * 5)):
        row = rng.choices((f"A{i}", "", " ", f" A{i}\x1c"), (40, 1, 1, 1))
        for kind in kinds:
            if kind == "mixed":
                kind = rng.choice(("number", "grade"))
            pool = FUZZ_NUMBERS if kind == "number" else FUZZ_GRADES
            row.append(rng.choice(FUZZ_TRAPS if rng.random() < 0.02 else pool))
        if rng.random() < 0.02:
            row.pop()
        if rng.random() < 0.02:
            row.append("1")
        rows.append(row)
    if rng.random() < 0.04:
        row = rng.choice(rows)
        j = rng.randrange(len(row))
        row[j] = f'"{row[j]}"'
    lines = [",".join(row) for row in rows]
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(FUZZ_BLANK_LINES))
    end = "\r\n" if rng.random() < 0.03 else "\n"
    return end.join(lines) + rng.choice((end, ""))


#: Grades named "" and "1": a cell reading "1" is still the number 1 and an
#: empty cell is still a fault, as in the row reader.
NUMBER_LIKE_GRADES = LikertMap(
    (("", 1.0), ("1", 2.0), ("Low", 3.0), ("Relatively low", 4.0),
     ("Medium", 5.0), ("High", 6.0), ("Extremely high", 7.0))
)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except McdmError as exc:
        where = getattr(exc, "line", None), getattr(exc, "col", None)
        return type(exc), where, str(exc)


def _parse_row_by_row(text, likert_map):
    return validate_matrix(*matrix_io._parse_rows(text, likert_map))


def test_bulk_read_agrees_with_row_reader_on_fuzzed_files():
    bulk = 0
    for seed in range(3000):
        text = fuzzed_matrix_file(seed)
        likert_map = (DEFAULT_LIKERT_MAP, NUMBER_LIKE_GRADES)[seed % 2]
        expected = _outcome(_parse_row_by_row, text, likert_map)
        assert _outcome(parse_matrix, text, likert_map) == expected, (seed, text)
        bulk += matrix_io._parse_bulk(text, likert_map) is not None
    # both readers must see a fair share of the files, or one goes untested
    assert 900 < bulk < 2100, bulk


def test_quote_free_number_and_grade_file_is_read_in_bulk(monkeypatch):
    # the tall-csv benchmark's file shape: repr floats, one reverse grade column
    rng = np.random.default_rng(7)
    numbers = rng.uniform(1.0, 200.0, size=(50, 4))
    grades = rng.integers(0, len(DEFAULT_LIKERT_MAP.grades), 50)
    lines = ["alternative,x1,x2,x3,x4,grade:reverse"]
    for i, (row, g) in enumerate(zip(numbers.tolist(), grades)):
        grade = DEFAULT_LIKERT_MAP.grades[g][0]
        lines.append(f"a{i}," + ",".join(map(repr, row)) + f",{grade}")

    def read_row_by_row(text, likert_map):
        raise AssertionError("the file was read row by row")

    monkeypatch.setattr(matrix_io, "_parse_rows", read_row_by_row)
    m = parse_matrix("\n".join(lines) + "\n")
    # reverse coding on the 1..7 scale: 8 - (g + 1)
    np.testing.assert_array_equal(m.values, np.column_stack([numbers, 7.0 - grades]))
    assert m.alternatives == tuple(f"a{i}" for i in range(50))
    assert m.criteria[-1].likert_reverse


#: A scale whose grades are not ASCII.
ACCENTED_GRADES = LikertMap((("Très bas", 1.0), ("Moyen", 2.0), ("Élevé", 3.0)))


def tall_shaped_lines(rows: int = 30) -> list[str]:
    """A tall-csv-shaped file, as lines: padded labels, one of them not
    ASCII, repr floats and a last ``:reverse`` column of accented grades."""
    rng = np.random.default_rng(11)
    numbers = rng.uniform(1.0, 200.0, size=(rows, 3))
    grades = [g for g, _ in ACCENTED_GRADES.grades]
    lines = ["alternative,x1,x2,x3,note:reverse"]
    for i, row in enumerate(numbers.tolist()):
        label = "  Zürich  " if i == rows // 2 else f" a{i} "
        lines.append(f"{label}," + ",".join(map(repr, row)) + f",{grades[i % 3]}")
    return lines


def test_tall_file_with_blank_lines_is_read_in_bulk_as_the_row_reader_reads_it(
    monkeypatch,
):
    lines = tall_shaped_lines()
    # an empty, a whitespace-only and two comma-only lines, none at the top
    for at, blank in ((1, ""), (5, "   "), (9, ",,,,"), (20, " , ,\t, ,")):
        lines.insert(at, blank)
    text = "\n".join(lines) + "\n\n"
    expected = _parse_row_by_row(text, ACCENTED_GRADES)

    def read_row_by_row(text, likert_map):
        raise AssertionError("the file was read row by row")

    monkeypatch.setattr(matrix_io, "_parse_rows", read_row_by_row)
    m = parse_matrix(text, ACCENTED_GRADES)
    assert m == expected
    assert m.alternatives[0] == "a0"
    assert m.alternatives[15] == "Zürich"
    # reverse coding on the 1..3 scale: 4 - score
    np.testing.assert_array_equal(m.values[:3, -1], [3.0, 2.0, 1.0])


@pytest.mark.parametrize("extra", [1, -1], ids=["wider", "narrower"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_ragged_row_reports_the_row_readers_fault(extra, where):
    lines = tall_shaped_lines()
    row = {"first": 1, "middle": 15, "last": len(lines) - 1}[where]
    cells = lines[row].split(",")
    lines[row] = ",".join(cells + ["1.5"] if extra > 0 else cells[:-1])
    text = "\n".join(lines) + "\n"
    assert matrix_io._parse_bulk(text, ACCENTED_GRADES) is None
    with pytest.raises(ParseError) as info:
        parse_matrix(text, ACCENTED_GRADES)
    reason = f"row has {4 + extra} cells, expected 4"
    got = info.value.line, info.value.col, str(info.value)
    assert got == (row + 1, 1, f"line {row + 1}, column 1: {reason}")
    assert _outcome(_parse_row_by_row, text, ACCENTED_GRADES)[1:] == (got[:2], got[2])


@pytest.mark.parametrize(
    "text, error, line, col, message",
    [pytest.param(*case[1:], id=case[0]) for case in MALFORMED],
)
def test_malformed_input_reports_fault_position(text, error, line, col, message):
    with pytest.raises(error) as info:
        parse_matrix(text)
    assert type(info.value) is error
    assert (info.value.line, info.value.col, str(info.value)) == (line, col, message)


class TestParseMatrix:
    def test_example1_fixture(self, example1, example1_golden_matrix):
        assert example1 == example1_golden_matrix
        # the two reverse-coded columns carry their annotation
        assert example1.criteria[2].likert_reverse
        assert example1.criteria[4].likert_reverse

    def test_example2_fixture(self, example2):
        assert example2.alternatives == golden.EXAMPLE2_ALTERNATIVES
        assert example2.criterion_names == golden.EXAMPLE2_CRITERIA
        np.testing.assert_array_equal(
            example2.values, np.array(golden.EXAMPLE2_VALUES)
        )

    def test_short_row_rejected(self):
        text = "alternative,a,b,c,d,e\nA1,1,2,3,4\nA2,1,2,3,4,5\n"
        with pytest.raises(ParseError):
            parse_matrix(text)

    def test_unknown_grade_carries_position(self):
        text = "alternative,a,b\nA1,1,Low\nA2,2,Bananas\n"
        with pytest.raises(UnknownGrade) as info:
            parse_matrix(text)
        assert (info.value.line, info.value.col) == (3, 3)

    def test_first_fault_in_file_order_is_reported(self):
        # an unknown grade on line 2 comes before a short row on line 3
        text = "alternative,a,b\nA1,1,Bananas\nA2,1\n"
        with pytest.raises(UnknownGrade) as info:
            parse_matrix(text)
        assert (info.value.line, info.value.col) == (2, 3)

    def test_bad_header_annotation(self):
        with pytest.raises(ParseError):
            parse_matrix("alternative,a:sideways\nA1,1\nA2,2\n")

    def test_bad_header_first_cell(self):
        with pytest.raises(ParseError):
            parse_matrix("name,a,b\nA1,1,2\nA2,3,4\n")

    def test_empty_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("alternative,a,b\nA1,1,\nA2,3,4\n")

    def test_grades_match_case_and_whitespace_insensitively(self):
        text = (
            "alternative,a,b:reverse\n"
            "A1,1,  extremely   HIGH \n"
            "A2,2,relatively\tLOW\n"
            "A3,3,Medium\n"
        )
        m = parse_matrix(text)
        np.testing.assert_array_equal(m.values[:, 1], [1.0, 5.0, 4.0])

    def test_cost_annotation_recorded(self):
        m = parse_matrix("alternative,price:cost,quality\nA1,10,2\nA2,20,4\n")
        assert m.criteria[0].direction == "cost"
        assert m.criteria[1].direction == "benefit"

    def test_numeric_cells_ignore_reverse_flag(self):
        m = parse_matrix("alternative,a:reverse\nA1,6\nA2,2\n")
        np.testing.assert_array_equal(m.values[:, 0], [6.0, 2.0])

    def test_matrix_roundtrip(self, example2):
        assert parse_matrix(emit_matrix(example2)) == example2

    def test_roundtrip_keeps_annotations(self):
        m = parse_matrix("alternative,price:cost,work:reverse\nA1,10,2\nA2,20,4\n")
        again = parse_matrix(emit_matrix(m))
        assert again == m

    @pytest.mark.parametrize(
        "criteria, alternatives, message",
        [
            pytest.param(
                ("x:y", "b"), ("A1", "A2"),
                "cannot write criterion 0 name 'x:y': "
                "it holds ':', which starts an annotation",
                id="colon-in-name",
            ),
            pytest.param(
                ("a", " b "), ("A1", "A2"),
                "cannot write criterion 1 name ' b ': "
                "it has leading or trailing whitespace",
                id="padded-name",
            ),
            pytest.param(
                ("a", "b"), (" A1", "A2"),
                "cannot write alternative 0 label ' A1': "
                "it has leading or trailing whitespace",
                id="padded-label",
            ),
            pytest.param(
                ("a", "b"), ("A1", ""),
                "cannot write alternative 1 label '': it is empty",
                id="empty-label",
            ),
        ],
    )
    def test_emit_refuses_cell_that_would_not_read_back(
        self, criteria, alternatives, message
    ):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]], alternatives, criteria)
        with pytest.raises(ValueError) as info:
            emit_matrix(m)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "criteria, alternatives, start",
        [
            pytest.param(
                ("a", "b"), ("x" * 200_000, "A2"),
                "cannot write alternative 0 label 'xxxxxxxxxx",
                id="long-label",
            ),
            pytest.param(
                # the name alone fits; with its ":cost" suffix the cell does not
                (CriterionSpec("y" * (csv.field_size_limit() - 4), "cost"), "b"),
                ("A1", "A2"),
                "cannot write criterion 0 name 'yyyyyyyyyy",
                id="long-annotated-name",
            ),
        ],
    )
    def test_emit_refuses_cell_over_the_csv_field_limit(
        self, criteria, alternatives, start
    ):
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]], alternatives, criteria)
        with pytest.raises(ValueError) as info:
            emit_matrix(m)
        message = str(info.value)
        assert message.startswith(start)
        assert f"CSV field limit of {csv.field_size_limit()}" in message
        # the message names the text without repeating all of it
        assert len(message) < 200

    def test_cell_at_the_csv_field_limit_round_trips(self):
        label = "x" * csv.field_size_limit()
        m = validate_matrix([[1.0, 2.0], [3.0, 4.0]], (label, "A2"), ("a", "b"))
        assert parse_matrix(emit_matrix(m)) == m


class TestReports:
    @pytest.mark.parametrize("io_call", [emit_report, parse_report])
    def test_unknown_format_refused(self, example1, io_call):
        report = both_methods_report(example1)
        document = report if io_call is emit_report else emit_report(report)
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            io_call(document, "xml")

    def test_json_roundtrip(self, example1):
        report = both_methods_report(example1, notes=("fixture run",))
        assert parse_report(emit_report(report, "json"), "json") == report

    def test_csv_roundtrip(self, example1):
        report = both_methods_report(example1)
        assert parse_report(emit_report(report, "csv"), "csv") == report

    def test_weight_fields_match_published_tables(self, example1):
        report = both_methods_report(example1)
        np.testing.assert_allclose(
            report["entropy"]["weights"], golden.EXAMPLE1_ENTROPY_W, atol=1e-6
        )
        np.testing.assert_allclose(
            report["dwm"]["weights"], golden.EXAMPLE1_DWM_W, atol=1e-6
        )
        assert report["entropy"]["ranks"] == list(golden.EXAMPLE1_RANKS)
        assert report["dwm"]["ranks"] == list(golden.EXAMPLE1_RANKS)

    def test_ranks_follow_each_blocks_own_weights(self, example1, example2):
        entropy = entropy_weights(example2)
        dwm = dwm_weights(example2)
        expected = {
            "entropy": list(rank_desc(entropy[0].weights)),
            "dwm": list(rank_desc(dwm[0].weights)),
        }
        assert expected["entropy"] != expected["dwm"]
        report = build_report(
            example2.criterion_names,
            "sha256:0",
            entropy=entropy,
            dwm=dwm,
            comparison=compare_weights(entropy[0], dwm[0]),
        )
        for block, ranks in expected.items():
            assert report[block]["ranks"] == ranks
        # each would print statistics its blocks were not computed from: the
        # swapped pair, a comparison that never saw the dwm weights (example1's
        # two methods rank alike, so only its statistics differ), and one
        # beside a missing dwm block
        entropy1, dwm1 = entropy_weights(example1), dwm_weights(example1)
        for matrix, blocks, comparison in (
            (example2, {"entropy": entropy, "dwm": dwm},
             compare_weights(dwm[0], entropy[0])),
            (example2, {"entropy": entropy, "dwm": dwm},
             compare_weights(entropy[0], entropy[0])),
            (example1, {"entropy": entropy1, "dwm": dwm1},
             compare_weights(entropy1[0], entropy1[0])),
            (example2, {"entropy": entropy},
             compare_weights(entropy[0], dwm[0])),
        ):
            with pytest.raises(
                ValueError, match=r"^comparison is not compare_weights\(entropy, dwm\)$"
            ):
                build_report(
                    matrix.criterion_names,
                    "sha256:0",
                    comparison=comparison,
                    **blocks,
                )

    def test_comparison_of_another_criteria_count_rejected(self, example1):
        entropy = entropy_weights(example1)
        dwm = dwm_weights(example1)
        tail = entropy[0].weights[1:]
        shorter = WeightVector(tail / tail.sum(), "entropy")
        with pytest.raises(
            ValueError, match=r"^comparison is not compare_weights\(entropy, dwm\)$"
        ):
            build_report(
                example1.criterion_names,
                "sha256:0",
                entropy=entropy,
                dwm=dwm,
                comparison=compare_weights(shorter, shorter),
            )

    def test_method_block_of_another_criteria_count_rejected(self):
        # unchecked, the CSV table raised IndexError on a short block and
        # silently dropped the extra weights of a long one
        two = validate_matrix([[1.0, 2.0], [3.0, 5.0]])
        three = validate_matrix([[1.0, 2.0, 4.0], [3.0, 5.0, 1.0]])
        mixed = (entropy_weights(three)[0], entropy_weights(two)[1])
        cases = (
            (("a", "b", "c"), {"entropy": entropy_weights(two)}, "entropy weights", 2),
            (("a", "b"), {"dwm": dwm_weights(three)}, "dwm weights", 3),
            (("a", "b", "c"), {"entropy": mixed}, "entropy entropy", 2),
        )
        for criteria, blocks, field, n in cases:
            with pytest.raises(
                ValueError, match=f"^{field} has {n} values, not {len(criteria)}$"
            ):
                build_report(criteria, "sha256:0", **blocks)

    def test_single_method_omits_comparison(self, example1):
        report = build_report(
            example1.criterion_names,
            "sha256:0",
            entropy=entropy_weights(example1),
        )
        doc = json.loads(emit_report(report, "json"))
        assert "comparison" not in doc
        assert "dwm" not in doc
        assert "notes" not in doc
        csv_text = emit_report(report, "csv")
        assert "weight_dwm" not in csv_text
        assert "pearson" not in csv_text

    def test_not_applicable_correlation_roundtrips(self):
        m = validate_matrix([[1.0, 2.0], [3.0, 6.0]])
        report = both_methods_report(m)
        assert report["comparison"]["pearson"] is None
        for fmt in ("json", "csv"):
            assert parse_report(emit_report(report, fmt), fmt) == report

    def test_csv_roundtrip_keeps_hash_named_criterion(self):
        m = validate_matrix([[1.0, 4.0], [3.0, 2.0]], criteria=("# x", "y"))
        report = both_methods_report(m)
        assert parse_report(emit_report(report, "csv"), "csv") == report

    @pytest.mark.parametrize("text", ["# a=b", "", "# schema=x\n# note=y\n"])
    def test_csv_report_without_table_rejected(self, text):
        with pytest.raises(ValueError, match="^csv report has no table header$"):
            parse_report(text, "csv")

    def test_note_with_line_break_rejected(self, example1):
        for note in ("two\nlines", "carriage\rreturn"):
            with pytest.raises(ValueError):
                both_methods_report(example1, notes=(note,))
        # the input digest sits on its own "# input_digest=" line too; unchecked,
        # a CSV report read it back cut at the line break
        with pytest.raises(ValueError, match="input_digest .* contains a line break"):
            build_report(example1.criterion_names, "sha256:ab\ncd")

    def test_emission_is_deterministic(self, example2):
        report = both_methods_report(example2)
        for fmt in ("json", "csv"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_weights_printed_at_six_decimals(self, example1):
        report = both_methods_report(example1)
        csv_text = emit_report(report, "csv")
        assert "0.063250" in csv_text  # entropy weight of Income
        assert "0.124993" in csv_text  # dwm weight of Income


class TestPlotSeries:
    def test_example1_series(self, example1):
        we, _ = entropy_weights(example1)
        wd, _ = dwm_weights(example1)
        text = emit_plot_series(example1.criterion_names, we, wd)
        lines = text.strip().split("\n")
        assert lines[0] == "criterion,weight_entropy,weight_dwm"
        assert len(lines) == 6
        # both methods put their largest weight on Distance
        rows = [line.split(",") for line in lines[1:]]
        top_entropy = max(rows, key=lambda r: float(r[1]))[0]
        top_dwm = max(rows, key=lambda r: float(r[2]))[0]
        assert top_entropy == top_dwm == "Distance"

    def test_example2_series_has_21_rows(self, example2):
        we, _ = entropy_weights(example2)
        wd, _ = dwm_weights(example2)
        text = emit_plot_series(example2.criterion_names, we, wd)
        assert len(text.strip().split("\n")) == 22

    def test_identical_vectors_give_identical_columns(self, example1):
        we, _ = entropy_weights(example1)
        text = emit_plot_series(example1.criterion_names, we, we)
        for line in text.strip().split("\n")[1:]:
            _, a, b = line.rsplit(",", 2)
            assert a == b

    def test_lengths_that_differ_rejected(self, example1):
        we, _ = entropy_weights(example1)
        short = WeightVector(np.array([0.5, 0.5]), "dwm")
        names = example1.criterion_names
        for criteria, entropy, dwm, counts in (
            (names, we, short, (5, 5, 2)),
            (names, short, we, (5, 2, 5)),
            (names[:4], we, we, (4, 5, 5)),
        ):
            message = "{} criteria, {} entropy weights, {} dwm weights".format(*counts)
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                emit_plot_series(criteria, entropy, dwm)


class TestFixtures:
    def test_digest_is_stable(self):
        assert sha256_digest("abc") == (
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
