"""File parsing, report emission, plot series, and round-trips."""

import json

import numpy as np
import pytest

from mcdm_weights import (
    ParseError,
    UnknownGrade,
    build_report,
    compare_weights,
    dwm_weights,
    emit_matrix,
    emit_plot_series,
    emit_report,
    entropy_weights,
    fixture_path,
    load_fixture,
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


class TestReports:
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

    def test_ranks_follow_each_blocks_own_weights(self, example2):
        entropy = entropy_weights(example2)
        dwm = dwm_weights(example2)
        expected = {
            "entropy": list(rank_desc(entropy[0].weights)),
            "dwm": list(rank_desc(dwm[0].weights)),
        }
        assert expected["entropy"] != expected["dwm"]
        # a comparison of the swapped pair, and one that never saw the dwm
        # weights, both leave each block with the ranks of its own weights
        for comparison in (
            compare_weights(dwm[0], entropy[0]),
            compare_weights(entropy[0], entropy[0]),
        ):
            report = build_report(
                example2.criterion_names,
                "sha256:0",
                entropy=entropy,
                dwm=dwm,
                comparison=comparison,
            )
            for block, ranks in expected.items():
                assert report[block]["ranks"] == ranks

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


class TestFixtures:
    def test_fixture_dir_override(self, tmp_path, monkeypatch):
        target = tmp_path / "example1.csv"
        target.write_text(fixture_path("example1.csv").read_text())
        monkeypatch.setenv("MCDM_FIXTURES", str(tmp_path))
        assert fixture_path("example1.csv") == target
        m = load_fixture("example1.csv")
        np.testing.assert_array_equal(m.values, np.array(golden.EXAMPLE1_VALUES))

    def test_digest_is_stable(self):
        assert sha256_digest("abc") == (
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
