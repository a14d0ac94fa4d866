"""CLI behavior: commands, exit codes, stream separation, determinism."""

import json

import pytest

from mcdm_weights import fixture_path
from mcdm_weights.cli import main

import golden


@pytest.fixture
def negatives_csv(tmp_path):
    path = tmp_path / "negatives.csv"
    path.write_text(
        "alternative,a,b,c\nA1,-10,-1,-7\nA2,-20,-2,-3\nA3,-30,-4,-9\n",
        encoding="utf-8",
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeigh:
    def test_dwm_matches_published_table(self, capsys):
        code, out, err = run(
            capsys, "weigh", "--input", "example1.csv", "--method", "dwm"
        )
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert "entropy" not in doc
        for got, expected in zip(doc["dwm"]["weights"], golden.EXAMPLE1_DWM_W):
            assert got == pytest.approx(expected, abs=5e-4)
        for got, expected in zip(doc["dwm"]["mean"], golden.EXAMPLE1_DWM_MU):
            assert got == pytest.approx(expected, abs=1e-4)

    def test_entropy_csv_matches_published_table(self, capsys):
        code, out, err = run(
            capsys,
            "weigh", "--input", "example1.csv",
            "--method", "entropy", "--format", "csv",
        )
        assert code == 0
        lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert lines[0] == "criterion,entropy,divergence,weight_entropy,rank_entropy"
        weights = [float(line.split(",")[3]) for line in lines[1:]]
        for got, expected in zip(weights, golden.EXAMPLE1_ENTROPY_W):
            assert got == pytest.approx(expected, abs=5e-4)

    def test_negative_data_entropy_exits_3(self, capsys, negatives_csv):
        code, out, err = run(
            capsys, "weigh", "--input", negatives_csv, "--method", "entropy"
        )
        assert code == 3
        assert out == ""
        assert "NegativeEntry" in err
        assert len(err.strip().split("\n")) == 1

    def test_negative_data_dwm_exits_0(self, capsys, negatives_csv):
        code, out, err = run(
            capsys, "weigh", "--input", negatives_csv, "--method", "dwm"
        )
        assert code == 0
        doc = json.loads(out)
        total = sum(doc["dwm"]["weights"])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "weigh", "--input", "no-such-file.csv")
        assert code == 2
        assert out == ""
        assert err != ""

    def test_utf8_bom_is_accepted(self, capsys, tmp_path):
        text = fixture_path("example1.csv").read_text(encoding="utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        code, out, err = run(capsys, "weigh", "--input", str(marked))
        assert (code, err) == (0, "")
        _, expected, _ = run(capsys, "weigh", "--input", str(plain))
        # the digest covers the decoded text, so the mark leaves no trace
        assert out == expected

    def test_invalid_matrix_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "one-row.csv"
        bad.write_text("alternative,a,b\nA1,1,2\n", encoding="utf-8")
        code, out, err = run(capsys, "weigh", "--input", str(bad))
        assert code == 2
        assert "TooFewAlternatives" in err


class TestCompare:
    def test_example1_pearson_field(self, capsys):
        code, out, _ = run(capsys, "compare", "--input", "example1.csv")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["pearson"] == pytest.approx(0.997, abs=2e-3)
        assert doc["comparison"]["rank_agreements"] == 5
        assert doc["entropy"]["ranks"] == list(golden.EXAMPLE1_RANKS)
        assert doc["dwm"]["ranks"] == list(golden.EXAMPLE1_RANKS)

    def test_example2_pearson_field_is_recomputed_value(self, capsys):
        # full-precision recomputation, not the published statistic that
        # was taken over the comparison table as printed (see PROVENANCE.md)
        code, out, _ = run(capsys, "compare", "--input", "example2.csv")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["pearson"] == pytest.approx(
            golden.EXAMPLE2_PEARSON_ORACLE, abs=5e-7
        )

    def test_plot_series_written(self, capsys, tmp_path):
        plot = tmp_path / "fig1.csv"
        code, out, _ = run(
            capsys, "compare", "--input", "example1.csv", "--plot", str(plot)
        )
        assert code == 0
        lines = plot.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "criterion,weight_entropy,weight_dwm"
        assert len(lines) == 6
        # stdout still carries only the report
        json.loads(out)


class TestBench:
    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ("bench", "--trials", "40", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_parallel_equals_serial(self, capsys):
        base = ("bench", "--trials", "60", "--seed", "3")
        _, serial, _ = run(capsys, *base, "--workers", "1")
        _, parallel, _ = run(capsys, *base, "--workers", "4")
        assert serial == parallel

    def test_positive_range_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--trials", "50", "--seed", "1",
            "--lo", "1", "--hi", "100",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["compared_trials"] == 50
        assert -1.0 <= doc["pearson"]["min"] <= doc["pearson"]["median"]
        assert doc["pearson"]["median"] <= doc["pearson"]["max"] <= 1.0
        assert 0.0 <= doc["rank1_agreement_rate"] <= 1.0

    def test_negative_regime_counts_dwm_only(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--trials", "10", "--seed", "5",
            "--lo", "-50", "--hi", "-1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entropy_failures"] == 10
        assert doc["dwm_failures"] == 0
        assert doc["dwm_only_trials"] == 10
        assert doc["compared_trials"] == 0
        assert "pearson" not in doc
        assert "rank1_agreement_rate" not in doc

    def test_single_criterion_reports_no_correlation(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--trials", "5", "--seed", "1", "--cols", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["compared_trials"] == 5
        assert "pearson" not in doc
        assert doc["rank1_agreement_rate"] == 1.0

    def test_bad_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "bench", "--trials", "0")
        assert code == 2
        assert err != ""
        code, _, _ = run(capsys, "bench", "--lo", "5", "--hi", "5")
        assert code == 2
        code, _, _ = run(capsys, "bench", "--rows", "1")
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "bench", "--bogus")
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("weigh", "--input", "example1.csv"),
            ("weigh", "--input", "example1.csv", "--method", "entropy"),
            ("weigh", "--input", "example2.csv", "--format", "csv"),
            ("compare", "--input", "example1.csv"),
            ("compare", "--input", "example2.csv"),
            ("bench", "--trials", "25", "--seed", "11"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert first != ""

    def test_fixture_inputs_resolve_from_bundle(self, capsys):
        # --input falls back to the bundled fixture directory by name
        assert fixture_path("example1.csv").exists()
        code, out, _ = run(capsys, "weigh", "--input", "example1.csv")
        assert code == 0 and out != ""
