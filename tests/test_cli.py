"""CLI behavior: commands, exit codes, stream separation, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mcdm_weights
from mcdm_weights import cli, fixture_path
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


def run_fresh(*argv):
    """Run the CLI in a new interpreter with the default warning filter.

    Under the suite's "error" warning filter a numpy overflow warning would
    end an in-process run before the code under test could fail on its own.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(mcdm_weights.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    script = "import sys; from mcdm_weights.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


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

    def test_near_uniform_file_is_weighed_by_entropy(self, capsys):
        # each column's divergence is below 1e-14, but its CV is far above
        # 1e-12; the exact weights are 0.25 and 0.75 (CV² law, CVs 1:√3)
        near_uniform = Path(__file__).parent / "goldens" / "near-uniform.csv"
        code, out, err = run(
            capsys, "weigh", "--input", str(near_uniform), "--method", "entropy"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["entropy"]["weights"] == [0.25, 0.75]

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

    @pytest.mark.parametrize("method", ["entropy", "dwm", "both"])
    def test_overflowing_values_never_print_non_finite_json(self, tmp_path, method):
        # a fresh interpreter keeps the default warning filter: under an
        # "error" filter numpy's overflow warning would end the run first
        path = tmp_path / "huge.csv"
        path.write_text("alternative,a,b\nA1,1e308,1\nA2,1.5e308,2\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(mcdm_weights.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        script = "import sys; from mcdm_weights.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", script, "weigh", "--input", str(path), "--method", method],
            capture_output=True, text=True, env=env, timeout=60,
        )
        if proc.returncode != 0:
            assert proc.stdout == ""
            return

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(proc.stdout, parse_constant=refuse)
        for block in ("entropy", "dwm"):
            for w in doc.get(block, {}).get("weights", ()):
                assert float("-inf") < w < float("inf")

    @pytest.mark.parametrize("method", ["entropy", "dwm", "both"])
    def test_values_near_the_float_limit_get_finite_weights(
        self, capsys, tmp_path, method
    ):
        # the same file with column a divided by 1e308 must weigh the same
        huge, small = tmp_path / "huge.csv", tmp_path / "small.csv"
        huge.write_text("alternative,a,b\nA1,1e308,1\nA2,1.5e308,2\n", encoding="utf-8")
        small.write_text("alternative,a,b\nA1,1,1\nA2,1.5,2\n", encoding="utf-8")
        proc = run_fresh("weigh", "--input", str(huge), "--method", method)
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = strict_json(proc.stdout)
        _, out, _ = run(capsys, "weigh", "--input", str(small), "--method", method)
        expected = json.loads(out)
        for block in ("entropy", "dwm"):
            if block in expected:
                assert doc[block]["weights"] == expected[block]["weights"]
        if "dwm" in expected:
            assert doc["dwm"]["mean"][0] == pytest.approx(1.25e308, rel=1e-12)

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

    @pytest.mark.parametrize(
        "flag, error",
        [(("--rows", "-1"), "BadDims"), (("--cols", "0"), "BadDims"),
         (("--lo", "5"), "BadRange")],
    )
    def test_bad_draw_flags_print_the_library_error(self, capsys, flag, error):
        code, out, err = run(capsys, "bench", "--trials", "2", "--hi", "5", *flag)
        assert (code, out) == (2, "")
        assert f"error: {error}: " in err

    @pytest.mark.parametrize("flag", [("--seed", "-1"), ("--workers", "0")])
    def test_negative_seed_or_no_workers_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "bench", "--trials", "2", *flag)
        assert (code, out) == (2, "")
        assert "InputError" in err

    def test_range_wider_than_floats_exits_2(self, capsys):
        code, out, err = run(
            capsys, "bench", "--trials", "2", "--lo=-1e308", "--hi=1e308"
        )
        assert (code, out) == (2, "")
        assert "BadRange" in err

    def test_negative_values_in_exponent_notation_parse(self, capsys):
        # argparse's own negative-number pattern has no exponent; the bench
        # parser replaces that private pattern, and this pins the fix
        code, out, err = run(
            capsys, "bench", "--trials", "2", "--lo", "-1e308", "--hi", "-1e307"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["range"] == [-1e308, -1e307]

    def test_values_near_the_float_limit_are_compared(self):
        proc = run_fresh("bench", "--trials", "3", "--lo", "1e307", "--hi", "1.7e308")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert strict_json(proc.stdout)["compared_trials"] == 3

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "bench", "--bogus")
        assert code == 2

    def test_output_does_not_depend_on_chunk_boundaries(self, capsys):
        base = ("bench", "--trials", "7", "--seed", "3")
        outs = {w: run(capsys, *base, "--workers", str(w)) for w in (1, 2, 3, 7, 9)}
        assert all(code == 0 for code, _, _ in outs.values())
        assert len({out for _, out, _ in outs.values()}) == 1

    def test_one_task_on_one_worker_for_any_worker_count(self, capsys, monkeypatch):
        asked, tasks = [], []

        class RecordingExecutor(cli.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tasks.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingExecutor)
        for workers in (1, 2, 8, 9):
            code, _, _ = run(
                capsys, "bench", "--trials", "7", "--seed", "3",
                "--workers", str(workers),
            )
            assert code == 0
            assert (asked, len(tasks)) == ([1], 1)
            asked.clear()
            tasks.clear()


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


def test_version_has_one_source(capsys):
    # pyproject.toml's [project] version, read by pattern: Python 3.10, the
    # oldest supported, has no tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(
        r'^\[project\]\n(?:[^\[\n].*\n|\n)*?version = "([^"]+)"$',
        pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    ).group(1)
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"{declared}\n"
    assert mcdm_weights.__version__ == declared
