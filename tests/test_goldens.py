"""Output bytes pinned against golden files.

Each golden file holds the exact bytes one command writes. A change to the
report or bench code must leave all of them untouched; a golden file is
rewritten only for an intended change of the output format, and the
change then says so.
"""

from pathlib import Path

import pytest

from mcdm_weights import (
    build_report,
    compare_weights,
    dwm_weights,
    emit_matrix,
    emit_report,
    entropy_weights,
    load_fixture,
    parse_report,
    sha256_digest,
)
from mcdm_weights.cli import main

GOLDENS = Path(__file__).parent / "goldens"

#: golden file name -> CLI arguments whose stdout it holds
COMMANDS = {
    f"weigh-{example}-{method}.{fmt}": (
        "weigh", "--input", f"{example}.csv", "--method", method, "--format", fmt,
    )
    for example in ("example1", "example2")
    for method in ("entropy", "dwm", "both")
    for fmt in ("json", "csv")
}
COMMANDS.update({
    "compare-example1.json": ("compare", "--input", "example1.csv"),
    "compare-example2.json": ("compare", "--input", "example2.csv"),
    "bench-t25-s11.json": ("bench", "--trials", "25", "--seed", "11"),
    "bench-t50-s4.json": ("bench", "--trials", "50", "--seed", "4"),
    "bench-t30-s2-negative.json": (
        "bench", "--trials", "30", "--seed", "2", "--lo", "-50", "--hi", "-1",
    ),
    "bench-t80-s12-w8.json": (
        "bench", "--trials", "80", "--seed", "12", "--workers", "8",
    ),
    # agreement-mc's shape and range, at a size where batching shows
    "bench-t2000-s7-mc.json": (
        "bench", "--trials", "2000", "--seed", "7", "--lo", "-5", "--hi", "100",
    ),
    # columns whose divergence 1 - E is below 1e-14: the q form weighs them
    "weigh-near-uniform-entropy.json": (
        "weigh", "--input", str(GOLDENS / "near-uniform.csv"), "--method", "entropy",
    ),
})

NOTES = ("fixture run", "second note: commas, quotes \" and = signs")


def golden(name: str) -> bytes:
    return (GOLDENS / name).read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(capsys, name):
    assert main(list(COMMANDS[name])) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden(name)


@pytest.mark.parametrize("example", ("example1", "example2"))
def test_plot_series_matches_golden(capsys, tmp_path, example):
    plot = tmp_path / "plot.csv"
    assert main(["compare", "--input", f"{example}.csv", "--plot", str(plot)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden(f"compare-{example}.json")
    assert plot.read_bytes() == golden(f"plot-{example}.csv")


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_report_with_notes_matches_golden(fmt):
    matrix = load_fixture("example1.csv")
    entropy = entropy_weights(matrix)
    dwm = dwm_weights(matrix)
    report = build_report(
        matrix.criterion_names,
        sha256_digest(emit_matrix(matrix)),
        entropy=entropy,
        dwm=dwm,
        comparison=compare_weights(entropy[0], dwm[0]),
        notes=NOTES,
    )
    assert emit_report(report, fmt).encode("utf-8") == golden(f"notes-example1.{fmt}")


def test_noted_csv_report_parses_like_its_json():
    parsed = parse_report(golden("notes-example1.csv").decode("utf-8"), "csv")
    assert parsed["notes"] == list(NOTES)
    assert parsed == parse_report(golden("notes-example1.json").decode("utf-8"))
