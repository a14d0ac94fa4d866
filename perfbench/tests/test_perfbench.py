"""Tests for the benchmark itself: inputs, checker, trace arithmetic."""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import mcdm_weights
import run
import spans
import workloads
from mcdm_weights import cli
from spans import Tracer, self_times

SMALL = {
    "tall-csv": {"rows": 60, "cols": 6, "files": 2},
    "wide-matrix": {"rows": 12, "cols": 40, "matrices": 2},
    "agreement-mc": {"trials": 60, "cycle": 2},
}
COUNT_SUFFIXES = (".calls", ".bytes", ".method_errors", ".compared_ratio")


def small(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir, **SMALL[name])


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    assert workloads.tall_csv_text(7, 0, 50, 5)[0] == workloads.tall_csv_text(7, 0, 50, 5)[0]
    assert workloads.tall_csv_text(7, 0, 50, 5)[0] != workloads.tall_csv_text(8, 0, 50, 5)[0]
    a = workloads.wide_matrix_values(7, 1, 10, 30)
    assert a.tobytes() == workloads.wide_matrix_values(7, 1, 10, 30).tobytes()
    mc_a, mc_b = small("agreement-mc", 7, tmp_path), small("agreement-mc", 7, tmp_path)
    assert [mc_a.args(i) for i in range(5)] == [mc_b.args(i) for i in range(5)]
    assert len({mc_a.args(i) for i in range(5)}) == 5
    tall_a, tall_b = small("tall-csv", 7, tmp_path / "a"), small("tall-csv", 7, tmp_path / "b")
    for pa, pb in zip(tall_a.paths, tall_b.paths):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_unperturbed_outputs_pass_the_check(name, tmp_path):
    workload = small(name, 3, tmp_path)
    for i in range(3):
        assert workload.check(i, workload.run(workload.args(i))) == []


def test_checker_flags_perturbed_report_weight(tmp_path):
    workload = small("tall-csv", 3, tmp_path)
    code, out, err = workload.run(workload.args(0))
    doc = json.loads(out)
    doc["dwm"]["weights"][2] = round(doc["dwm"]["weights"][2] + 1e-5, 6)
    problems = workload.check(0, (code, json.dumps(doc, indent=2) + "\n", err))
    assert any("dwm.weights[2]" in p for p in problems)


def test_checker_flags_perturbed_full_precision_weight(tmp_path):
    workload = small("wide-matrix", 3, tmp_path)
    weights_e, weights_d, text_json, text_csv = workload.run(workload.args(0))
    bumped = list(weights_e.weights)
    bumped[5] *= 1 + 1e-6
    fake = SimpleNamespace(weights=tuple(bumped))  # WeightVector would refuse the sum
    problems = workload.check(0, (fake, weights_d, text_json, text_csv))
    assert any("entropy_weights[5]" in p for p in problems)


def test_checker_flags_wrong_agreement_counts(tmp_path):
    workload = small("agreement-mc", 3, tmp_path)
    summary = workload.run(workload.args(0))
    wrong = dataclasses.replace(summary, compared_trials=summary.compared_trials + 1)
    assert any("compared_trials" in p for p in workload.check(0, wrong))


def test_checker_flags_changed_bytes_for_the_same_input(tmp_path):
    workload = small("tall-csv", 3, tmp_path)
    code, out, err = workload.run(workload.args(0))
    assert workload.check(0, (code, out, err)) == []
    assert workload.check(2, (code, out + " ", err)) == ["stdout for input 0 changed bytes"]


def test_agreement_rerun_flags_changed_bytes_for_a_fresh_seed(tmp_path):
    workload = small("agreement-mc", 3, tmp_path)
    i = workloads.MC_RERUN_EVERY  # a seed no earlier operation used
    summary = workload.run(workload.args(i))
    drifted = dataclasses.replace(summary, pearson_mean=summary.pearson_mean + 1e-3)
    workload.run = lambda op_seed: drifted  # the untimed re-run now disagrees
    assert workload.check(i, summary) == [f"bench for input {workload.args(i)} changed bytes"]


def test_self_time_on_a_hand_built_nested_trace():
    def span(name, parent, start, end):
        return [name, 1, parent, start, end, 0, None]

    root = span("root", None, 0.0, 10.0)
    a = span("a", root, 1.0, 4.0)
    b = span("b", root, 3.0, 6.0)  # overlaps a, as a sibling on another thread
    leaf = span("leaf", a, 2.0, 3.0)
    late = span("late", root, 9.0, 12.0)  # runs past its parent's end
    assert self_times([root, a, b, leaf, late]) == pytest.approx(
        [10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0]
    )
    metrics = spans.layer_metrics(
        [span("io.parse_matrix", None, 0.0, 0.5), span("io.parse_matrix", None, 1.0, 1.25)],
        [0],
    )
    assert metrics["io.parse_matrix.self_ms"] == (750.0, "ms/op")
    assert metrics["io.parse_matrix.calls"] == (2.0, "calls/op")


def traced_counts(name, seed, tmp_path):
    tally = run.Tally()
    metrics = run.traced_pass(small(name, seed, tmp_path), 0.0, tally)
    assert tally.failed == 0, tally.problems
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_across_traced_runs(name, tmp_path):
    first = traced_counts(name, 11, tmp_path / "1")
    second = traced_counts(name, 11, tmp_path / "2")
    assert first == second
    assert sum(v for v, _ in first.values()) > 0


def test_worker_thread_spans_attach_to_run_benchmark(tmp_path):
    original = cli.run_benchmark, cli.ThreadPoolExecutor, mcdm_weights.validate_matrix
    workload = small("agreement-mc", 5, tmp_path)
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed():
        workload.run(workload.args(0))
    assert (cli.run_benchmark, cli.ThreadPoolExecutor, mcdm_weights.validate_matrix) == original

    roots = [s for s in tracer.spans if s[spans.PARENT] is None]
    assert [s[spans.NAME] for s in roots] == ["cli.run_benchmark"]
    threads = {s[spans.THREAD] for s in tracer.spans if s is not roots[0]}
    assert threads and roots[0][spans.THREAD] not in threads
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[spans.NAME], set()).add(
            None if s[spans.PARENT] is None else s[spans.PARENT][spans.NAME])
    assert by_name["matrix.generate_matrix"] == {"cli.run_benchmark"}
    assert by_name["matrix.validate_matrix"] == {"matrix.generate_matrix"}
    assert by_name["entropy.normalize_columns"] == {"entropy.entropy_weights"}
    assert by_name["cli.run_benchmark"] == {None}
