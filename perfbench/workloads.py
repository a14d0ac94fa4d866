"""The benchmark's three workloads: seeded inputs, one operation, its check.

Each workload is a closed loop with one client: ``args(i)`` prepares
operation ``i`` (untimed), ``run(arg)`` is the timed operation through the
package's public API, and ``check(i, output)`` returns the problems found
in its output (untimed; empty means correct). Inputs are a pure function
of the seed, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import mcdm_weights as mw
from mcdm_weights import cli

import reference

GRADES = (
    "Extremely low", "Low", "Relatively low", "Medium",
    "Relatively high", "High", "Extremely high",
)
#: agreement-mc trial matrices: alternatives x criteria, value range, workers
MC_DIMS = (4, 5)
MC_RANGE = (-5.0, 100.0)
MC_WORKERS = 2
#: agreement-mc seeds never repeat in the timed pass, so every this-many-th
#: operation is run again (untimed) to check that its report bytes repeat
MC_RERUN_EVERY = 16


def _rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def _positive_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # every column gets its own offset and spread, so weights differ
    lo = rng.uniform(1.0, 50.0, cols)
    span = rng.uniform(1.0, 200.0, cols)
    return rng.uniform(lo, lo + span, size=(rows, cols))


class _SameBytes:
    """Byte-identity of outputs for the same input within one run."""

    def __init__(self):
        self._first: dict = {}

    def same_bytes(self, key, label: str, text: str) -> list[str]:
        first = self._first.setdefault((key, label), text)
        return [] if first == text else [f"{label} for input {key} changed bytes"]


def tall_csv_text(seed: int, k: int, rows: int, cols: int) -> tuple[str, np.ndarray]:
    """One matrix file: ``cols - 1`` numeric columns written with ``repr``
    and a last ``:reverse`` column of verbal grades. Returns the text and
    the numeric matrix it encodes (grades already reverse-scored)."""
    rng = _rng(seed, 1, k)
    numeric = _positive_columns(rng, rows, cols - 1)
    grade = rng.integers(0, len(GRADES), rows)
    names = [f"x{j + 1:02d}" for j in range(cols - 1)]
    lines = ["alternative," + ",".join(names) + ",grade:reverse"]
    for i, row in enumerate(numeric.tolist()):
        lines.append(f"a{i + 1}," + ",".join(map(repr, row)) + "," + GRADES[grade[i]])
    # reverse coding on the 1..7 scale: score' = 8 - score = 7 - index
    values = np.column_stack([numeric, 7.0 - grade])
    return "\n".join(lines) + "\n", values


class TallCsv(_SameBytes):
    name = "tall-csv"

    def __init__(self, seed: int, workdir: Path, rows=5000, cols=20, files=3):
        super().__init__()
        self.trace_cycle = files
        self.paths, self.digests, self.ref = [], [], []
        self.criteria = [f"x{j + 1:02d}" for j in range(cols - 1)] + ["grade"]
        size = 0
        for k in range(files):
            text, values = tall_csv_text(seed, k, rows, cols)
            data = text.encode("utf-8")
            path = workdir / f"tall-{k}.csv"
            path.write_bytes(data)
            size += len(data)
            self.paths.append(str(path))
            self.digests.append(reference.sha256_digest(data))
            self.ref.append((reference.entropy_weights(values), reference.cv_weights(values)))
        self.inputs = {
            "files": files, "shape": [rows, cols], "bytes": size,
            "grade_cell_share": 1 / cols,
        }

    def args(self, i: int) -> str:
        return self.paths[i % len(self.paths)]

    def run(self, path: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["compare", "--input", path])
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, output) -> list[str]:
        k = i % len(self.paths)
        code, out, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        doc = json.loads(out)
        problems = []
        if doc["input_digest"] != self.digests[k]:
            problems.append(f"input_digest {doc['input_digest']}")
        if doc["criteria"] != self.criteria:
            problems.append("criteria names differ")
        want_e, want_d = self.ref[k]
        tol = reference.REPORT_TOL
        problems += reference.weight_problems("entropy.weights", doc["entropy"]["weights"], want_e, tol)
        problems += reference.weight_problems("dwm.weights", doc["dwm"]["weights"], want_d, tol)
        return problems + self.same_bytes(k, "stdout", out)


def wide_matrix_values(seed: int, k: int, rows: int, cols: int) -> np.ndarray:
    return _positive_columns(_rng(seed, 2, k), rows, cols)


def _csv_report_weights(text: str) -> tuple[list[float], list[float]]:
    table = [line for line in text.splitlines() if line and not line.startswith("# ")]
    rows = list(csv.DictReader(table))
    return [float(r["weight_entropy"]) for r in rows], [float(r["weight_dwm"]) for r in rows]


class WideMatrix(_SameBytes):
    name = "wide-matrix"

    def __init__(self, seed: int, workdir: Path, rows=200, cols=5000, matrices=3):
        super().__init__()
        self.trace_cycle = matrices
        self.values, self.digests, self.ref = [], [], []
        for k in range(matrices):
            values = wide_matrix_values(seed, k, rows, cols)
            values.flags.writeable = False
            self.values.append(values)
            self.digests.append(reference.sha256_digest(values.tobytes()))
            self.ref.append((reference.entropy_weights(values), reference.cv_weights(values)))
        self.inputs = {
            "matrices": matrices, "shape": [rows, cols],
            "bytes": sum(v.nbytes for v in self.values),
        }

    def args(self, i: int):
        k = i % len(self.values)
        return self.values[k], self.digests[k]

    def run(self, arg):
        values, digest = arg
        matrix = mw.validate_matrix(values)
        entropy = mw.entropy_weights(matrix)
        dwm = mw.dwm_weights(matrix)
        comparison = mw.compare_weights(entropy[0], dwm[0])
        report = mw.build_report(
            matrix.criterion_names, digest, entropy=entropy, dwm=dwm, comparison=comparison
        )
        return entropy[0], dwm[0], mw.emit_report(report, "json"), mw.emit_report(report, "csv")

    def check(self, i: int, output) -> list[str]:
        k = i % len(self.values)
        weights_e, weights_d, text_json, text_csv = output
        want_e, want_d = self.ref[k]
        tol = reference.REPORT_TOL
        doc = json.loads(text_json)
        csv_e, csv_d = _csv_report_weights(text_csv)
        return (
            reference.exact_problems("entropy_weights", weights_e.weights, want_e)
            + reference.exact_problems("dwm_weights", weights_d.weights, want_d)
            + reference.weight_problems("json entropy.weights", doc["entropy"]["weights"], want_e, tol)
            + reference.weight_problems("json dwm.weights", doc["dwm"]["weights"], want_d, tol)
            + reference.weight_problems("csv weight_entropy", csv_e, want_e, tol)
            + reference.weight_problems("csv weight_dwm", csv_d, want_d, tol)
            + self.same_bytes(k, "json", text_json)
            + self.same_bytes(k, "csv", text_csv)
        )


class AgreementMc(_SameBytes):
    name = "agreement-mc"

    def __init__(self, seed: int, workdir: Path, trials=2000, cycle=4):
        super().__init__()
        self.seed = seed
        self.trace_cycle = cycle
        self.trials = trials
        self.inputs = {
            "trials": trials, "shape": list(MC_DIMS), "range": list(MC_RANGE),
            "workers": MC_WORKERS,
        }

    def args(self, i: int) -> int:
        # each operation gets its own seed, derived from the run seed
        return int(np.random.SeedSequence([self.seed, 3, i]).generate_state(1)[0])

    def run(self, op_seed: int):
        return cli.run_benchmark(self.trials, op_seed, MC_DIMS, MC_RANGE, workers=MC_WORKERS)

    def check(self, i: int, summary) -> list[str]:
        op_seed = self.args(i)
        want = reference.agreement_summary(op_seed, self.trials, MC_DIMS, MC_RANGE)
        problems = [
            f"{key} = {getattr(summary, key)}, reference {want[key]}"
            for key in ("compared_trials", "entropy_failures", "dwm_failures", "dwm_only_trials")
            if getattr(summary, key) != want[key]
        ]
        r = want["pearson"]
        stats = {
            "pearson_min": r.min(), "pearson_max": r.max(),
            "pearson_mean": r.mean(), "pearson_median": np.median(r),
            "rank1_agreement_rate": want["rank1_agreement_rate"],
        }
        for key, value in stats.items():
            if abs(getattr(summary, key) - value) > 1e-6:
                problems.append(f"{key} = {getattr(summary, key)}, reference {value}")
        problems += self.same_bytes(op_seed, "bench", cli.emit_bench(summary))
        if i % MC_RERUN_EVERY == 0:
            again = cli.emit_bench(self.run(op_seed))
            problems += self.same_bytes(op_seed, "bench", again)
        return problems


WORKLOADS = {w.name: w for w in (TallCsv, WideMatrix, AgreementMc)}
