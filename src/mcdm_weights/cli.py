"""Command-line front end: weigh, compare, and bench.

Exit codes: 0 success, 2 input or flag errors, 3 method errors (e.g.
negative data on the entropy path), 4 unexpected internal failure. The
report is the only thing written to standard output; diagnostics go to
standard error. Every command is deterministic for fixed inputs and flags,
the benchmark included, regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .compare import compare_weights, pearson
from .dispersion import dwm_weights
from .entropy import entropy_weights
from .errors import ConstantVector, InputError, LengthMismatch, MethodError
from .io import (
    build_report,
    emit_plot_series,
    emit_report,
    parse_matrix,
    resolve_input,
    sha256_digest,
)
from .matrix import generate_matrix
from .version import __version__

BENCH_SCHEMA = "mcdm-weights/bench/v1"


@dataclass(frozen=True)
class BenchSummary:
    """Aggregate of one seeded benchmark run.

    Correlation statistics and the rank-1 agreement rate are None when no
    trial produced a comparable weight pair (e.g. the all-negative regime,
    where the entropy method fails every trial).
    """

    trials: int
    seed: int
    dims: tuple[int, int]
    value_range: tuple[float, float]
    compared_trials: int
    entropy_failures: int
    dwm_failures: int
    dwm_only_trials: int
    pearson_min: float | None
    pearson_max: float | None
    pearson_mean: float | None
    pearson_median: float | None
    rank1_agreement_rate: float | None

    def __post_init__(self):
        rate = self.rank1_agreement_rate
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ValueError(f"agreement rate {rate!r} outside [0, 1]")
        stats = (self.pearson_min, self.pearson_median, self.pearson_max)
        if None not in stats and not stats[0] <= stats[1] <= stats[2]:
            raise ValueError("pearson summary must satisfy min <= median <= max")


def _run_trial(
    seed: int, trial: int, dims: tuple[int, int], value_range: tuple[float, float]
) -> tuple[bool, bool, float | None, bool | None]:
    """``(entropy_ok, dwm_ok, pearson, rank1_agree)``; the last two need both."""
    # distinct, order-independent stream per trial: parallel == serial
    trial_seed = int(np.random.SeedSequence((seed, trial)).generate_state(1)[0])
    matrix = generate_matrix(trial_seed, dims, value_range)

    weights = []
    for method in (entropy_weights, dwm_weights):
        try:
            weights.append(method(matrix)[0].weights)
        except MethodError:
            weights.append(None)
    we, wd = weights
    if we is None or wd is None:
        return we is not None, wd is not None, None, None

    try:
        r = pearson(we, wd)
    except (ConstantVector, LengthMismatch):
        r = None
    # argmax takes the first maximum: rank_desc's lower-index tie break
    return True, True, r, bool(np.argmax(we) == np.argmax(wd))


def run_benchmark(
    trials: int,
    seed: int,
    dims: tuple[int, int],
    value_range: tuple[float, float],
    workers: int = 1,
) -> BenchSummary:
    """Monte Carlo method-agreement benchmark over seeded random matrices.

    The trials run in contiguous chunks, one per worker thread, and are
    aggregated in trial-index order, so any worker count yields an
    identical summary.
    """
    # the pool needs one worker even when a library caller asks for 0 trials
    n_chunks = max(1, min(workers, trials))
    chunks = [
        range(trials * i // n_chunks, trials * (i + 1) // n_chunks)
        for i in range(n_chunks)
    ]
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        results = pool.map(
            lambda chunk: [_run_trial(seed, t, dims, value_range) for t in chunk],
            chunks,
        )
        outcomes = [outcome for chunk in results for outcome in chunk]

    compared = [(r, agree) for e_ok, d_ok, r, agree in outcomes if e_ok and d_ok]
    pearsons = [r for r, _ in compared if r is not None]
    agreements = sum(agree for _, agree in compared)

    def q6(value: float) -> float:
        return round(value, 6)

    return BenchSummary(
        trials=trials,
        seed=seed,
        dims=dims,
        value_range=value_range,
        compared_trials=len(compared),
        entropy_failures=sum(not e_ok for e_ok, _, _, _ in outcomes),
        dwm_failures=sum(not d_ok for _, d_ok, _, _ in outcomes),
        dwm_only_trials=sum(d_ok and not e_ok for e_ok, d_ok, _, _ in outcomes),
        pearson_min=q6(min(pearsons)) if pearsons else None,
        pearson_max=q6(max(pearsons)) if pearsons else None,
        pearson_mean=q6(sum(pearsons) / len(pearsons)) if pearsons else None,
        pearson_median=q6(statistics.median(pearsons)) if pearsons else None,
        rank1_agreement_rate=q6(agreements / len(compared)) if compared else None,
    )


def emit_bench(summary: BenchSummary) -> str:
    """Benchmark summary as deterministic JSON; empty stats are omitted."""
    doc: dict = {
        "schema": BENCH_SCHEMA,
        "seed": summary.seed,
        "trials": summary.trials,
        "dims": list(summary.dims),
        "range": [float(v) for v in summary.value_range],
        "compared_trials": summary.compared_trials,
        "entropy_failures": summary.entropy_failures,
        "dwm_failures": summary.dwm_failures,
        "dwm_only_trials": summary.dwm_only_trials,
    }
    if summary.pearson_min is not None:
        doc["pearson"] = {
            "min": summary.pearson_min,
            "max": summary.pearson_max,
            "mean": summary.pearson_mean,
            "median": summary.pearson_median,
        }
    if summary.rank1_agreement_rate is not None:
        doc["rank1_agreement_rate"] = summary.rank1_agreement_rate
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------- commands


def _load_matrix(path_flag: str):
    path = resolve_input(path_flag)
    text = path.read_text(encoding="utf-8-sig")
    return parse_matrix(text), sha256_digest(text)


def cmd_weigh(args: argparse.Namespace) -> int:
    matrix, digest = _load_matrix(args.input)
    entropy = entropy_weights(matrix) if args.method in ("entropy", "both") else None
    dwm = dwm_weights(matrix) if args.method in ("dwm", "both") else None
    report = build_report(matrix.criterion_names, digest, entropy=entropy, dwm=dwm)
    sys.stdout.write(emit_report(report, args.format))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    matrix, digest = _load_matrix(args.input)
    entropy = entropy_weights(matrix)
    dwm = dwm_weights(matrix)
    comparison = compare_weights(entropy[0], dwm[0])
    report = build_report(
        matrix.criterion_names, digest, entropy=entropy, dwm=dwm, comparison=comparison
    )
    if args.plot:
        series = emit_plot_series(matrix.criterion_names, entropy[0], dwm[0])
        with open(args.plot, "w", encoding="utf-8", newline="") as handle:
            handle.write(series)
    sys.stdout.write(emit_report(report, "json"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.rows < 2 or args.cols < 1:
        raise InputError("--rows must be >= 2 and --cols >= 1")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    if not args.lo < args.hi:
        raise InputError("--lo must be strictly below --hi")
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    summary = run_benchmark(
        trials=args.trials,
        seed=args.seed,
        dims=(args.rows, args.cols),
        value_range=(args.lo, args.hi),
        workers=args.workers,
    )
    sys.stdout.write(emit_bench(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdm-weights",
        description="Criterion weighting for decision matrices: Shannon "
        "entropy and dispersion (CV) methods, with comparison tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    weigh = commands.add_parser("weigh", help="weight criteria of one matrix")
    weigh.add_argument("--input", required=True, help="matrix csv path")
    weigh.add_argument(
        "--method", choices=("entropy", "dwm", "both"), default="both"
    )
    weigh.add_argument("--format", choices=("json", "csv"), default="json")
    weigh.set_defaults(func=cmd_weigh)

    compare = commands.add_parser(
        "compare", help="run both methods and compare their weights"
    )
    compare.add_argument("--input", required=True, help="matrix csv path")
    compare.add_argument("--plot", help="write grouped-bar plot series here")
    compare.set_defaults(func=cmd_compare)

    bench = commands.add_parser(
        "bench", help="seeded Monte Carlo method-agreement benchmark"
    )
    # argparse's own pattern has no exponent, so "--lo -1e308" would read
    # "-1e308" as an option flag
    bench._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
    )
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--rows", type=int, default=4)
    bench.add_argument("--cols", type=int, default=5)
    bench.add_argument("--lo", type=float, default=1.0)
    bench.add_argument("--hi", type=float, default=100.0)
    bench.add_argument("--workers", type=int, default=1)
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MethodError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
