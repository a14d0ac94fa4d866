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
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .compare import _pearson_rows, compare_weights
from .dispersion import _dwm_columns, dwm_weights
from .entropy import entropy_weights
from .errors import InputError, MethodError
from .io import (
    _q6,
    build_report,
    emit_plot_series,
    emit_report,
    parse_matrix,
    resolve_input,
    sha256_digest,
)
from .matrix import _check_draw, generate_matrix
from .version import __version__

BENCH_SCHEMA = "mcdm-weights/bench/v1"


@dataclass(frozen=True)
class BenchSummary:
    """Aggregate of one seeded benchmark run.

    The fields are declared in the order :func:`emit_bench` writes them.
    Correlation statistics and the rank-1 agreement rate are None when no
    trial produced a comparable weight pair (e.g. the all-negative regime,
    where the entropy method fails every trial).
    """

    seed: int
    trials: int
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


# numpy's SeedSequence constants (O'Neill's seed_seq_fe, 32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _trial_seeds(seed: int, trials: int) -> np.ndarray:
    """``SeedSequence((seed, t)).generate_state(1)[0]`` for every trial t.

    numpy's hash, vectorized over t: the hash constants do not depend on
    the entropy, so every trial runs the same steps on its own words. Each
    32-bit word is held in a uint64 array, and every operand is uint64, so
    a product is exact before it is masked and numpy's promotion rules
    never come into play.
    """
    mask, shift = np.uint64(_MASK32), np.uint64(16)
    # the entropy words: the seed's, least significant first, then t's
    words = [
        np.full(trials, seed >> s & _MASK32, dtype=np.uint64)
        for s in range(0, max(seed.bit_length(), 1), 32)
    ]
    words.append(np.arange(trials, dtype=np.uint64))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint64(hash_const) & mask
        return value ^ value >> shift

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # uint64 wraps modulo 2**64, a multiple of 2**32, so the mask is exact
        result = np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y & mask
        return result ^ result >> shift

    pool_size = 4
    zeros = np.zeros(trials, dtype=np.uint64)
    pool = [hashmix(words[i] if i < len(words) else zeros) for i in range(pool_size)]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[pool_size:]:
        for dst in range(pool_size):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state's first word
    state = pool[0] ^ np.uint64(_INIT_B)
    state = state * np.uint64(_INIT_B * _MULT_B & _MASK32) & mask
    return state ^ state >> shift


def run_benchmark(
    trials: int,
    seed: int,
    dims: tuple[int, int],
    value_range: tuple[float, float],
    workers: int = 1,
) -> BenchSummary:
    """Monte Carlo method-agreement benchmark over seeded random matrices.

    Trial t weighs ``generate_matrix(SeedSequence((seed, t))
    .generate_state(1)[0], dims, value_range)`` by both methods, with the
    bits ``entropy_weights``, ``dwm_weights`` and ``pearson`` give that one
    matrix. The summary's fields are in the JSON's order, and it holds the
    values the JSON prints (``value_range`` as two floats), so two runs
    that print the same bytes compare equal.

    ``workers`` is accepted and changes nothing: the work holds the GIL, so
    a second thread would only take turns with the first. It runs as one
    task on a one-worker pool, the seam a caller can swap for a tracing or
    fake executor.

    Raises:
        InputError: ``trials`` or ``workers`` not an integer, ``trials``
            below 0, or ``workers`` below 1.
        InputError, BadDims, BadRange: on a seed, dims or range that
            :func:`generate_matrix` refuses.
    """
    for name, value, least in (("trials", trials, 0), ("workers", workers, 1)):
        if not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise InputError(f"{name} must be at least {least}, got {value}")
    _check_draw(seed, dims, value_range)
    # numpy numbers pass the checks; the seed hash and the JSON want int
    # and float, and a tuple keeps the summary hashable
    trials, seed, dims = int(trials), int(seed), (int(dims[0]), int(dims[1]))
    value_range = (float(value_range[0]), float(value_range[1]))

    def trial_stats():
        stack = np.empty((trials, *dims))
        entropy = np.empty((trials, dims[1]))
        entropy_ok = np.ones(trials, dtype=bool)
        for t, trial_seed in enumerate(_trial_seeds(seed, trials).tolist()):
            matrix = generate_matrix(trial_seed, dims, value_range)
            stack[t] = matrix.values
            # normalize_columns refuses a negative entry before any other
            # check, so entropy could only raise NegativeEntry here
            if np.count_nonzero(matrix.values < 0.0):
                entropy_ok[t] = False
                continue
            try:
                entropy[t] = entropy_weights(matrix)[0].weights
            except MethodError:
                entropy_ok[t] = False

        cvs, zero, degenerate, constant = _dwm_columns(stack)[2:]
        dwm_ok = ~(np.logical_or.reduce(zero | degenerate, -1) | constant)
        both = entropy_ok & dwm_ok
        we = entropy[both]
        wd = cvs[both]
        wd /= np.add.reduce(wd, -1, keepdims=True)

        # a constant pair has no r, and neither has a one-criterion pair,
        # whose rows are constant: such a trial is compared but adds no r
        r, constant = _pearson_rows(we, wd)
        pearsons = r[~constant].tolist()
        # first maximum on both sides: rank_desc breaks ties by lower index
        agreements = np.count_nonzero(np.argmax(we, -1) == np.argmax(wd, -1))
        return entropy_ok, dwm_ok, pearsons, int(agreements)

    with ThreadPoolExecutor(max_workers=1) as pool:
        entropy_ok, dwm_ok, pearsons, agreements = pool.submit(trial_stats).result()
    counts = [
        int(np.count_nonzero(mask))
        for mask in (entropy_ok & dwm_ok, ~entropy_ok, ~dwm_ok, dwm_ok & ~entropy_ok)
    ]
    stats = (min, max, lambda r: sum(r) / len(r), np.median)
    # positional, in field order
    return BenchSummary(
        seed,
        trials,
        dims,
        value_range,
        *counts,
        *(_q6(float(stat(pearsons))) if pearsons else None for stat in stats),
        _q6(agreements / counts[0]) if counts[0] else None,
    )


def emit_bench(summary: BenchSummary) -> str:
    """Benchmark summary as deterministic JSON, one key per field in order.

    ``value_range`` is written as ``"range"``, the ``pearson_*`` fields
    nest under ``"pearson"``, and a None field is left out.
    """
    doc: dict = {"schema": BENCH_SCHEMA}
    for field in fields(summary):
        value = getattr(summary, field.name)
        if value is None:
            continue
        if field.name.startswith("pearson_"):
            doc.setdefault("pearson", {})[field.name.removeprefix("pearson_")] = value
        else:
            doc["range" if field.name == "value_range" else field.name] = value
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
    # the library takes 0 trials; the command wants at least one
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
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
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and changes nothing: the trials hold the GIL, so "
        "they run on one thread",
    )
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
