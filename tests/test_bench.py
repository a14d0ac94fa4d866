"""The agreement bench against a per-trial oracle built from public calls.

The oracle weighs each trial on its own, exactly as the bench's documented
v1 stream describes: trial t of seed s draws
``generate_matrix(SeedSequence((s, t)).generate_state(1)[0], dims, range)``
and runs both public weighers on it. Whatever the bench batches, its
output bytes must equal this oracle's.
"""

import json
import re
import statistics

import numpy as np
import pytest

from mcdm_weights import (
    BadDims,
    ConstantVector,
    DimensionMismatch,
    InputError,
    MethodError,
    dwm_weights,
    entropy_weights,
    generate_matrix,
    pearson,
    validate_matrix,
)
from mcdm_weights import cli
from mcdm_weights.cli import BENCH_SCHEMA, _trial_seeds, emit_bench, run_benchmark
from mcdm_weights.compare import _pearson_rows

RANGES = [
    (1.0, 100.0),
    (-5.0, 100.0),
    (-50.0, -1.0),
    (-1.0, 1.0),
    (1.0, 1.0 + 1e-12),
    (1e307, 1.7e308),
]
DIMS = [(4, 5), (2, 1), (3, 2), (6, 9), (2, 12)]


def oracle_bench(trials, seed, dims, value_range):
    """The bench's JSON text, one trial at a time."""
    entropy_failures = dwm_failures = dwm_only = compared = agreements = 0
    pearsons = []
    for t in range(trials):
        trial_seed = int(np.random.SeedSequence((seed, t)).generate_state(1)[0])
        matrix = generate_matrix(trial_seed, dims, value_range)
        weights = []
        for method in (entropy_weights, dwm_weights):
            try:
                weights.append(method(matrix)[0].weights)
            except MethodError:
                weights.append(None)
        we, wd = weights
        entropy_failures += we is None
        dwm_failures += wd is None
        dwm_only += we is None and wd is not None
        if we is None or wd is None:
            continue
        compared += 1
        try:
            pearsons.append(pearson(we, wd))
        except (ConstantVector, DimensionMismatch):
            pass
        agreements += int(np.argmax(we)) == int(np.argmax(wd))

    doc = {
        "schema": BENCH_SCHEMA,
        "seed": seed,
        "trials": trials,
        "dims": list(dims),
        "range": [float(v) for v in value_range],
        "compared_trials": compared,
        "entropy_failures": entropy_failures,
        "dwm_failures": dwm_failures,
        "dwm_only_trials": dwm_only,
    }
    if pearsons:
        doc["pearson"] = {
            "min": round(min(pearsons), 6),
            "max": round(max(pearsons), 6),
            "mean": round(sum(pearsons) / len(pearsons), 6),
            "median": round(statistics.median(pearsons), 6),
        }
    if compared:
        doc["rank1_agreement_rate"] = round(agreements / compared, 6)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("dims", DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
@pytest.mark.parametrize("value_range", RANGES, ids=lambda r: f"[{r[0]!r},{r[1]!r}]")
def test_bench_equals_the_per_trial_oracle(dims, value_range):
    for trials in (0, 1, 7, 257):
        got = emit_bench(run_benchmark(trials, 5, dims, value_range))
        assert got == oracle_bench(trials, 5, dims, value_range)


@pytest.mark.parametrize("dims", [(4, 5), (6, 9), (2, 12)], ids=lambda d: f"{d[0]}x{d[1]}")
def test_bench_compares_the_public_weights_bit_for_bit(monkeypatch, dims):
    # the summary rounds to 6 decimals; the weight pairs behind it must
    # carry the public weighers' bits, in trial order
    seen = []

    def recording_pearson_rows(x, y):
        seen.extend((a.tobytes(), b.tobytes()) for a, b in zip(x, y))
        return _pearson_rows(x, y)

    monkeypatch.setattr(cli, "_pearson_rows", recording_pearson_rows)
    run_benchmark(300, 3, dims, (-5.0, 100.0))
    want = []
    for t in range(300):
        trial_seed = int(np.random.SeedSequence((3, t)).generate_state(1)[0])
        matrix = generate_matrix(trial_seed, dims, (-5.0, 100.0))
        try:
            pair = entropy_weights(matrix)[0].weights, dwm_weights(matrix)[0].weights
        except MethodError:
            continue
        want.append(tuple(w.tobytes() for w in pair))
    assert len(want) > 20
    assert seen == want


def test_entropy_is_not_called_on_a_trial_with_a_negative_entry(monkeypatch):
    # normalize_columns refuses such a grid first, so the bench counts the
    # failure without the call; every other trial is still weighed
    seen = []

    def recording_entropy_weights(matrix):
        seen.append(matrix.values.tobytes())
        return entropy_weights(matrix)

    monkeypatch.setattr(cli, "entropy_weights", recording_entropy_weights)
    summary = run_benchmark(300, 3, (4, 5), (-5.0, 100.0))
    want = []
    for t in range(300):
        trial_seed = int(np.random.SeedSequence((3, t)).generate_state(1)[0])
        values = generate_matrix(trial_seed, (4, 5), (-5.0, 100.0)).values
        if values.min() >= 0.0:
            want.append(values.tobytes())
    assert 50 < len(want) < 250
    assert seen == want
    assert summary.entropy_failures == 300 - len(want)


def test_tied_top_weights_agree_on_the_first_maximum(monkeypatch):
    # two equal columns tie for the top weight under both methods; each side
    # takes the first of them, as rank_desc ranks a tie by the lower index
    grid = validate_matrix([[1.0, 1.0, 5.0], [9.0, 9.0, 6.0], [4.0, 4.0, 5.0]])
    monkeypatch.setattr(cli, "generate_matrix", lambda *args: grid)
    summary = run_benchmark(3, 0, (3, 3), (1.0, 10.0))
    assert (summary.compared_trials, summary.rank1_agreement_rate) == (3, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 3**70])
def test_trial_seeds_equal_numpy_seed_sequence(seed):
    # seeds of one, two and four 32-bit words; with t's word, 3**70 gives
    # five, one more than the hash's pool holds, so its last word takes the
    # hash's second loop
    want = [
        int(np.random.SeedSequence((seed, t)).generate_state(1)[0])
        for t in range(5000)
    ]
    got = _trial_seeds(seed, 5000)
    assert got.dtype == np.uint64
    assert got.tolist() == want


def test_no_trials_have_no_seeds():
    assert _trial_seeds(7, 0).shape == (0,)


@pytest.mark.parametrize("trials, seed, workers", [(5, -1, 1), (-1, 0, 1), (5, 0, 0)])
def test_bad_trials_seed_or_workers_raise_input_error(trials, seed, workers):
    with pytest.raises(InputError) as caught:
        run_benchmark(trials, seed, (4, 5), (1.0, 100.0), workers)
    # the CLI prints the class name, and its tests look for this one
    assert type(caught.value) is InputError


@pytest.mark.parametrize(
    "trials, seed, workers", [(5, 1.5, 1), (5.0, 0, 1), (5, 0, 1.0), (5, "1", 1)]
)
def test_non_integer_trials_seed_or_workers_raise_input_error(trials, seed, workers):
    with pytest.raises(InputError, match="must be an integer") as caught:
        run_benchmark(trials, seed, (4, 5), (1.0, 100.0), workers)
    assert type(caught.value) is InputError


@pytest.mark.parametrize(
    "dims", [(4.0, 5), (4, 5.5), (4, "5"), (4,), 5, (4, 5, 6), "45", None]
)
def test_non_integer_dims_raise_bad_dims(dims):
    with pytest.raises(BadDims, match="must be integers"):
        run_benchmark(3, 0, dims, (1.0, 100.0))
    with pytest.raises(BadDims, match="must be integers"):
        generate_matrix(0, dims, (1.0, 100.0))


@pytest.mark.parametrize(
    "seed, message",
    [
        (None, "seed must be an integer, got None"),
        (1.5, "seed must be an integer, got 1.5"),
        ("7", "seed must be an integer, got '7'"),
        (np.float64(2.0), f"seed must be an integer, got {np.float64(2.0)!r}"),
        (-1, "seed must be at least 0, got -1"),
        (np.int64(-3), "seed must be at least 0, got -3"),
    ],
    ids=["None", "float", "str", "np.float64", "negative", "negative-np.int64"],
)
def test_bad_seed_raises_the_same_input_error_from_both(seed, message):
    # unchecked, generate_matrix drew a None seed from OS entropy and left
    # the rest to numpy's ValueError or TypeError
    for draw in (
        lambda: run_benchmark(3, seed, (4, 5), (1.0, 100.0)),
        lambda: generate_matrix(seed, (4, 5), (1.0, 100.0)),
    ):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as caught:
            draw()
        assert type(caught.value) is InputError


def test_numpy_integer_arguments_run_as_python_ints():
    want = run_benchmark(40, 3, (4, 5), (-5.0, 100.0), 2)
    dims = (np.int64(4), np.int8(5))
    got = run_benchmark(np.int64(40), np.uint32(3), dims, (-5.0, 100.0), np.int16(2))
    assert got == want
    assert emit_bench(got) == emit_bench(want)
    # a list range is held as the floats the JSON prints
    got = run_benchmark(40, 3, (4, 5), [-5, np.float32(100)], 2)
    assert got == want
    assert hash(got) == hash(want)
    assert emit_bench(got) == emit_bench(want)


def test_bad_dims_are_refused_before_the_trials_start(monkeypatch):
    # the trials, their stacks included, are allocated and drawn on the pool
    pools = []
    monkeypatch.setattr(cli, "ThreadPoolExecutor", lambda *args, **kw: pools.append(1))
    with pytest.raises(BadDims):
        run_benchmark(3, 0, (-1, 5), (1.0, 100.0))
    assert pools == []
