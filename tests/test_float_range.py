"""The whole-float-range contract, as one property per promise.

On any valid grid, each weigher returns finite weights that sum to 1, or
refuses with a ``MethodError``; every report over what it returns is
standard JSON and CSV that reads back equal; the CLI exits 0, 2 or 3,
never 4; and on nonnegative data the two methods agree on when a grid has
no dispersion at all. The grids mix column magnitudes from 1e-320 to
1e308, zero columns, mixed signs and near-constant columns.
"""

import json
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcdm_weights import (
    AllColumnsConstant,
    AllColumnsUniform,
    MethodError,
    build_report,
    compare_weights,
    dwm_weights,
    emit_matrix,
    emit_report,
    entropy_weights,
    parse_report,
    sha256_digest,
    validate_matrix,
)
from mcdm_weights.cli import main

from oracles import exact_columns

#: deterministic and bounded, so the suite stays reproducible and fast
FIXED = settings(derandomize=True, database=None, max_examples=250, deadline=None)


@st.composite
def float_range_grids(draw, signs=("positive",) * 2 + ("negative", "mixed"), zero=True):
    """2-8 × 1-6 grids; each column zero (one in five, if ``zero``),
    near-constant (relative spread 1e-17 to 1e-1) or spread over [0, 1],
    at a level from 1e-320 to 1e308, with its entries' signs drawn from
    ``signs``."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    grid = np.zeros((rows, cols))
    kinds = ["zero"] * zero + ["near-constant", "spread"] * 2
    for j in range(cols):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            continue
        u = draw(arrays(np.float64, rows, elements=st.floats(0.0, 1.0)))
        if kind == "near-constant":
            u = 1.0 + 10.0 ** draw(st.floats(-17.0, -1.0)) * (u - 0.5)
        sign = draw(st.sampled_from(signs))
        if sign == "negative":
            u = -u
        elif sign == "mixed":
            u *= draw(arrays(np.float64, rows, elements=st.sampled_from([-1.0, 1.0])))
        grid[:, j] = u * 10.0 ** draw(st.floats(-320.0, 308.0))
    return grid


def weigh(method, matrix):
    """The method's result, or None where it refuses; the weights must be
    finite and sum to 1."""
    try:
        result = method(matrix)
    except MethodError:
        return None
    weights = result[0].weights
    assert np.isfinite(weights).all()
    assert abs(weights.sum() - 1.0) <= 1e-12
    return result


@FIXED
@given(grid=float_range_grids())
def test_weights_and_reports_hold_over_the_float_range(grid):
    matrix = validate_matrix(grid)
    entropy, dwm = weigh(entropy_weights, matrix), weigh(dwm_weights, matrix)
    comparison = None
    if entropy and dwm:
        comparison = compare_weights(entropy[0], dwm[0])
    report = build_report(
        matrix.criterion_names,
        sha256_digest(emit_matrix(matrix)),
        entropy=entropy,
        dwm=dwm,
        comparison=comparison,
    )
    json.dumps(report, allow_nan=False)
    for fmt in ("json", "csv"):
        assert parse_report(emit_report(report, fmt), fmt) == report


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(grid=float_range_grids())
def test_cli_exits_0_2_or_3_over_the_float_range(grid):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        path.write_text(emit_matrix(validate_matrix(grid)), encoding="utf-8")
        for argv in (["weigh", "--format", "csv"], ["compare"]):
            assert main([*argv, "--input", str(path)]) in (0, 2, 3)


def largest_cv(grid):
    """The largest column CV, to a few digits, from the exact values."""
    cvs = []
    for column in exact_columns(grid.tolist()):
        mean = sum(column) / len(column)
        cvs.append((sum((x - mean) ** 2 for x in column) / len(column)).sqrt() / mean)
    return max(cvs)


@FIXED
@given(grid=float_range_grids(signs=("positive",), zero=False))
def test_entropy_refuses_no_dispersion_exactly_where_dwm_does(grid):
    # a zero column, which a tiny level can still leave, is refused first
    # by both, as ZeroColumn and DegenerateMean
    assume(np.count_nonzero(grid.max(axis=0)) == grid.shape[1])
    assume(not Decimal("5e-13") <= largest_cv(grid) <= Decimal("2e-12"))
    matrix = validate_matrix(grid)
    refusals = []
    for method in (entropy_weights, dwm_weights):
        try:
            method(matrix)
            refusals.append(None)
        except MethodError as exc:
            refusals.append(type(exc))
    assert (refusals[0] is AllColumnsUniform) == (refusals[1] is AllColumnsConstant)
