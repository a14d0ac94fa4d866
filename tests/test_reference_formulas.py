"""Both weighers and Pearson's r against textbook numpy formulas, bit for bit.

The reference below spells each method out with ``np.mean``/``np.std``
over the max-scaled columns. Any rewrite of the package's arithmetic for
speed must return arrays equal to it, not merely close, and must refuse
the same grids with the same error.
"""

import math

import numpy as np
import pytest

from mcdm_weights import (
    AllColumnsConstant,
    AllColumnsUniform,
    DegenerateMean,
    MethodError,
    NegativeEntry,
    ZeroColumn,
    dwm_weights,
    entropy_weights,
    normalize_columns,
    pearson,
    validate_matrix,
)


def reference_entropy(values):
    """``(shares, weights, entropy, divergence, k)``."""
    negative = np.argwhere(values < 0)
    if negative.size:
        raise NegativeEntry(*(int(v) for v in negative[0]))
    scales = np.abs(values).max(axis=0)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    scaled = values / scales
    shares = scaled / scaled.sum(axis=0)
    k = 1.0 / np.log(values.shape[0])
    safe = np.where(shares > 0.0, shares, 1.0)
    entropy = -k * (safe * np.log(safe)).sum(axis=0)
    divergence = 1.0 - entropy
    if (divergence <= 1e-12).all():
        raise AllColumnsUniform("every column is uniform; no divergence to weight")
    usable = np.maximum(divergence, 0.0)
    return shares, usable / usable.sum(), entropy, divergence, float(k)


def reference_dwm(values):
    """``(weights, mean, std, cv)``."""
    scales = np.abs(values).max(axis=0)
    zero = np.flatnonzero(scales == 0.0)
    if zero.size:
        raise DegenerateMean(int(zero[0]))
    scaled = values / scales
    mean = np.mean(scaled, axis=0)
    std = np.std(scaled, axis=0)
    degenerate = np.flatnonzero(np.abs(mean) <= 1e-9)
    if degenerate.size:
        raise DegenerateMean(int(degenerate[0]))
    cv = std / np.abs(mean)
    if (cv <= 1e-12).all():
        raise AllColumnsConstant("every column is constant; no dispersion to weight")
    return cv / cv.sum(), mean * scales, std * scales, cv


def package_entropy(matrix):
    weights, breakdown = entropy_weights(matrix)
    return (
        normalize_columns(matrix),
        weights.weights,
        breakdown.entropy,
        breakdown.divergence,
        breakdown.k,
    )


def package_dwm(matrix):
    weights, breakdown = dwm_weights(matrix)
    return weights.weights, breakdown.mean, breakdown.std, breakdown.cv


def outcome(method, argument):
    """The method's arrays, or the class and message of its refusal."""
    try:
        return method(argument)
    except MethodError as exc:
        return type(exc), str(exc)


def grids():
    """3010 seeded grids: bench-sized, column-rescaled and tall."""
    rng = np.random.default_rng(20260501)
    for _ in range(2500):
        yield rng.uniform(-5.0, 100.0, size=(4, 5))
    for _ in range(500):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(1, 8))
        grid = rng.uniform(0.0, 1.0, size=(rows, cols)) ** rng.uniform(0.0, 4.0)
        grid *= 10.0 ** rng.integers(-300, 301, size=cols).astype(np.float64)
        if rng.random() < 0.3:
            grid[:, int(rng.integers(cols))] = grid[0, 0]
        if rng.random() < 0.2:
            grid = -grid
        yield grid
    for i in range(10):
        tall = rng.uniform(1.0, 100.0, size=(5000, 20))
        # half of them Fortran-ordered, as a transposed input leaves them
        yield np.asfortranarray(tall) if i % 2 else tall


@pytest.mark.parametrize(
    "method, reference",
    [(package_entropy, reference_entropy), (package_dwm, reference_dwm)],
    ids=["entropy", "dwm"],
)
def test_weights_and_breakdowns_equal_the_reference_formulas(method, reference):
    compared = 0
    for grid in grids():
        got = outcome(method, validate_matrix(grid))
        expected = outcome(reference, grid)
        if isinstance(expected[0], type):
            assert got == expected
            continue
        compared += 1
        assert not isinstance(got[0], type), got
        for field, want in zip(got, expected):
            assert np.array_equal(field, want)
    # enough grids reach the arithmetic for the equality to mean something
    assert compared >= 1000


def test_pearson_equals_the_reference_formula():
    rng = np.random.default_rng(20260502)
    for size in [2, 3, 5, 8, 9, 20, 5000] * 150:
        x, y = rng.uniform(-5.0, 100.0, size=(2, size)) * 10.0 ** rng.uniform(-9, 9)
        dx = x - np.mean(x)
        dy = y - np.mean(y)
        expected = float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))
        assert pearson(x, y) == expected
