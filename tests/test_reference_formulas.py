"""Both weighers and Pearson's r against textbook numpy formulas, bit for bit.

The reference below spells each method out over columns scaled exactly,
by a power of two, to a largest |value| in [0.5, 1): entropy's divergence
in the ``q = (x - mean) / mean`` form, with its series where |q| < 1e-2,
and DWM's ``np.mean``, with an exact sum where the mean is below 1e-2 of
the largest |value|, and the corrected two-pass variance. Any rewrite of
the package's arithmetic for speed must return arrays equal to it, not
merely close, and must refuse the same grids with the same error.
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

#: f(q) = (1 + q) log1p(q) - q as its series through q**9: the sum of
#: these coefficients times q**2, q**3, ..., q**9
SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(2, 10)])


def pow2_scaled(values):
    """``(scaled, mantissa, exponent)`` of each column."""
    mantissa, exponent = np.frexp(np.abs(values).max(axis=0))
    return np.ldexp(values, -exponent), mantissa, exponent


def reference_entropy(values):
    """``(shares, weights, entropy, divergence, k)``."""
    negative = np.argwhere(values < 0)
    if negative.size:
        raise NegativeEntry(*(int(v) for v in negative[0]))
    scaled, mantissa, _ = pow2_scaled(values)
    zero = np.flatnonzero(mantissa == 0.0)
    if zero.size:
        raise ZeroColumn(int(zero[0]))
    shares = scaled / scaled.sum(axis=0)
    n = values.shape[0]
    mean = scaled.sum(axis=0) / n
    q = (scaled - mean) / mean
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(q > -1.0, (1.0 + q) * np.log1p(q) - q, 1.0)
    small = np.abs(q) < 1e-2
    powers = np.cumprod(np.repeat(q[small, None], SERIES.size, -1), -1)
    f[small] = (powers * SERIES).sum(-1) * q[small]
    divergence = f.sum(axis=0) / (n * math.log(n))
    # 2 d ln A is the squared CV
    if (divergence * (2.0 * math.log(n)) <= 1e-12**2).all():
        raise AllColumnsUniform("every column is uniform; no divergence to weight")
    entropy = 1.0 - divergence
    return shares, divergence / divergence.sum(), entropy, divergence, 1 / math.log(n)


def reference_dwm(values):
    """``(weights, mean, std, cv)``."""
    scaled, mantissa, exponent = pow2_scaled(values)
    zero = np.flatnonzero(mantissa == 0.0)
    if zero.size:
        raise DegenerateMean(int(zero[0]))
    n = values.shape[0]
    mean = np.mean(scaled, axis=0)
    for j in np.flatnonzero(np.abs(mean) < 1e-2 * mantissa):
        mean[j] = math.fsum(scaled[:, j]) / n
    deviations = scaled - mean
    squares = (deviations**2).sum(axis=0) - deviations.sum(axis=0) ** 2 / n
    std = np.sqrt(np.maximum(squares / n, 0.0))
    degenerate = np.flatnonzero(np.abs(mean) <= 1e-9 * mantissa)
    if degenerate.size:
        raise DegenerateMean(int(degenerate[0]))
    cv = std / np.abs(mean)
    if (cv <= 1e-12).all():
        raise AllColumnsConstant("every column is constant; no dispersion to weight")
    return cv / cv.sum(), np.ldexp(mean, exponent), np.ldexp(std, exponent), cv


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
        # half of them Fortran-ordered, as a transposed input leaves them;
        # a DecisionMatrix stores every grid C-ordered
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
        expected = outcome(reference, np.ascontiguousarray(grid))
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
