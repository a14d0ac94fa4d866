"""Score aggregation, rank extraction, and method-to-method statistics.

Alternatives are scored by simple additive weighting over the normalized
matrix; weight vectors from the two methods are compared with Pearson's r,
Spearman's rho, and per-criterion rank agreement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dispersion import dwm_weights
from .entropy import entropy_weights
from .errors import ConstantVector, DimensionMismatch
from .matrix import DecisionMatrix, WeightVector, _pow2_scaled


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side statistics for two weight vectors.

    Holds ranks and statistics only; the caller keeps the weight vectors.
    ``pearson`` and ``spearman`` are None when either weight vector is
    constant (a single weight counts), leaving the correlation undefined.
    """

    ranks_a: tuple[int, ...]
    ranks_b: tuple[int, ...]
    pearson: float | None
    spearman: float | None
    rank_agreements: int

    def __post_init__(self):
        for r in (self.pearson, self.spearman):
            # written so that NaN falls outside too
            if r is not None and not abs(r) <= 1.0 + 1e-12:
                raise ValueError(f"correlation {r!r} outside [-1, 1]")
        n = len(self.ranks_a)
        for ranks in (self.ranks_a, self.ranks_b):
            if len(ranks) != n or not set(ranks).issuperset(range(1, n + 1)):
                raise ValueError("ranks must be a permutation of 1..C")
        agree = sum(map(operator.eq, self.ranks_a, self.ranks_b))
        if self.rank_agreements != agree:
            raise ValueError(f"rank_agreements {self.rank_agreements!r}, not {agree}")


def saw_scores(shares: np.ndarray, weights: WeightVector) -> np.ndarray:
    """Simple additive weighting: each alternative's weighted share sum,
    as a read-only float64 array.

    Raises:
        DimensionMismatch: ``shares`` is not 2-D or has the wrong width.
    """
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D share matrix, got {shares.ndim}-D")
    if len(weights) != shares.shape[1]:
        raise DimensionMismatch(
            f"{len(weights)} weights for {shares.shape[1]} criteria"
        )
    scores = shares @ weights.weights
    scores.flags.writeable = False
    return scores


def rank_desc(values) -> tuple[int, ...]:
    """Rank positions with 1 for the largest value; ties break toward the
    lower index so output is always a strict permutation."""
    v = np.asarray(values, dtype=np.float64)
    if not v.size:
        raise ValueError("cannot rank an empty vector")
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[np.argsort(-v, kind="stable")] = np.arange(1, v.size + 1)
    return tuple(ranks.tolist())


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson's r of each row pair of two ``(..., n)`` float64 stacks.

    Returns ``(r, constant)``: r per row, and the rows in which either
    vector has zero variance, whose r is NaN. A one-point row is constant.
    Each row is first scaled, exactly, by a power of two, so its sums do not
    over- or underflow at extreme magnitudes. Each row gets the bits that
    its 1-D vectors give alone: the mean is ``np.mean``'s sum over the row,
    and each sum of products is a ``(1, n) @ (n, 1)`` matmul, the dot
    product ``dx @ dy`` takes on 1-D vectors (``np.einsum`` rounds
    differently). Both take that order only over contiguous rows, so the
    stacks are made C-contiguous first.
    """
    x, y = (np.ascontiguousarray(_pow2_scaled(v, -1)[0]) for v in (x, y))
    n = x.shape[-1]
    dx = x - np.add.reduce(x, -1, keepdims=True) / n
    dy = y - np.add.reduce(y, -1, keepdims=True) / n

    def dot(a, b):
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]

    sxx, syy, sxy = dot(dx, dx), dot(dy, dy), dot(dx, dy)
    constant = (sxx == 0.0) | (syy == 0.0)
    r = np.full(constant.shape, np.nan)
    # sqrt is correctly rounded in numpy as in math, so the bits match
    np.divide(sxy, np.sqrt(sxx * syy), out=r, where=~constant)
    return r, constant


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    # two vectors as 1-D float64 arrays of one shape, else DimensionMismatch
    xs, ys = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DimensionMismatch(f"got shapes {xs.shape} and {ys.shape}")
    return xs, ys


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises:
        DimensionMismatch: lengths differ or are below 2.
        ConstantVector: either vector has zero variance.
    """
    xs, ys = _pair(x, y)
    if xs.size < 2:
        raise DimensionMismatch("need at least 2 points")
    r, constant = _pearson_rows(xs, ys)
    if constant:
        raise ConstantVector("correlation of a constant vector is undefined")
    return float(r)


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    # descending average ranks; tied values share the mean of their positions
    # (each NaN stays its own group, ranked last in index order)
    _, inverse, counts = np.unique(
        -values, return_inverse=True, return_counts=True, equal_nan=False
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Rank correlation: Pearson's r over fractional (average) ranks."""
    return pearson(*map(_fractional_ranks, _pair(x, y)))


def compare_weights(a: WeightVector, b: WeightVector) -> ComparisonReport:
    """Correlations, rank vectors, and agreement count for two weightings."""
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)} criteria")
    ranks_a = rank_desc(a.weights)
    ranks_b = rank_desc(b.weights)
    # row 0 gives r, row 1 rho (r over average ranks); a row with a constant
    # side, as every one-criterion row is, has no correlation: None, not an error
    rows, constant = _pearson_rows(
        np.stack([a.weights, _fractional_ranks(a.weights)]),
        np.stack([b.weights, _fractional_ranks(b.weights)]),
    )
    r, rho = (None if c else v for v, c in zip(rows.tolist(), constant.tolist()))
    agreements = sum(map(operator.eq, ranks_a, ranks_b))
    return ComparisonReport(ranks_a, ranks_b, r, rho, agreements)


def compare_methods(matrix: DecisionMatrix) -> ComparisonReport:
    """Run both weighting methods on one matrix and compare the results.

    Errors from either method propagate (e.g. NegativeEntry from the
    entropy path on negative data).
    """
    weights_entropy, _ = entropy_weights(matrix)
    weights_dwm, _ = dwm_weights(matrix)
    return compare_weights(weights_entropy, weights_dwm)
