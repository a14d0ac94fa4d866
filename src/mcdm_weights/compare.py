"""Score aggregation, rank extraction, and method-to-method statistics.

Alternatives are scored by simple additive weighting over the normalized
matrix; weight vectors from the two methods are compared with Pearson's r,
Spearman's rho, and per-criterion rank agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import dwm_weights
from .entropy import entropy_weights
from .errors import ConstantVector, DimensionMismatch, LengthMismatch
from .matrix import DecisionMatrix, WeightVector


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side statistics for two weight vectors.

    Holds ranks and statistics only; the caller keeps the weight vectors.
    ``pearson`` and ``spearman`` are None when either weight vector is
    constant, which leaves the correlation undefined.
    """

    ranks_a: tuple[int, ...]
    ranks_b: tuple[int, ...]
    pearson: float | None
    spearman: float | None
    rank_agreements: int

    def __post_init__(self):
        for r in (self.pearson, self.spearman):
            if r is not None and abs(r) > 1.0 + 1e-12:
                raise ValueError(f"correlation {r!r} outside [-1, 1]")
        n = len(self.ranks_a)
        for ranks in (self.ranks_a, self.ranks_b):
            if sorted(ranks) != list(range(1, n + 1)):
                raise ValueError("ranks must be a permutation of 1..C")


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


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length vectors.

    Raises:
        LengthMismatch: lengths differ or are below 2.
        ConstantVector: either vector has zero variance.
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise LengthMismatch(f"got shapes {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise LengthMismatch("need at least 2 points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantVector("correlation of a constant vector is undefined")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def _fractional_ranks(values: np.ndarray) -> np.ndarray:
    # descending average ranks; tied values share the mean of their positions
    # (each NaN stays its own group, ranked last in index order)
    _, inverse, counts = np.unique(
        -values, return_inverse=True, return_counts=True, equal_nan=False
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float:
    """Rank correlation: Pearson's r over fractional (average) ranks."""
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise LengthMismatch(f"got shapes {xs.shape} and {ys.shape}")
    return pearson(_fractional_ranks(xs), _fractional_ranks(ys))


def compare_weights(a: WeightVector, b: WeightVector) -> ComparisonReport:
    """Correlations, rank vectors, and agreement count for two weightings."""
    if len(a) != len(b):
        raise DimensionMismatch(f"{len(a)} vs {len(b)} criteria")
    ranks_a = rank_desc(a.weights)
    ranks_b = rank_desc(b.weights)
    # a constant pair (or a single criterion) leaves correlation undefined;
    # report not-applicable rather than failing the whole comparison
    try:
        r = pearson(a.weights, b.weights)
    except (ConstantVector, LengthMismatch):
        r = None
    try:
        rho = spearman(a.weights, b.weights)
    except (ConstantVector, LengthMismatch):
        rho = None
    agreements = sum(ra == rb for ra, rb in zip(ranks_a, ranks_b))
    return ComparisonReport(
        ranks_a=ranks_a,
        ranks_b=ranks_b,
        pearson=r,
        spearman=rho,
        rank_agreements=agreements,
    )


def compare_methods(matrix: DecisionMatrix) -> ComparisonReport:
    """Run both weighting methods on one matrix and compare the results.

    Errors from either method propagate (e.g. NegativeEntry from the
    entropy path on negative data).
    """
    weights_entropy, _ = entropy_weights(matrix)
    weights_dwm, _ = dwm_weights(matrix)
    return compare_weights(weights_entropy, weights_dwm)
