"""Dispersion-based weighting via the coefficient of variation.

Each criterion's weight is proportional to its column's CV (population
standard deviation over absolute mean). No normalization step exists on
this path, and negative data is legal as long as column means stay away
from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsConstant, DegenerateMean
from .matrix import (
    DecisionMatrix,
    WeightVector,
    _first_fault,
    _freeze_fields,
    _scaled_columns,
)

# CVs at or below this are indistinguishable from a constant column
_CONSTANT_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class DispersionBreakdown:
    """Per-criterion mean, population standard deviation, and CV, each a
    read-only float64 copy of the values passed in."""

    mean: np.ndarray
    std: np.ndarray
    cv: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "mean", "std", "cv")
        if np.count_nonzero(self.std < 0.0):
            raise ValueError("standard deviations must be nonnegative")
        if np.count_nonzero(self.cv < 0.0):
            raise ValueError("coefficients of variation must be nonnegative")


def dwm_weights(matrix: DecisionMatrix) -> tuple[WeightVector, DispersionBreakdown]:
    """Weights proportional to each column's coefficient of variation.

    Raises:
        DegenerateMean: a column's |mean| is at most 1e-9 times its largest
            |value| (a zero column included).
        AllColumnsConstant: every column has zero dispersion.
    """
    # CV is unit-free, so it is taken on the columns scaled into [-1, 1];
    # there a mean of 1e-9 is small next to the column's own size
    scaled, scales = _scaled_columns(matrix.values, DegenerateMean)
    # np.mean and np.std, bit for bit, without their Python wrappers
    n = scaled.shape[0]
    means = np.add.reduce(scaled, 0) / n
    deviations = scaled - means
    stds = np.sqrt(np.add.reduce(deviations * deviations, 0) / n)

    magnitudes = np.abs(means)
    degenerate = _first_fault(magnitudes <= 1e-9)
    if degenerate:
        raise DegenerateMean(*degenerate)

    cvs = stds / magnitudes
    if np.count_nonzero(cvs <= _CONSTANT_EPS) == cvs.size:
        raise AllColumnsConstant("every column is constant; no dispersion to weight")

    breakdown = DispersionBreakdown(means * scales, stds * scales, cvs)
    return WeightVector(cvs / np.add.reduce(cvs, None), "dwm"), breakdown
