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
from .matrix import DecisionMatrix, WeightVector, _readonly, _scaled_columns

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
        for name in ("mean", "std", "cv"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if (self.std < 0).any():
            raise ValueError("standard deviations must be nonnegative")
        if (self.cv < 0).any():
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
    means = scaled.mean(axis=0)
    stds = scaled.std(axis=0)

    degenerate = np.flatnonzero(np.abs(means) <= 1e-9)
    if degenerate.size:
        raise DegenerateMean(int(degenerate[0]))

    cvs = stds / np.abs(means)
    if (cvs <= _CONSTANT_EPS).all():
        raise AllColumnsConstant("every column is constant; no dispersion to weight")

    breakdown = DispersionBreakdown(means * scales, stds * scales, cvs)
    return WeightVector(cvs / cvs.sum(), "dwm"), breakdown
