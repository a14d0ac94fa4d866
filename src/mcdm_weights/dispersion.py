"""Dispersion-based weighting via the coefficient of variation.

Each criterion's weight is proportional to its column's CV (population
standard deviation over absolute mean). No normalization step exists on
this path, and negative data is legal as long as column means stay away
from zero.

The math is written once, in ``_dwm_columns``, over ``(..., A, C)`` stacks
of grids: ``dwm_weights`` runs it on one matrix and raises at the first
fault, and the agreement bench runs it once over all of its trials. Both
get the same bits per grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsConstant, DegenerateMean
from .matrix import DecisionMatrix, WeightVector, _first_fault, _freeze_fields

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


def _dwm_columns(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column statistics of a ``(..., A, C)`` stack of finite grids.

    Returns ``(scales, means, stds, cvs, zero, degenerate, constant)``:
    per-column largest |value|, and the mean, population std and CV of the
    column scaled by it; then the fault masks, a zero column and a
    degenerate mean per column, and every column constant per grid. A
    faulty grid's statistics are finite but meaningless.
    """
    # CV is unit-free, so it is taken on the columns scaled into [-1, 1];
    # there a mean of 1e-9 is small next to the column's own size. The
    # statistics are built in place, so a stack of trials costs one extra
    # grid of memory and a few per-column rows.
    scaled = np.abs(values)
    scales = np.maximum.reduce(scaled, -2)
    zero = scales == 0.0
    # a zero column is left undivided: its |values| are already all zeros
    np.divide(values, scales[..., None, :], out=scaled, where=~zero[..., None, :])

    # np.mean and np.std, bit for bit, without their Python wrappers
    n = values.shape[-2]
    means = np.add.reduce(scaled, -2)
    means /= n
    np.subtract(scaled, means[..., None, :], out=scaled)
    np.multiply(scaled, scaled, out=scaled)
    stds = np.add.reduce(scaled, -2)
    stds /= n
    np.sqrt(stds, out=stds)

    cvs = np.abs(means)
    degenerate = cvs <= 1e-9
    # raising a degenerate |mean| to the bound leaves every other one as is
    np.maximum(cvs, 1e-9, out=cvs)
    np.divide(stds, cvs, out=cvs)
    constant = np.logical_and.reduce(cvs <= _CONSTANT_EPS, -1)
    return scales, means, stds, cvs, zero, degenerate, constant


def dwm_weights(matrix: DecisionMatrix) -> tuple[WeightVector, DispersionBreakdown]:
    """Weights proportional to each column's coefficient of variation.

    Raises:
        DegenerateMean: a column's |mean| is at most 1e-9 times its largest
            |value|; the first zero column is named before any other.
        AllColumnsConstant: every column has zero dispersion.
    """
    scales, means, stds, cvs, zero, degenerate, constant = _dwm_columns(matrix.values)
    fault = _first_fault(zero) or _first_fault(degenerate)
    if fault:
        raise DegenerateMean(*fault)
    if constant:
        raise AllColumnsConstant("every column is constant; no dispersion to weight")

    breakdown = DispersionBreakdown(means * scales, stds * scales, cvs)
    return WeightVector(cvs / np.add.reduce(cvs, None), "dwm"), breakdown
