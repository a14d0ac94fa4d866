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

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsConstant, DegenerateMean
from .matrix import _NO_SPREAD, DecisionMatrix, WeightVector, _first_fault
from .matrix import _freeze_fields, _pow2_scaled


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
        # a NaN passes both sign checks, and the JSON report refuses it untyped
        if np.count_nonzero(~np.isfinite(np.stack((self.mean, self.std, self.cv)))):
            raise ValueError("mean, std and cv must be finite")


def _dwm_columns(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column statistics of a ``(..., A, C)`` stack of finite grids.

    Returns ``(means, stds, cvs, zero, degenerate, constant)``: per column
    the mean and population std, in the input's units, and the CV; then
    the fault masks, a zero column and a degenerate mean per column, and
    every column constant per grid. A faulty grid's stats are finite, not meaningful.
    """
    # CV is unit-free, so it is taken on the columns scaled exactly, to a
    # largest |value| (the mantissa) in [0.5, 1). The statistics are built
    # in place: a stack of trials costs one extra grid and a few rows.
    scaled, mantissa, exponent = _pow2_scaled(values, -2)
    mantissa, exponent = mantissa[..., 0, :], exponent[..., 0, :]

    # np.mean without its Python wrapper, but exact where the sum can
    # cancel: where the mean is small next to the largest |value|
    n = values.shape[-2]
    means = np.add.reduce(scaled, -2)
    means /= n
    cancel = np.abs(means) < mantissa * 1e-2
    if np.count_nonzero(cancel):
        columns = np.moveaxis(scaled, -2, -1)[cancel]
        means[cancel] = [math.fsum(c) / n for c in columns]
    np.subtract(scaled, means[..., None, :], out=scaled)
    # corrected two-pass variance (Chan, Golub, LeVeque): the deviations' sum
    # takes out the mean's rounding, which gives a constant column a CV ~1e-16
    residuals = np.add.reduce(scaled, -2)
    np.multiply(scaled, scaled, out=scaled)
    stds = np.add.reduce(scaled, -2)
    stds -= residuals * residuals / n
    stds /= n
    np.maximum(stds, 0.0, out=stds)
    np.sqrt(stds, out=stds)

    cvs = np.abs(means)
    degenerate = cvs <= mantissa * 1e-9
    # no mantissa is below 0.5, so raising each |mean| to half the bound
    # raises only degenerate ones, and keeps a zero column off 0 / 0
    np.maximum(cvs, 0.5e-9, out=cvs)
    np.divide(stds, cvs, out=cvs)
    constant = np.logical_and.reduce(cvs <= _NO_SPREAD, -1)
    means, stds = np.ldexp(means, exponent), np.ldexp(stds, exponent)
    return means, stds, cvs, mantissa == 0.0, degenerate, constant


def dwm_weights(matrix: DecisionMatrix) -> tuple[WeightVector, DispersionBreakdown]:
    """Weights proportional to each column's coefficient of variation.

    Raises:
        DegenerateMean: a column's |mean| is at most 1e-9 times its largest
            |value|; the first zero column is named before any other.
        AllColumnsConstant: every column has zero dispersion.
    """
    means, stds, cvs, zero, degenerate, constant = _dwm_columns(matrix.values)
    fault = _first_fault(zero) or _first_fault(degenerate)
    if fault:
        raise DegenerateMean(*fault)
    if constant:
        raise AllColumnsConstant("every column is constant; no dispersion to weight")

    breakdown = DispersionBreakdown(means, stds, cvs)
    return WeightVector(cvs / np.add.reduce(cvs, None), "dwm"), breakdown
