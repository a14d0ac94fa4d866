"""Shannon entropy weighting.

Each criterion's entropy E over its column's shares is scaled into [0, 1]
by 1/ln(alternative count), and the weights are proportional to the
degree of divergence d = 1 - E: a uniform column carries no weight. d is
summed in a form that does not cancel near uniform: with ``q = x / m - 1``
about the column mean m, ``d = sum f(q) / (A ln A)``, each
``f(q) = (1 + q) log1p(q) - q`` at least 0, and then ``E = 1 - d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsUniform, NegativeEntry, ZeroColumn
from .matrix import _NO_SPREAD, DecisionMatrix, WeightVector, _first_fault
from .matrix import _freeze_fields, _pow2_scaled

# f(q) = sum over k >= 2 of (-q)**k / (k (k - 1)); through q**9, which errs
# by under 2e-18 of f where |q| < 1e-2, it is q times these dot (q, ..., q**8)
_SERIES = np.array([(-1.0) ** k / (k * (k - 1)) for k in range(2, 10)])


@dataclass(frozen=True, eq=False)
class EntropyBreakdown:
    """Per-criterion entropy and divergence plus the scaling constant k.

    ``entropy`` and ``divergence`` are read-only float64 copies of the
    values passed in.
    """

    entropy: np.ndarray
    divergence: np.ndarray
    k: float

    def __post_init__(self):
        _freeze_fields(self, "entropy", "divergence")
        e = self.entropy
        in_range = (-1e-12 <= e) & (e <= 1.0 + 1e-12)
        if np.count_nonzero(in_range) < e.size:
            raise ValueError(f"entropy {float(e[~in_range][0])!r} outside [0, 1]")
        if np.count_nonzero(e != 1.0 - self.divergence):
            raise ValueError("divergence must equal 1 - entropy")


def normalize_columns(matrix: DecisionMatrix) -> np.ndarray:
    """Divide every entry by its column total; a read-only float64 array.

    The entropy path rejects negative data outright rather than shifting it:
    ln fails on negatives and silently repairing that would misrepresent the
    method.

    Raises:
        NegativeEntry: any entry < 0.
        ZeroColumn: a column of all zeros.
    """
    values = matrix.values
    neg = _first_fault(values < 0.0)
    if neg:
        raise NegativeEntry(*neg)
    # shares do not depend on a column's unit, so each column is first
    # scaled exactly into [0, 1), where its sum cannot overflow; the ufunc
    # reductions skip the Python wrappers of .sum(), costly on a small grid
    scaled, mantissa, _ = _pow2_scaled(values, 0)
    if np.count_nonzero(mantissa) < mantissa.size:
        raise ZeroColumn(*_first_fault(mantissa[0] == 0.0))
    shares = scaled / np.add.reduce(scaled, 0)
    shares.flags.writeable = False
    return shares


def entropy_weights(matrix: DecisionMatrix) -> tuple[WeightVector, EntropyBreakdown]:
    """Weights proportional to each criterion's degree of divergence 1 - E.

    Raises:
        AllColumnsUniform: every column's CV is at most 1e-12, so no
            column has a divergence to weight.
        NegativeEntry, ZeroColumn: propagated from normalization.
    """
    normalize_columns(matrix)  # for its checks; q is taken from the values
    n = matrix.n_alternatives
    scaled = _pow2_scaled(matrix.values, 0)[0]
    mean = np.add.reduce(scaled, 0) / n
    q = (scaled - mean) / mean
    # a zero entry's log1p is taken just above q = -1, and 1 + q = 0 zeroes it
    f = np.log1p(np.maximum(q, -1.0 + 2.0**-53)) * (1.0 + q) - q
    small = np.abs(q) < 1e-2
    if np.count_nonzero(small):  # where the direct form cancels
        qs = q[small]
        powers = np.multiply.accumulate(qs[:, None].repeat(_SERIES.size, 1), 1)
        f[small] = np.add.reduce(powers * _SERIES, 1) * qs
    ln_n = math.log(n)
    divergences = np.add.reduce(f, 0) / (n * ln_n)

    # 2 d ln A is the squared CV, to within a relative CV
    floor = _NO_SPREAD**2 / (2.0 * ln_n)
    if np.count_nonzero(divergences <= floor) == divergences.size:
        raise AllColumnsUniform("every column is uniform; no divergence to weight")

    breakdown = EntropyBreakdown(1.0 - divergences, divergences, 1.0 / ln_n)
    weights = divergences / np.add.reduce(divergences, None)
    return WeightVector(weights, "entropy"), breakdown
