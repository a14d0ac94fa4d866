"""Shannon entropy weighting.

Pipeline: share-of-column normalization, per-criterion entropy scaled into
[0, 1] by 1/ln(alternative count), degree of divergence 1 - E, and weights
proportional to divergence. Columns with more dispersion carry more weight;
a uniform column is fully entropic and carries none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllColumnsUniform, NegativeEntry, ZeroColumn
from .matrix import DecisionMatrix, WeightVector, _first_fault, _freeze_fields

# divergences at or below this are indistinguishable from a uniform column
_UNIFORM_EPS = 1e-12


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
        if np.count_nonzero(self.divergence != 1.0 - e):
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
    # divided by its largest |value|, and sums of entries in [0, 1] cannot
    # overflow (Higham, *Accuracy and Stability of Numerical Algorithms*,
    # ch. 4); the ufunc reductions skip the Python wrappers of .max() and
    # .sum(), which cost more than the reduction on a small grid
    scales = np.maximum.reduce(np.abs(values), 0)
    if np.count_nonzero(scales) < scales.size:
        raise ZeroColumn(*_first_fault(scales == 0.0))
    scaled = values / scales
    shares = scaled / np.add.reduce(scaled, 0)
    shares.flags.writeable = False
    return shares


def _plogp(p: np.ndarray) -> np.ndarray:
    # Shannon convention: 0 * ln 0 = 0
    safe = np.where(p > 0.0, p, 1.0)
    return safe * np.log(safe)


def entropy_weights(matrix: DecisionMatrix) -> tuple[WeightVector, EntropyBreakdown]:
    """Weights proportional to each criterion's degree of divergence 1 - E.

    Raises:
        AllColumnsUniform: every divergence vanishes, so the weights'
            denominator is zero.
        NegativeEntry, ZeroColumn: propagated from normalization.
    """
    shares = normalize_columns(matrix)
    k = 1.0 / np.log(matrix.n_alternatives)
    entropies = -k * np.add.reduce(_plogp(shares), 0)
    divergences = 1.0 - entropies

    # rounding can leave a uniform column a few ulp off d = 0, either side;
    # clamp for the weight quotient so the simplex constraint holds exactly
    usable = np.maximum(divergences, 0.0)
    if np.count_nonzero(divergences <= _UNIFORM_EPS) == divergences.size:
        raise AllColumnsUniform("every column is uniform; no divergence to weight")

    breakdown = EntropyBreakdown(entropies, divergences, float(k))
    return WeightVector(usable / np.add.reduce(usable, None), "entropy"), breakdown
