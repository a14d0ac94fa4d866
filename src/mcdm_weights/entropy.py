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
from .matrix import DecisionMatrix, WeightVector, _readonly, _scaled_columns

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
        for name in ("entropy", "divergence"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        e = self.entropy
        bad = e[~((-1e-12 <= e) & (e <= 1.0 + 1e-12))]
        if bad.size:
            raise ValueError(f"entropy {float(bad[0])!r} outside [0, 1]")
        if (self.divergence != 1.0 - e).any():
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
    neg = np.argwhere(values < 0)
    if neg.size:
        row, col = (int(v) for v in neg[0])
        raise NegativeEntry(row, col)
    scaled, _ = _scaled_columns(values, ZeroColumn)
    shares = scaled / scaled.sum(axis=0)
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
    entropies = -k * _plogp(shares).sum(axis=0)
    divergences = 1.0 - entropies

    # rounding can leave a uniform column a few ulp off d = 0, either side;
    # clamp for the weight quotient so the simplex constraint holds exactly
    usable = np.maximum(divergences, 0.0)
    if (divergences <= _UNIFORM_EPS).all():
        raise AllColumnsUniform("every column is uniform; no divergence to weight")

    breakdown = EntropyBreakdown(entropies, divergences, float(k))
    return WeightVector(usable / usable.sum(), "entropy"), breakdown
