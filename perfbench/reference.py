"""Reference results the benchmark checks the program's outputs against.

Written from the method definitions, in numpy, without calling the
package: entropy weights are shares, scaled entropy ``-1/ln A * sum p ln p``
and divergence ``1 - E`` normalised to sum 1; dispersion weights are the
coefficient of variation (population std over |mean|) normalised to sum 1.
Every function takes arrays shaped ``(..., A, C)``.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: a 6-decimal report value may sit this far from the exact weight
REPORT_TOL = 5e-7 + 1e-12
#: full-precision weights differ from the reference only by summation order
EXACT_RTOL = 1e-9


def entropy_weights(values: np.ndarray) -> np.ndarray:
    shares = values / values.sum(axis=-2, keepdims=True)
    plogp = np.where(shares > 0, shares * np.log(np.where(shares > 0, shares, 1.0)), 0.0)
    entropy = -plogp.sum(axis=-2) / np.log(values.shape[-2])
    divergence = 1.0 - entropy
    return divergence / divergence.sum(axis=-1, keepdims=True)


def cv_weights(values: np.ndarray) -> np.ndarray:
    cv = values.std(axis=-2) / np.abs(values.mean(axis=-2))
    return cv / cv.sum(axis=-1, keepdims=True)


def sha256_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def weight_problems(label: str, got, want: np.ndarray, tol: float) -> list[str]:
    """Empty when ``got`` matches ``want`` within ``tol`` (absolute)."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want)
    if not (err <= tol).all():
        j = int(np.argmax(err))
        return [f"{label}[{j}] = {got[j]!r}, reference {want[j]!r}"]
    return []


def exact_problems(label: str, got, want: np.ndarray) -> list[str]:
    """Full-precision weights against the reference, relative tolerance."""
    return weight_problems(label, got, want, EXACT_RTOL * float(np.abs(want).max()))


def agreement_summary(
    seed: int, trials: int, dims: tuple[int, int], value_range: tuple[float, float]
) -> dict:
    """Expected method-agreement summary for one seeded Monte Carlo run.

    Trial matrices follow the documented stream: trial t draws uniform
    values from ``default_rng(SeedSequence((seed, t)).generate_state(1)[0])``.
    Entropy fails on any negative entry; dispersion fails when a column mean
    vanishes at the column's scale (|mean| <= 1e-9 * max(1, max |x|)).
    """
    lo, hi = value_range
    mats = np.stack([
        np.random.default_rng(
            int(np.random.SeedSequence((seed, t)).generate_state(1)[0])
        ).uniform(lo, hi, size=dims)
        for t in range(trials)
    ])
    entropy_ok = (mats >= 0).all(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(mats).max(axis=-2))
    dwm_ok = (np.abs(mats.mean(axis=-2)) > 1e-9 * scale).all(axis=-1)
    both = entropy_ok & dwm_ok
    we = entropy_weights(mats[both])
    wd = cv_weights(mats[both])
    dx = we - we.mean(axis=-1, keepdims=True)
    dy = wd - wd.mean(axis=-1, keepdims=True)
    r = (dx * dy).sum(-1) / np.sqrt((dx * dx).sum(-1) * (dy * dy).sum(-1))
    agree = we.argmax(-1) == wd.argmax(-1)
    return {
        "compared_trials": int(both.sum()),
        "entropy_failures": int((~entropy_ok).sum()),
        "dwm_failures": int((~dwm_ok).sum()),
        "dwm_only_trials": int((dwm_ok & ~entropy_ok).sum()),
        "pearson": r,
        "rank1_agreement_rate": float(agree.mean()) if agree.size else None,
    }
