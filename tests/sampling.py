"""Seeded random decision matrices for the property tests."""

import numpy as np


def random_matrices(count, seed=20240501, max_rows=9, max_cols=7, lo=1.0, hi=100.0):
    """Seeded stream of (rows, cols, grid) triples for property tests."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows = int(rng.integers(2, max_rows))
        cols = int(rng.integers(1, max_cols))
        grid = rng.uniform(lo, hi, size=(rows, cols))
        yield rows, cols, grid
