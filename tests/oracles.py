"""Brute-force reference implementations used to cross-check the library.

Deliberately naive transcriptions of the two weighting procedures: plain
loops over lists, no code shared with the package. The ``oracle_*``
functions use floats and the ``math`` module only; the ``exact_*`` ones
carry every float input exactly into ``decimal`` arithmetic at
``EXACT_DIGITS`` significant digits, far past float64's 17, so they are
the reference that the accuracy properties measure the package against.
Agreement between these and the optimized implementations is what the
property suite asserts.
"""

import math
from decimal import Decimal, localcontext

#: significant digits of the exact oracles' arithmetic
EXACT_DIGITS = 60


def oracle_entropy_weights(rows):
    """Entropy weights of a row-major grid, one arithmetic step at a time.

    Returns (weights, entropies). Raises ValueError on negative entries,
    all-zero columns, or a matrix whose columns are all uniform.
    """
    n_alt = len(rows)
    n_crit = len(rows[0])
    cols = [[rows[i][j] for i in range(n_alt)] for j in range(n_crit)]

    p_cols = []
    for col in cols:
        for v in col:
            if v < 0:
                raise ValueError("negative entry")
        total = sum(col)
        if total == 0:
            raise ValueError("zero column")
        p_cols.append([v / total for v in col])

    k = 1.0 / math.log(n_alt)
    entropies = []
    for p_col in p_cols:
        acc = 0.0
        for p in p_col:
            if p > 0.0:
                acc += p * math.log(p)
        entropies.append(-k * acc)

    divergences = [1.0 - e for e in entropies]
    total_div = sum(d for d in divergences if d > 0.0)
    if total_div <= 0.0:
        raise ValueError("all columns uniform")
    return [max(d, 0.0) / total_div for d in divergences], entropies


def oracle_dwm_weights(rows):
    """Dispersion weights of a row-major grid via mean / std / CV.

    Returns (weights, means, stds, cvs). Population standard deviation;
    CV uses the absolute mean so all-negative columns stay legal.
    """
    n_alt = len(rows)
    n_crit = len(rows[0])
    cols = [[rows[i][j] for i in range(n_alt)] for j in range(n_crit)]

    means, stds, cvs = [], [], []
    for col in cols:
        mu = sum(col) / n_alt
        var = sum((v - mu) ** 2 for v in col) / n_alt
        sigma = math.sqrt(var)
        if abs(mu) == 0.0:
            raise ValueError("zero mean column")
        means.append(mu)
        stds.append(sigma)
        cvs.append(sigma / abs(mu))

    total = sum(cvs)
    if total <= 0.0:
        raise ValueError("all columns constant")
    return [c / total for c in cvs], means, stds, cvs


def oracle_pearson(xs, ys):
    """Product-moment correlation, textbook form."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def oracle_saw_scores(p_rows, weights):
    """Weighted-sum value of each row of an already normalized grid."""
    return [sum(w * p for w, p in zip(weights, row)) for row in p_rows]


def oracle_rank_desc(values):
    """Rank 1 for the largest value; ties broken by lower index."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    ranks = [0] * len(values)
    for pos, idx in enumerate(order):
        ranks[idx] = pos + 1
    return ranks


def exact_columns(rows):
    """Each column of a row-major float grid as a list of exact Decimals."""
    return [[Decimal(float(v)) for v in col] for col in zip(*rows)]


def exact_entropy_weights(rows):
    """Entropy weights and divergences ``1 - E`` of a nonnegative grid,
    from the textbook shares ``p = x / sum x`` and ``E = -sum p ln p / ln A``,
    as Decimals. Raises ValueError where every divergence is 0."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        ln_n = Decimal(len(rows)).ln()
        divergences = []
        for col in exact_columns(rows):
            total = sum(col)
            plogp = sum((x / total) * (x / total).ln() for x in col if x)
            divergences.append(1 + plogp / ln_n)
        if not any(divergences):
            raise ValueError("all columns uniform")
        total = sum(divergences)
        return [d / total for d in divergences], divergences


def exact_dwm_weights(rows):
    """DWM weights and CVs (population std over |mean|) of a grid, as
    Decimals. Raises ValueError on a zero mean, or where every CV is 0."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        cvs = []
        for col in exact_columns(rows):
            mean = sum(col) / len(col)
            if not mean:
                raise ValueError("zero mean column")
            var = sum((x - mean) ** 2 for x in col) / len(col)
            cvs.append(var.sqrt() / abs(mean))
        if not any(cvs):
            raise ValueError("all columns constant")
        total = sum(cvs)
        return [c / total for c in cvs], cvs
