"""Count-based hypothesis tests used to compare samplers and check densities."""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = ["chi_square_gof", "two_sample_chi_square"]


def chi_square_gof(observed: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Pearson goodness-of-fit of category counts against given probabilities.

    ``probs`` is normalized internally.  Returns (statistic, p-value) with
    ``len(observed) - 1`` degrees of freedom.
    """
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if observed.shape != probs.shape or observed.ndim != 1:
        raise ValueError("observed and probs must be 1-d arrays of equal length")
    if np.any(probs < 0) or probs.sum() <= 0:
        raise ValueError("probs must be nonnegative with positive sum")
    total = observed.sum()
    expected = total * probs / probs.sum()
    if np.any(expected == 0):
        raise ValueError("every category needs positive expected count")
    stat = float(np.sum((observed - expected) ** 2 / expected))
    df = observed.size - 1
    return stat, float(sp.chdtrc(df, stat))


def two_sample_chi_square(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, float]:
    """Homogeneity test: were two sets of category counts drawn alike?

    Categories empty in both samples are dropped.  Returns (statistic,
    p-value) with ``kept_categories - 1`` degrees of freedom.
    """
    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    if counts_a.shape != counts_b.shape or counts_a.ndim != 1:
        raise ValueError("count vectors must be 1-d with equal length")
    pooled = counts_a + counts_b
    keep = pooled > 0
    counts_a, counts_b, pooled = counts_a[keep], counts_b[keep], pooled[keep]
    if counts_a.size < 2:
        raise ValueError("need at least two occupied categories")
    tot_a, tot_b = counts_a.sum(), counts_b.sum()
    if tot_a == 0 or tot_b == 0:
        raise ValueError("each sample needs a positive total")
    grand = tot_a + tot_b
    ea = pooled * tot_a / grand
    eb = pooled * tot_b / grand
    stat = float(np.sum((counts_a - ea) ** 2 / ea) + np.sum((counts_b - eb) ** 2 / eb))
    df = counts_a.size - 1
    return stat, float(sp.chdtrc(df, stat))
