"""Monte Carlo estimation helpers shared by the verification batteries.

Conventions: every inequality check carries a slack of three combined
standard errors (binomial/normal approximation, crude but uniform), and
goodness-of-fit tests aggregate over batches with a Bonferroni correction at
a 0.01 significance floor.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "binom_se",
    "mean_se",
    "fit_slope",
    "batched_ks_exponential",
    "batched_ks_two_sample",
]

SLACK_MULTIPLIER = 3.0
SIGNIFICANCE_FLOOR = 0.01
KS_BATCHES = 20


def binom_se(p_hat: float, n: int) -> float:
    """Standard error of a binomial proportion estimate."""
    if n <= 0:
        return 0.0
    return float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


def mean_se(samples: np.ndarray) -> float:
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / np.sqrt(samples.size))


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


MIN_KS_BATCH = 50


def _batched_ks(samples: tuple, test) -> dict:
    """Run ``test`` on paired batches of ``samples``, Bonferroni over the batches.

    Each sample is split into the same number of consecutive batches, capped
    at ``KS_BATCHES`` but never below ~``MIN_KS_BATCH`` values per batch (a
    smaller batch has no power left to reject); batch tuples holding fewer
    than 5 values are skipped.  Returns the batch p-values, the aggregated
    p-value, and the pass verdict at the 0.01 floor.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    batches = int(np.clip(min(s.size for s in samples) // MIN_KS_BATCH, 1, KS_BATCHES))
    pvalues = [float(test(*parts).pvalue)
               for parts in zip(*(np.array_split(s, batches) for s in samples))
               if min(part.size for part in parts) >= 5]
    agg = float(min(1.0, len(pvalues) * min(pvalues))) if pvalues else 1.0
    return {
        "batch_pvalues": pvalues,
        "aggregated_pvalue": agg,
        "pass": agg > SIGNIFICANCE_FLOOR,
    }


def batched_ks_exponential(samples: np.ndarray, rate: float) -> dict:
    """KS test of samples against Exponential(rate), Bonferroni over batches."""
    from scipy import stats as sps   # scipy loads on the first KS test only
    return _batched_ks((samples,), lambda part: sps.kstest(part, "expon", args=(0.0, 1.0 / rate)))


def batched_ks_two_sample(a: np.ndarray, b: np.ndarray) -> dict:
    """Two-sample KS with Bonferroni aggregation over paired batches."""
    from scipy import stats as sps
    return _batched_ks((a, b), sps.ks_2samp)

