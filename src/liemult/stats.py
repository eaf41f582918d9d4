"""Monte Carlo estimation helpers shared by the verification batteries.

Conventions: every inequality check carries a slack of three combined
standard errors (binomial/normal approximation, crude but uniform), and
goodness-of-fit tests aggregate over batches with a Bonferroni correction at
a 0.01 significance floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .reporting import Report

__all__ = [
    "binom_se",
    "mean_se",
    "fit_slope",
    "batched_ks_exponential",
    "batched_ks_two_sample",
    "LemmaReport",
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


def _bonferroni(pvalues: list[float]) -> float:
    if not pvalues:
        return 1.0
    return float(min(1.0, len(pvalues) * min(pvalues)))


MIN_KS_BATCH = 50


def _batch_count(*sizes: int) -> int:
    # cap at 20 repetitions but never shrink a batch below ~50 samples,
    # otherwise the per-batch test has no power left to reject
    smallest = min(sizes)
    return int(np.clip(smallest // MIN_KS_BATCH, 1, KS_BATCHES))


def batched_ks_exponential(samples: np.ndarray, rate: float) -> dict:
    """KS test of samples against Exponential(rate), Bonferroni over batches.

    Returns the batch p-values, the Bonferroni-aggregated p-value, and the
    pass verdict at the 0.01 floor.
    """
    samples = np.asarray(samples, dtype=float)
    pvalues = []
    for part in np.array_split(samples, _batch_count(samples.size)):
        if part.size < 5:
            continue
        pvalues.append(float(sps.kstest(part, "expon", args=(0.0, 1.0 / rate)).pvalue))
    agg = _bonferroni(pvalues)
    return {
        "batch_pvalues": pvalues,
        "aggregated_pvalue": agg,
        "pass": agg > SIGNIFICANCE_FLOOR,
    }


def batched_ks_two_sample(a: np.ndarray, b: np.ndarray) -> dict:
    """Two-sample KS with Bonferroni aggregation over paired batches."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pvalues = []
    batches = _batch_count(a.size, b.size)
    for pa, pb in zip(np.array_split(a, batches), np.array_split(b, batches)):
        if pa.size < 5 or pb.size < 5:
            continue
        pvalues.append(float(sps.ks_2samp(pa, pb).pvalue))
    agg = _bonferroni(pvalues)
    return {
        "batch_pvalues": pvalues,
        "aggregated_pvalue": agg,
        "pass": agg > SIGNIFICANCE_FLOOR,
    }


@dataclass(frozen=True)
class LemmaReport(Report):
    """Outcome of one Monte Carlo inequality check.

    ``passed`` is None when the check was inconclusive (vacuous hypothesis or
    underpowered sample); ``slack`` is the allowed margin (three combined
    standard errors unless stated otherwise in ``notes``).
    """

    lemma: str
    params: dict
    estimates: dict
    bound: float | None
    slack: float
    passed: bool | None
    trials: int
    seed: int
    notes: dict = field(default_factory=dict)
