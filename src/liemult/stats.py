"""Monte Carlo estimation helpers shared by the verification batteries.

Conventions: every inequality check carries a slack of three combined
standard errors (binomial/normal approximation, crude but uniform), and
goodness-of-fit tests aggregate over batches with a Bonferroni correction at
a 0.01 significance floor.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binom_se",
    "mean_se",
    "fit_slope",
    "batched_ks_exponential",
    "batched_ks_two_sample",
    "kolmogorov_sf",
    "ks_exponential_pvalue",
    "ks_two_sample_pvalue",
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


def _batched_ks(samples: tuple, pvalue) -> dict:
    """Run the test ``pvalue`` on paired batches of ``samples``, Bonferroni over the batches.

    Each sample is split into the same number of consecutive batches, capped
    at ``KS_BATCHES`` but never below ~``MIN_KS_BATCH`` values per batch (a
    smaller batch has no power left to reject); batch tuples holding fewer
    than 5 values are skipped.  Returns the batch p-values, the aggregated
    p-value, and the pass verdict at the 0.01 floor.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    batches = int(np.clip(min(s.size for s in samples) // MIN_KS_BATCH, 1, KS_BATCHES))
    pvalues = [pvalue(*parts)
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
    return _batched_ks((samples,), lambda part: ks_exponential_pvalue(part, rate))


def batched_ks_two_sample(a: np.ndarray, b: np.ndarray) -> dict:
    """Two-sample KS with Bonferroni aggregation over paired batches."""
    return _batched_ks((a, b), ks_two_sample_pvalue)


# --- KS p-values -------------------------------------------------------------
#
# The one-sample tail follows the branch points of Simard and L'Ecuyer,
# "Computing the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw.
# 39(11), 2011: Ruben-Gambino at the lower end, the Durbin matrix in the body
# (Marsaglia, Tsang and Wang, "Evaluating Kolmogorov's distribution", J. Stat.
# Softw. 8(18), 2003), and twice the one-sided Smirnov tail from n d^2 = 4
# (n <= 140) or 2.2 (n > 140) on.  Twice the one-sided tail counts the event
# that both one-sided statistics reach d twice, a relative excess below
# exp(-6 n d^2): under 4e-11 from n d^2 = 4 on, but up to 2e-6 just above
# n d^2 = 2.2, where p is about 0.025.  From d = 1/2 on the two events are
# disjoint and it is exact; at the upper end, n d >= n - 1, its sum keeps one
# term, the Ruben-Gambino value 2 (1 - d)^n.  The two-sample tail counts
# lattice paths (Hodges, "The significance probability of the Smirnov
# two-sample test", Ark. Mat. 3, 1958).  Wherever a p-value can be small it
# is summed directly, never taken as 1 - cdf.


def ks_exponential_pvalue(x: np.ndarray, rate: float) -> float:
    """Two-sided one-sample KS p-value of ``x`` against Exponential(rate)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    cdf = -np.expm1(-rate * np.maximum(x, 0.0))
    d = max(float(np.max(np.arange(1.0, n + 1) / n - cdf)),
            float(np.max(cdf - np.arange(0.0, n) / n)))
    return kolmogorov_sf(d, n)


def kolmogorov_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n of n values."""
    if d >= 1.0:
        return 0.0
    t = n * d
    if t <= 0.5:
        return 1.0
    if d < 0.5 and (t * d <= 4.0 if n <= 140 else t * d < 2.2):
        return 1.0 - _durbin_cdf(n, d)
    return min(1.0, 2.0 * _smirnov_sf(n, d))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) from the Durbin matrix, for 1/(2n) < d < 1/2.

    With n d = k - h (k an integer, 0 <= h < 1), the answer is n!/n^n times
    the central entry of H^n for the (2k - 1)-square matrix H of Marsaglia,
    Tsang and Wang.  At n d <= 1, H is the 1 x 1 matrix [2 n d - 1] and this
    is Ruben-Gambino's lower end.  H^n and n!/n^n are carried as mantissas
    with separate binary exponents, so that neither leaves the float range.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(np.concatenate([[1.0], 1.0 / np.arange(1.0, m + 1)]))
    v = (1.0 - h ** np.arange(1.0, m + 1)) * inv_fact[1:]
    v[-1] = (1.0 - 2.0 * h ** m + max(2.0 * h - 1.0, 0.0) ** m) * inv_fact[m]
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power, power_exp, square_exp, steps = None, 0, 0, n
    while True:
        if steps & 1:
            power = H if power is None else power @ H
            power_exp += square_exp
            _, e = np.frexp(np.max(np.abs(power)))
            power, power_exp = np.ldexp(power, -e), power_exp + int(e)
        steps >>= 1
        if not steps:
            break
        H = H @ H
        _, e = np.frexp(np.max(np.abs(H)))
        H, square_exp = np.ldexp(H, -e), 2 * square_exp + int(e)
    # n!/n^n = prod i/n: mantissas multiplied a block at a time (a block of
    # 1000 values in [1/2, 1) stays above the float minimum), exponents summed
    mantissas, exps = np.frexp(np.arange(1, n + 1) / n)
    centre, exp = float(power[k - 1, k - 1]), power_exp + int(exps.sum())
    for block in range(0, n, 1000):
        centre, e = math.frexp(centre * float(np.prod(mantissas[block:block + 1000])))
        exp += e
    return min(1.0, math.ldexp(centre, exp))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided tail, for 0 < d < 1.

    The Birnbaum-Tingey sum
    d * sum_j C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1) over
    0 <= j <= n (1 - d), taken in logs; every term is positive.
    """
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    rest = 1.0 - d - j / n
    j, rest = j[rest > 0.0], rest[rest > 0.0]
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
             + (n - j) * np.log(rest) + (j - 1) * np.log(d + j / n))
    top = float(np.max(terms))
    return min(1.0, d * math.exp(top) * float(np.sum(np.exp(terms - top))))


def ks_two_sample_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided two-sample KS p-value, exact for every pair of sizes."""
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    m, n = a.size, b.size
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, side="right") / m - np.searchsorted(b, both, side="right") / n
    d = max(float(np.max(gaps)), float(np.clip(-np.min(gaps), 0.0, 1.0)))
    g = math.gcd(m, n)
    h = int(np.round(d * ((m // g) * n)))     # D = h / lcm(m, n)
    if h == 0:
        return 1.0
    if m == n:
        return min(1.0, _square_band_exit(n, h))
    return min(1.0, _band_exit(m, n, h))


def _square_band_exit(n: int, h: int) -> float:
    """P(D_{n,n} >= h/n): the reflection sum 2 sum_k (-1)^(k+1) C(2n, n - kh) / C(2n, n).

    With A_k = C(2n, n - kh) / C(2n, n - (k-1)h), a product of h factors,
    the sum is 2 A_1 (1 - A_2 (1 - A_3 (1 - ...))), evaluated innermost
    term first; the tail is never formed as 1 - cdf.
    """
    p = 0.0
    for k in range(n // h, -1, -1):
        ratio = 1.0
        for j in range(h):
            ratio = (n - k * h - j) * ratio / (n + k * h + j + 1)
        p = ratio * (1.0 - p)
    return 2 * p


def _band_exit(m: int, n: int, h: int) -> float:
    """P(D_{m,n} >= D) for D = h / lcm(m, n), by a walk over the lattice.

    A uniformly random arrangement of the two samples is a lattice path from
    (0, 0) to (m, n) whose next step, from (i, j), goes right with
    probability (m - i) / (m + n - i - j).  The walk runs one antidiagonal
    at a time over the cells of the band |i n - j m| < h gcd(m, n) alone
    and adds the mass that steps out of it to the exit sum, which is the
    p-value itself.  The band holds about 2 D m n / (m + n) cells of an
    antidiagonal, so a walk costs m + n steps of that length.
    """
    g = math.gcd(m, n)
    M, c = m // g, (m + n) // g     # band on i + j = s: |i c - s M| < h
    i = np.arange(m + 1.0)
    lo, inside = 0, np.ones(1)      # the band's cells i = lo, lo + 1, ...
    exit_mass = 0.0
    for s in range(m + n):          # from the antidiagonal i + j = s to s + 1
        share = inside / (m + n - s)
        rows = i[lo:lo + inside.size]
        step = np.zeros(inside.size + 1)
        step[:-1] = share * (n - s + rows)
        step[1:] += share * (m - rows)
        first = max(lo, ((s + 1) * M - h) // c + 1)
        last = min(lo + inside.size, ((s + 1) * M + h - 1) // c, m)
        exit_mass += float(np.sum(step[:first - lo])) + float(np.sum(step[last - lo + 1:]))
        inside, lo = step[first - lo:last - lo + 1], first
        if not inside.size:         # every path has left the band
            break
    return exit_mass
