"""KS p-values against scipy, the oracle, in each regime of the tail."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from liemult.stats import (_band_exit, _square_band_exit, batched_ks_exponential,
                           batched_ks_two_sample, kolmogorov_sf, ks_exponential_pvalue,
                           ks_two_sample_pvalue)


def statistics(n, lo, hi, count=25):
    """``count`` values of d with lo <= n d^2 <= hi, also 1/n < d < 1/2 and n d < n - 1."""
    d = np.sqrt(np.linspace(lo, hi, count) / n)
    return [float(x) for x in d if 1.0 / n < x < 0.5 and n * x < n - 1]


def scipy_sf(d, n):
    return float(stats.kstwo.sf(d, n))


def assert_tail(d, n, rtol):
    want = scipy_sf(d, n)
    assert kolmogorov_sf(d, n) == pytest.approx(want, rel=rtol, abs=0), (n, d)


class TestKolmogorovTail:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 140])
    def test_durbin_region_small_n(self, n):
        # scipy is exact here (its Durbin matrix and Pomeranz recursion)
        for d in statistics(n, 0.01, 4.0):
            assert_tail(d, n, 1e-10)

    @pytest.mark.parametrize("n", [141, 200, 500, 1000])
    def test_durbin_region_large_n(self, n):
        # scipy's own Durbin matrix, where n d^1.5 <= 1.4
        for d in statistics(n, 0.01, 2.199):
            if n * d ** 1.5 <= 1.4:
                assert_tail(d, n, 1e-10)

    @pytest.mark.parametrize("n", [141, 150, 200, 500, 1000, 5000])
    def test_pelz_good_region(self, n):
        # scipy switches to the Pelz-Good approximation and the tail here stays
        # exact; Pelz-Good is off by up to 2.4e-5 at n = 141, 1.2e-5 at n = 200
        for d in statistics(n, 0.01, 2.199):
            if n * d ** 1.5 > 1.4:
                assert_tail(d, n, 2e-5 if n >= 200 else 2.5e-5)

    @pytest.mark.parametrize("n", [5, 20, 100, 140, 141, 500, 3000])
    def test_twice_smirnov_region(self, n):
        for d in statistics(n, 4.0 if n <= 140 else 2.2, 60.0) + [0.5, 0.6, 0.8]:
            if n * d < n - 1 and (n * d * d > 4.0 if n <= 140 else n * d * d >= 2.2):
                assert_tail(d, n, 1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 140, 141, 600])
    def test_ruben_gambino_ends(self, n):
        for t in (0.51, 0.75, 1.0):
            assert_tail(t / n, n, 1e-10)
        for d in (1.0 - 1.0 / n, 1.0 - 0.5 / n, 1.0 - 0.01 / n):
            if d > 0:
                assert_tail(d, n, 1e-10)

    @pytest.mark.parametrize("n, d", [(10, 0.93), (30, 0.64), (60, 0.47), (100, 0.37), (140, 0.33),
                                      (500, 0.17), (3000, 0.068)])
    def test_small_tails_are_summed_directly(self, n, d):
        want = scipy_sf(d, n)
        assert 1e-16 < want < 1e-10
        assert kolmogorov_sf(d, n) == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [1, 5, 500])
    def test_degenerate_statistics(self, n):
        assert kolmogorov_sf(0.0, n) == kolmogorov_sf(-0.1, n) == kolmogorov_sf(0.4 / n, n) == 1.0
        assert kolmogorov_sf(1.0, n) == kolmogorov_sf(1.5, n) == 0.0

    def test_exponential_pvalue_matches_kstest(self):
        rng = np.random.default_rng(7)
        for n in (5, 6, 50, 141, 499, 500):
            for scale in (0.5, 1.0, 1.3):
                x = rng.exponential(scale, n)
                want = stats.kstest(x, "expon", args=(0.0, 1.0)).pvalue
                tol = 2e-5 if n > 140 else 1e-10
                assert ks_exponential_pvalue(x, 1.0) == pytest.approx(want, rel=tol), (n, scale)

    def test_negative_values_sit_at_cdf_zero(self):
        x = np.array([-1.0, -0.5, 0.1, 0.2, 0.3, 0.4, 2.0])
        want = stats.kstest(x, "expon").pvalue
        assert ks_exponential_pvalue(x, 1.0) == pytest.approx(want, rel=1e-10)


def outside_fraction(m, n, h):
    """P(D_{m,n} >= h / lcm(m, n)) as an exact fraction, by counting lattice paths."""
    g = math.gcd(m, n)
    inside = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        for j in range(n + 1):
            if abs(i * (n // g) - j * (m // g)) >= h:
                continue
            inside[i][j] = 1 if i == j == 0 else (
                (inside[i - 1][j] if i else 0) + (inside[i][j - 1] if j else 0))
    return 1 - Fraction(inside[m][n], math.comb(m + n, m))


def scipy_two_sample(a, b):
    """scipy's p-value; where its equal-size sum rounds above 1 (at h = 1, whose
    exact tail is 1) it warns and falls back to the asymptotic law, clipped to 1."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "ks_2samp: Exact calculation unsuccessful")
        return stats.ks_2samp(a, b).pvalue


def shifted_pair(rng, m, n, shift, digits=None):
    a, b = rng.normal(0.0, 1.0, m), rng.normal(shift, 1.0, n)
    return (a, b) if digits is None else (np.round(a, digits), np.round(b, digits))


class TestSmirnovTail:
    @pytest.mark.parametrize("n", [5, 6, 17, 50, 51, 200, 1000])
    def test_equal_sizes_equal_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.3, 1.0, 2.5):
            for digits in (None, 1):
                a, b = shifted_pair(rng, n, n, shift, digits)
                assert ks_two_sample_pvalue(a, b) == scipy_two_sample(a, b)

    @pytest.mark.parametrize("m, n", [(5, 6), (7, 5), (49, 50), (50, 51), (30, 45),
                                      (100, 37), (499, 501)])
    def test_unequal_sizes_match_scipy(self, m, n):
        rng = np.random.default_rng(m * n)
        for shift in (0.0, 0.3, 1.0, 2.5):
            for digits in (None, 1):
                a, b = shifted_pair(rng, m, n, shift, digits)
                want = stats.ks_2samp(a, b).pvalue
                assert ks_two_sample_pvalue(a, b) == pytest.approx(want, rel=1e-9, abs=0)

    @pytest.mark.parametrize("m, n", [(6, 9), (13, 8), (24, 36), (40, 41)])
    def test_lattice_walk_equals_the_exact_count(self, m, n):
        lcm = m * n // math.gcd(m, n)
        for h in range(1, lcm + 1, max(1, lcm // 40)):
            want = float(outside_fraction(m, n, h))
            assert _band_exit(m, n, h) == pytest.approx(want, rel=1e-12, abs=0), h

    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_reflection_sum_equals_the_lattice_walk(self, n):
        for h in range(1, n + 1):
            assert _square_band_exit(n, h) == pytest.approx(_band_exit(n, n, h), rel=1e-12)

    @pytest.mark.parametrize("m, n", [(40, 40), (40, 41), (60, 90)])
    def test_small_tails_are_summed_directly(self, m, n):
        # the far tail of the statistic, p-values from 1e-7 down past 1e-12
        lcm = m * n // math.gcd(m, n)
        hs = [*range(lcm // 2, lcm, max(1, lcm // 60)), lcm]
        fractions = [float(outside_fraction(m, n, h)) for h in hs]
        assert min(fractions) < 1e-12
        for h, want in zip(hs, fractions):
            got = _square_band_exit(n, h) if m == n else _band_exit(m, n, h)
            assert got == pytest.approx(want, rel=1e-10, abs=0), h

    def test_identical_and_disjoint_samples(self):
        a = np.arange(10.0)
        assert ks_two_sample_pvalue(a, a) == 1.0
        assert ks_two_sample_pvalue(a, a + 100.0) == stats.ks_2samp(a, a + 100.0).pvalue
        b = np.arange(12.0) + 100.0
        assert ks_two_sample_pvalue(a, b) == pytest.approx(stats.ks_2samp(a, b).pvalue,
                                                           rel=1e-12)


class TestBatchedKs:
    def test_five_value_batches_are_tested_and_smaller_ones_skipped(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(1.0, 5)
        assert batched_ks_exponential(x, 1.0)["batch_pvalues"] == [
            pytest.approx(stats.kstest(x, "expon").pvalue, rel=1e-10)]
        assert batched_ks_exponential(x[:4], 1.0) == {
            "batch_pvalues": [], "aggregated_pvalue": 1.0, "pass": True}
        y = rng.exponential(1.0, 5)
        assert batched_ks_two_sample(x, y)["batch_pvalues"] == [stats.ks_2samp(x, y).pvalue]
        assert batched_ks_two_sample(x, y[:4])["batch_pvalues"] == []

    def test_batches_and_bonferroni(self):
        rng = np.random.default_rng(4)
        a, b = rng.exponential(1.0, 1003), rng.exponential(1.0, 1000)
        one = batched_ks_exponential(a, 1.0)
        want = [stats.kstest(x, "expon").pvalue for x in np.array_split(a, 20)]
        np.testing.assert_allclose(one["batch_pvalues"], want, rtol=1e-10)
        assert one["aggregated_pvalue"] == min(1.0, 20 * min(one["batch_pvalues"]))
        two = batched_ks_two_sample(a, b)
        want = [stats.ks_2samp(x, y).pvalue
                for x, y in zip(np.array_split(a, 20), np.array_split(b, 20))]
        np.testing.assert_allclose(two["batch_pvalues"], want, rtol=1e-9)
        assert two["pass"] == (two["aggregated_pvalue"] > 0.01)
