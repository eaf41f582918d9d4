"""Oscillation counting and the Monte Carlo regularity batteries."""

import numpy as np
import pytest

from liemult import (LevyModel, TimeGrid, UniformBallJumps, batch_prefixes,
                     exhaustive_count_reference, mc_expectation_bound,
                     mc_largest_step, mc_maximum_oscillation,
                     oscillation_axioms_test, oscillation_counts_from_outside,
                     product_exponential, sample_additive,
                     uniform_continuity_probe)
from liemult.multiplicative import TRIAL_CHUNK, MultiplicativePath
from liemult.regularity import _suffix_norms
from liemult.rng import substream


def brownian_paths(heis, sigma, cells, count, seed):
    model = LevyModel(space=heis, diffusion=sigma)
    grid = TimeGrid.uniform(1.0, cells)
    return [product_exponential(sample_additive(model, grid, seed, stream=(t,)))
            for t in range(count)]


def count(group, prefix, delta):
    """Oscillation count of the prefix rows given, by the DP."""
    return int(oscillation_counts_from_outside(group.pairwise_chart_norms(prefix) >= delta))


class TestCountOscillations:
    def test_constant_path_counts_zero(self, heis2):
        grid = TimeGrid.uniform(1.0, 8)
        path = MultiplicativePath.from_increments(heis2, grid, np.zeros((8, 5)))
        assert count(heis2, path.prefix, 0.5) == 0

    def test_single_large_cell_counts_one(self, heis2):
        grid = TimeGrid.uniform(1.0, 8)
        cells = np.zeros((8, 5))
        cells[3] = heis2.embed([0.9, 0.0])
        path = MultiplicativePath.from_increments(heis2, grid, cells)
        assert count(heis2, path.prefix, 0.5) == 1

    def test_window_restriction(self, heis2):
        grid = TimeGrid.uniform(1.0, 8)
        cells = np.zeros((8, 5))
        cells[1] = heis2.embed([0.9, 0.0])
        cells[6] = heis2.embed([-0.9, 0.0])
        path = MultiplicativePath.from_increments(heis2, grid, cells)
        assert count(heis2, path.prefix, 0.5) == 2
        assert count(heis2, path.prefix[3:6], 0.5) == 0       # window [3, 5]
        assert count(heis2, path.prefix[0:5], 0.5) == 1       # window [0, 4]

    def test_dp_matches_exhaustive_reference(self):
        rng = substream(0, "dp-vs-brute")
        for _ in range(300):
            size = int(rng.integers(2, 13))
            outside = np.triu(rng.random((size, size)) < rng.uniform(0.1, 0.8), k=1)
            assert (int(oscillation_counts_from_outside(outside))
                    == exhaustive_count_reference(outside))

    def test_batched_dp_agrees_with_scalar(self):
        rng = substream(1, "dp-batch")
        outside = np.triu(rng.random((40, 9, 9)) < 0.5, k=1)
        batched = oscillation_counts_from_outside(outside)
        scalar = [int(oscillation_counts_from_outside(o)) for o in outside]
        np.testing.assert_array_equal(batched, scalar)


class TestAxioms:
    def test_properties_on_random_paths(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.25)
        report = oscillation_axioms_test(model, TimeGrid.uniform(1.0, 16), 0.25, 6, 300, 5)
        assert report["pass"], report
        assert report["cases"] == 300 and not any(report["violations"].values())

    def test_single_point_subset_counts_zero(self, heis2):
        path = brownian_paths(heis2, 0.3, 8, 1, seed=1)[0]
        assert count(heis2, path.prefix[[4]], 0.5) == 0

    def test_subset_monotonicity_explicit(self, heis2):
        path = brownian_paths(heis2, 0.4, 16, 1, seed=2)[0]
        full = count(heis2, path.prefix, 0.3)
        half = count(heis2, path.prefix[0:17:2], 0.3)
        assert half <= full

    def test_counts_monotone_under_coupled_refinement(self, heis2):
        # refinement only adds grid points to the same coupled path
        model = LevyModel(space=heis2, diffusion=0.4, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.5))
        grid = TimeGrid.uniform(1.0, 16)
        for trial in range(10):
            driver = sample_additive(model, grid, 19, stream=(trial,))
            coarse = count(heis2, product_exponential(driver).prefix, 0.4)
            fine_driver = driver.refine(23, stream=(trial,))
            fine = count(heis2, product_exponential(fine_driver).prefix, 0.4)
            assert fine >= coarse


class TestMaximumOscillation:
    def test_zero_driver_trivial(self, heis2):
        model = LevyModel(space=heis2)
        rep = mc_maximum_oscillation(model, TimeGrid.uniform(1.0, 16), 0.5, 200, 0)
        assert rep["pass"]
        assert rep["estimates"]["alpha_hat"] == 0.0
        assert rep["estimates"]["lhs"] == 0.0

    def test_brownian_battery(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.22)
        rep = mc_maximum_oscillation(model, TimeGrid.uniform(1.0, 32), 0.5, 3000, 7)
        assert rep["pass"]
        assert 0.0 < rep["estimates"]["alpha_hat"] < 1.0

    def test_small_jump_driver_near_zero_alpha(self, heis2):
        # jumps confined to the quarter ball at low intensity barely move the path
        model = LevyModel(space=heis2, jump_intensity=0.2,
                          jump_law=UniformBallJumps(0.5 / 4))
        rep = mc_maximum_oscillation(model, TimeGrid.uniform(1.0, 16), 0.5, 1000, 3)
        assert rep["pass"]
        assert rep["estimates"]["alpha_hat"] <= 0.05
        assert rep["estimates"]["p_endpoint_outside"] <= 0.05

    def test_report_fields(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.2)
        out = mc_maximum_oscillation(model, TimeGrid.uniform(1.0, 8), 0.5, 100, 0)
        assert {"lemma", "params", "estimates", "bound", "slack", "pass"} <= set(out)


    def test_suffix_norms_are_last_pairwise_column(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.4)
        prefixes = batch_prefixes(heis2, model, TimeGrid.uniform(1.0, 10), 7, 2)
        np.testing.assert_allclose(_suffix_norms(heis2, prefixes),
                                   heis2.pairwise_chart_norms(prefixes)[:, :, -1],
                                   rtol=1e-12, atol=1e-15)


class TestLargestStep:
    def test_zero_driver(self, heis2):
        model = LevyModel(space=heis2)
        rep = mc_largest_step(model, TimeGrid.uniform(1.0, 16), 0.5, 200, 0)
        assert rep["pass"]

    def test_planted_jump_forces_witness(self, heis2):
        # a single mid-path jump beyond the superset radius makes the pair
        # event certain, and the suffix pair (j, n) witnesses the bound side
        radius = heis2.ball_power_radius(0.5, 2)
        atom = heis2.embed([2.0 * radius, 0.0])
        model = LevyModel(space=heis2, jump_intensity=3.0,
                          jump_law=UniformBallJumps(0.02))
        grid = TimeGrid.uniform(1.0, 16)
        rep = mc_largest_step(model, grid, 0.5, 500, 1)
        assert rep["pass"]    # small jumps: both probabilities zero

        import dataclasses
        base = sample_additive(LevyModel(space=heis2), grid, 0)
        planted = dataclasses.replace(base, jump_times=np.array([0.47]),
                                      jump_vectors=atom[None, :])
        path = product_exponential(planted)
        norms = heis2.pairwise_chart_norms(path.prefix)
        upper = np.triu(np.ones_like(norms, dtype=bool), k=1)
        assert np.any((norms >= radius) & upper)                 # pair side certain
        to_end = heis2.chart_norm(heis2.mul(heis2.inv(path.prefix),
                                            path.prefix[-1]))
        assert np.any(to_end >= 0.5)                             # suffix witness (j, n)

    def test_brownian_battery(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.22)
        rep = mc_largest_step(model, TimeGrid.uniform(1.0, 32), 0.5, 3000, 7)
        assert rep["pass"]


class TestExpectationBound:
    def test_zero_driver(self, heis2):
        model = LevyModel(space=heis2)
        rep = mc_expectation_bound(model, TimeGrid.uniform(1.0, 16), 0.5, 200, 0)
        assert rep["pass"]
        assert rep["mean_count"] == 0.0
        assert rep["bound"] == 0.0

    def test_calibrated_brownian(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.115)
        rep = mc_expectation_bound(model, TimeGrid.uniform(1.0, 32), 0.5, 4000, 7)
        assert rep["pass"]
        assert 0.15 <= rep["alpha_hat"] <= 0.45
        assert rep["mean_count"] <= rep["bound"] + rep["slack"]
        assert all(entry["pass"] for entry in rep["tail"].values())

    def test_unipotent_instance_battery(self, uni4):
        model = LevyModel(space=uni4, diffusion=0.04)
        rep = mc_expectation_bound(model, TimeGrid.uniform(1.0, 16), 0.1, 600, 3)
        assert rep["pass"]
        assert 0.0 < rep["alpha_hat"] < 1.0
        assert rep["mean_count"] <= rep["bound"] + rep["slack"]

    def test_saturated_alpha_is_inconclusive(self, heis2):
        model = LevyModel(space=heis2, diffusion=1.5)
        rep = mc_expectation_bound(model, TimeGrid.uniform(1.0, 32), 0.5, 400, 3)
        assert rep["pass"] is None
        assert "inconclusive" in rep["tail"]

    def test_split_halves_are_disjoint(self, heis2):
        # alpha from the first half must not depend on the second half's draws
        model = LevyModel(space=heis2, diffusion=0.12)
        grid = TimeGrid.uniform(1.0, 16)
        a = mc_expectation_bound(model, grid, 0.5, 400, 11)
        b = mc_expectation_bound(model, grid, 0.5, 400, 11)
        assert a["alpha_hat"] == b["alpha_hat"] and a["mean_count"] == b["mean_count"]


class TestUniformContinuityProbe:
    def test_zero_driver_returns_full_horizon(self, heis2):
        model = LevyModel(space=heis2)
        rep = uniform_continuity_probe(model, 1.0, 0.5, 0.1, 200, 0)
        assert rep["window"] == pytest.approx(1.0)
        assert rep["monotone"] and not rep["none_found"]

    def test_brownian_revalidates_out_of_sample(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.35)
        rep = uniform_continuity_probe(model, 1.0, 1.0, 0.1, 1500, 3)
        assert rep["monotone"] and not rep["none_found"]
        fresh = uniform_continuity_probe(model, 1.0, 1.0, 0.1, 1500, 4)
        p_fresh = [p for h, p in fresh["probability_curve"].items()
                   if float(h) <= rep["window"]][0]
        assert p_fresh <= rep["alpha"] + 3 * np.sqrt(rep["alpha"] * (1 - rep["alpha"]) / 1500)

    def test_hot_driver_flags_none_found(self, heis2):
        model = LevyModel(space=heis2, diffusion=3.0)
        rep = uniform_continuity_probe(model, 1.0, 0.5, 0.05, 200, 0, cells=16)
        assert rep["none_found"]

    def test_intensity_weakly_shrinks_window(self, heis2):
        windows = []
        for lam in (1.0, 8.0):
            model = LevyModel(space=heis2, jump_intensity=lam,
                              jump_law=UniformBallJumps(0.45))
            hs = []
            for seed in range(5):
                rep = uniform_continuity_probe(model, 1.0, 0.5, 0.2, 600, seed)
                hs.append(rep["window"])
            windows.append(np.mean(hs))
        assert windows[1] <= windows[0]

    def test_alpha_validation(self, heis2):
        model = LevyModel(space=heis2)
        with pytest.raises(Exception):
            uniform_continuity_probe(model, 1.0, 0.5, 1.5, 10, 0)


class TestChunkSeam:
    """The all-pairs batteries reduce trial chunks; at a trial count that is
    not a multiple of the chunk size their estimates must equal an oracle
    built from one unchunked pairwise call over all trials."""

    TRIALS, SEED, DELTA = 150, 5, 1.0

    @pytest.fixture
    def setup(self, heis2):
        assert self.TRIALS % TRIAL_CHUNK != 0
        model = LevyModel(space=heis2, diffusion=0.3)
        grid = TimeGrid.uniform(1.0, 16)
        prefixes = batch_prefixes(heis2, model, grid, self.TRIALS, self.SEED)
        norms = heis2.pairwise_chart_norms(prefixes)           # (trials, 17, 17)
        upper = np.triu(np.ones((17, 17), dtype=bool), k=1)
        return heis2, model, grid, norms, upper

    def test_largest_step(self, setup):
        group, model, grid, norms, upper = setup
        radius = group.ball_power_radius(0.5, 2)
        rep = mc_largest_step(model, grid, 0.5, self.TRIALS, self.SEED)
        oracle = np.mean(np.any((norms >= radius) & upper, axis=(1, 2)))
        assert 0.0 < oracle < 1.0
        assert rep["estimates"]["p_any_pair_outside_superset"] == oracle

    def test_expectation_bound(self, setup):
        _, model, grid, norms, upper = setup
        half = self.TRIALS // 2
        rep = mc_expectation_bound(model, grid, self.DELTA, self.TRIALS, self.SEED)
        outside = norms >= self.DELTA
        alpha = np.mean(np.any(outside[:half] & upper, axis=(1, 2)))
        counts = oscillation_counts_from_outside(outside[half:] & upper)
        assert 0.0 < alpha < 1.0 and counts.max() > 0
        assert rep["alpha_hat"] == alpha
        assert rep["mean_count"] == np.mean(counts)
        assert rep["count_distribution"] == {
            int(k): int(v) for k, v in zip(*np.unique(counts, return_counts=True))}

    def test_uniform_continuity_probe(self, setup):
        _, model, grid, norms, upper = setup
        rep = uniform_continuity_probe(model, 1.0, self.DELTA, 0.5, self.TRIALS,
                                       self.SEED, cells=16)
        j, k = np.nonzero(upper)
        spans = np.where(norms[:, j, k] >= self.DELTA, k - j, 17).min(axis=1)
        oracle = {band * grid.mesh: np.mean(spans <= band) for band in (16, 8, 4, 2, 1)}
        assert len(set(oracle.values())) >= 3          # a curve, not a constant
        assert rep["probability_curve"] == oracle
