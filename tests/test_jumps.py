"""Hitting times, the detector, the Poisson battery, and the restart probe."""

import dataclasses

import numpy as np
import pytest

from liemult import (DiscreteJumps, JumpSetSpec, LevyModel, ParameterError,
                     PiecewiseConstantRate, TimeGrid, UniformBallJumps, detector_fidelity,
                     poisson_battery, product_exponential, restart_probe, sample_additive,
                     substream)


def planted_path(heis, grid, times, vectors):
    base = sample_additive(LevyModel(space=heis), grid, seed=0)
    driver = dataclasses.replace(base, jump_times=np.asarray(times, dtype=float),
                                 jump_vectors=np.asarray(vectors, dtype=float))
    return driver, product_exponential(driver)


def rebuilt_antiderivative(scale, t):
    """The rate's antiderivative with its table rebuilt on each call."""
    cum = np.concatenate([[0.0], np.cumsum(scale.rates[:-1] * np.diff(scale.breaks))])
    idx = np.maximum(np.searchsorted(scale.breaks, t, side="right") - 1, 0)
    return cum[idx] + scale.rates[idx] * (t - scale.breaks[idx])


def rebuilt_sample_times(scale, rng, a, b):
    """sample_times on rebuilt tables, inverting through the antiderivative at the breaks."""
    total = rebuilt_antiderivative(scale, b) - rebuilt_antiderivative(scale, a)
    targets = rebuilt_antiderivative(scale, a) + rng.uniform(0.0, total)
    cum_at_breaks = rebuilt_antiderivative(scale, scale.breaks)
    idx = np.maximum(np.searchsorted(cum_at_breaks, targets, side="right") - 1, 0)
    rate = scale.rates[idx]
    out = scale.breaks[idx] + np.where(rate > 0, (targets - cum_at_breaks[idx])
                                       / np.where(rate > 0, rate, 1.0), 0.0)
    return np.clip(out, a, b)


def hitting_times(path, spec):
    """Right endpoints of the detected cells, the cadlag hitting times."""
    return path.grid.points[spec.hits(path.group, path.cell_increments) + 1]


class TestJumpSetSpec:
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # a NaN or infinite threshold would construct, and then no cell would ever hit
        with pytest.raises(ParameterError, match="positive and finite"):
            JumpSetSpec(epsilon)


class TestHittingTimes:
    def test_zero_driver_empty(self, heis2):
        _, path = planted_path(heis2, TimeGrid.uniform(1.0, 10), [], np.empty((0, 5)))
        assert hitting_times(path, JumpSetSpec(0.5)).size == 0

    def test_planted_jumps_report_cell_right_endpoints(self, heis2):
        grid = TimeGrid.uniform(1.0, 10)
        vec = heis2.embed([1.0, 0.0])
        _, path = planted_path(heis2, grid, [0.2, 0.5], [vec, vec])
        np.testing.assert_allclose(hitting_times(path, JumpSetSpec(0.5)), [0.2, 0.5])

    def test_threshold_above_everything_is_empty(self, heis2):
        grid = TimeGrid.uniform(1.0, 10)
        vec = heis2.embed([1.0, 0.0])
        _, path = planted_path(heis2, grid, [0.2], [vec])
        assert hitting_times(path, JumpSetSpec(2.0)).size == 0

    def test_taus_strictly_increasing(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=5.0,
                          jump_law=DiscreteJumps([heis2.embed([1.0, 0.0])], [1.0]))
        path = product_exponential(sample_additive(model, TimeGrid.uniform(1.0, 64), 3))
        taus = hitting_times(path, JumpSetSpec(0.5))
        assert np.all(np.diff(taus) > 0)


class TestDetectorFidelity:
    def test_pure_jump_driver_perfect_scores(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=3.0,
                          jump_law=DiscreteJumps([heis2.embed([0.6, 0.0])], [1.0]))
        rep = detector_fidelity(model, TimeGrid.uniform(1.0, 512), JumpSetSpec(0.25), 20, 7)
        assert rep["scored_true_jumps"] > 0
        assert rep["precision"] == 1.0 and rep["recall"] == 1.0
        assert "notes" not in rep

    def test_threshold_above_jumps_inconclusive(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=3.0,
                          jump_law=DiscreteJumps([heis2.embed([0.2, 0.0])], [1.0]))
        rep = detector_fidelity(model, TimeGrid.uniform(1.0, 32), JumpSetSpec(0.5), 10, 0)
        assert rep["recall"] is None and rep["precision"] is None
        assert rep["scored_true_jumps"] == 0
        assert rep["notes"] == {"inconclusive": "no scored jumps or no detections"}

    def test_straddling_jumps_score_only_large_subset(self, heis2):
        small = heis2.embed([0.3, 0.0])       # above epsilon, below 2 epsilon
        big = heis2.embed([0.8, 0.0])
        model = LevyModel(space=heis2, jump_intensity=4.0,
                          jump_law=DiscreteJumps(np.stack([small, big]), np.array([0.5, 0.5])))
        grid = TimeGrid.uniform(1.0, 64)
        rep = detector_fidelity(model, grid, JumpSetSpec(0.25), 30, 4)
        # oracle from the recorded drivers: without diffusion the detector
        # flags exactly the cells holding a jump, and only big jumps are scored
        precisions, scored = [], 0
        for trial in range(30):
            driver = sample_additive(model, grid, 4, stream=(trial,))
            cells = grid.cell_of(driver.jump_times)
            detected = hitting_times(product_exponential(driver), JumpSetSpec(0.25))
            np.testing.assert_array_equal(detected, grid.points[np.unique(cells) + 1])
            big_cells = cells[driver.jump_vectors[:, 0] > 0.5]
            scored += big_cells.size
            if cells.size:
                precisions.append(np.unique(big_cells).size / np.unique(cells).size)
        assert rep["scored_true_jumps"] == scored > 0
        assert rep["recall"] == 1.0
        assert rep["precision"] == pytest.approx(np.mean(precisions))
        assert rep["precision"] < 1.0


class TestPoissonBattery:
    def test_calibrated_compound_poisson_passes(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(5.0, 4000)
        # the +-0.1 dispersion band needs >= ~1500 trials of probe power
        rep = poisson_battery(model, grid, JumpSetSpec(0.05), 1500, 3)
        assert rep["pass"]
        se = np.sqrt(2.0 / (5.0 * 1500))
        assert abs(rep["lambda_hat"] - 2.0) <= 3 * se
        assert abs(rep["dispersion"] - 1.0) <= 0.1
        assert rep["ks"]["aggregated_pvalue"] > 0.01

    def test_underpowered_marker(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=0.05,
                          jump_law=DiscreteJumps([heis2.embed([1.0, 0.0])], [1.0]))
        rep = poisson_battery(model, TimeGrid.uniform(1.0, 64), JumpSetSpec(0.5), 50, 0)
        assert rep["pass"] is None
        assert "underpowered" in rep["notes"]

    def test_small_diffusion_does_not_change_detection(self, heis2):
        # coupled comparison: adding sub-threshold noise keeps the same counts
        jumpy = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=DiscreteJumps([heis2.embed([0.8, 0.0])], [1.0]))
        noisy = LevyModel(space=heis2, diffusion=0.02, jump_intensity=2.0,
                          jump_law=DiscreteJumps([heis2.embed([0.8, 0.0])], [1.0]))
        grid = TimeGrid.uniform(5.0, 2000)
        spec = JumpSetSpec(0.4)
        for trial in range(40):
            a = product_exponential(sample_additive(jumpy, grid, 11, stream=(trial,)))
            b = product_exponential(sample_additive(noisy, grid, 11, stream=(trial,)))
            np.testing.assert_array_equal(hitting_times(a, spec), hitting_times(b, spec))

    def test_nonstationary_model_rejected_upfront(self, heis2):
        scale = PiecewiseConstantRate(np.array([0.0]), np.array([2.0]))
        model = LevyModel(space=heis2, jump_intensity=1.0,
                          jump_law=UniformBallJumps(0.4), scale=scale)
        with pytest.raises(ParameterError):
            poisson_battery(model, TimeGrid.uniform(1.0, 16), JumpSetSpec(0.1), 10, 0)


class TestPiecewiseConstantRate:
    @pytest.mark.parametrize("breaks, rates", [
        ([0.0, 2.5], [0.1, 6.0]),               # cp_nonstat of the default battery
        ([0.0, 0.3, 0.7], [0.0, 2.0, 0.0]),     # zero pieces
        ([0.0], [2.0]),
        (np.cumsum(np.r_[0.0, substream(3, "breaks").uniform(0.01, 0.5, 40)]),
         substream(3, "rates").uniform(0.0, 5.0, 41)),
    ], ids=["cp-nonstat", "zero-pieces", "one-piece", "many-pieces"])
    def test_table_built_once_keeps_the_bits(self, breaks, rates):
        # the table is built in the constructor; times and integrals keep the bits
        # of the antiderivative rebuilt on every call
        scale = PiecewiseConstantRate(np.asarray(breaks), np.asarray(rates))
        grid = TimeGrid.uniform(12.0, 3000)
        a, b = grid.points[:-1], grid.points[1:]
        assert scale.integral(a, b).tobytes() == (rebuilt_antiderivative(scale, b)
                                                  - rebuilt_antiderivative(scale, a)).tobytes()
        got = scale.sample_times(substream(4, "times"), a, b)
        want = rebuilt_sample_times(scale, substream(4, "times"), a, b)
        assert got.tobytes() == want.tobytes()


class TestRestartProbe:
    def test_stationary_driver_matches(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(5.0, 2000)
        rep = restart_probe(model, grid, JumpSetSpec(0.05), 0.25, 800, 5)
        assert rep["pass"] is True
        assert rep["ks"]["aggregated_pvalue"] > 0.01

    def test_nonstationary_negative_control_rejected(self, heis2):
        scale = PiecewiseConstantRate(np.array([0.0, 2.5]), np.array([0.1, 6.0]))
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4), scale=scale)
        grid = TimeGrid.uniform(5.0, 2000)
        rep = restart_probe(model, grid, JumpSetSpec(0.05), 0.25, 800, 5)
        assert rep["pass"] is False

    def test_zero_driver_underpowered(self, heis2):
        model = LevyModel(space=heis2)
        grid = TimeGrid.uniform(1.0, 64)
        rep = restart_probe(model, grid, JumpSetSpec(0.5), 0.25, 100, 0)
        assert rep["pass"] is None
        assert "underpowered" in rep["notes"]

    def test_h_must_align_with_grid(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=1.0,
                          jump_law=UniformBallJumps(0.4))
        with pytest.raises(ParameterError):
            restart_probe(model, TimeGrid.uniform(1.0, 7), JumpSetSpec(0.1), 0.25, 10, 0)

    @pytest.mark.parametrize("group_name", ["heis2", "heis3p", "uni3", "uni4"])
    def test_fixed_lag_increment_from_index_zero_is_the_prefix_product(self, request, rng,
                                                                       group_name):
        # the probe reads both samples as inv(g_k) g_(k+steps); at k = 0 this must be
        # the prefix product g_steps itself, bit for bit
        group = request.getfixturevalue(group_name)
        for scale in (1e-3, 0.1, 1.0, 3.0):
            for steps in (1, 2, 7, 33):
                cells = group.exp(scale * rng.standard_normal((steps, group.dim)))
                prefix = group.prefix_products(cells)
                direct = group.chart_norm(prefix[steps])
                via_pair = group.chart_norm(group.pair_increment(prefix, 0, steps))
                assert direct.tobytes() == via_pair.tobytes()
