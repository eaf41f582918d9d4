"""Hitting times, the detector, the Poisson battery, and the restart probe."""

import dataclasses

import numpy as np
import pytest

from liemult import (DiscreteJumps, JumpSetSpec, LevyModel, ParameterError,
                     PiecewiseConstantRate, TimeGrid, UniformBallJumps, detector_fidelity,
                     hitting_cells, poisson_battery, product_exponential, restart_probe,
                     sample_additive)


def planted_path(heis, grid, times, vectors):
    base = sample_additive(LevyModel(space=heis), grid, seed=0)
    driver = dataclasses.replace(base, jump_times=np.asarray(times, dtype=float),
                                 jump_vectors=np.asarray(vectors, dtype=float))
    return driver, product_exponential(driver)


def hitting_times(path, spec):
    """Right endpoints of the detected cells, the cadlag hitting times."""
    return path.grid.points[hitting_cells(path, spec) + 1]


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
        assert rep["scored_true_jumps"] == 0 and rep["hitting_times"] == []
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
        precisions, scored, flagged = [], 0, 0
        for trial in range(30):
            driver = sample_additive(model, grid, 4, stream=(trial,))
            cells = grid.cell_of(driver.jump_times)
            big_cells = cells[driver.jump_vectors[:, 0] > 0.5]
            scored += big_cells.size
            flagged += np.unique(cells).size
            if cells.size:
                precisions.append(np.unique(big_cells).size / np.unique(cells).size)
        assert rep["scored_true_jumps"] == scored > 0
        assert len(rep["hitting_times"]) == flagged
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
