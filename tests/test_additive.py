"""Driver sampling tests: determinism, increment algebra, refinement coupling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats as sps

from liemult import (DiscreteJumps, FixedAtomJumps, InvalidInputError, LevyModel, ParameterError,
                     PiecewiseConstantRate, SubspaceBallJumps, TimeGrid,
                     UniformBallJumps, sample_additive)
from liemult.stats import batched_ks_two_sample


@pytest.fixture()
def grid():
    return TimeGrid.uniform(1.0, 16)


@pytest.fixture()
def jump_model(heis2):
    return LevyModel(space=heis2, drift=heis2.embed([0.4, 0.0], c=0.1),
                     diffusion=0.3, jump_intensity=2.0,
                     jump_law=UniformBallJumps(0.5))


class TestTimeGrid:
    def test_uniform_properties(self):
        grid = TimeGrid.uniform(2.0, 8)
        assert grid.n_cells == 8
        assert grid.T == 2.0
        assert grid.mesh == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ParameterError):
            TimeGrid(np.array([0.1, 0.5]))

    def test_refined_interleaves_midpoints(self):
        grid = TimeGrid.uniform(1.0, 4)
        fine = grid.refined()
        assert fine.n_cells == 8
        np.testing.assert_allclose(fine.points[0::2], grid.points)

    def test_cell_of_right_closed(self):
        grid = TimeGrid.uniform(1.0, 4)
        assert grid.cell_of(0.25) == 0          # right endpoint belongs to its cell
        assert grid.cell_of(0.30) == 1
        assert grid.cell_of(1.0) == 3


class TestSampling:
    def test_drift_only_total(self, heis2):
        model = LevyModel(space=heis2, drift=heis2.embed([1.0, 0.0]))
        path = sample_additive(model, TimeGrid.uniform(1.0, 7), seed=0)
        np.testing.assert_allclose(path.total(), heis2.embed([1.0, 0.0]), atol=1e-15)

    def test_same_seed_bit_identical(self, jump_model, grid):
        a = sample_additive(jump_model, grid, seed=42)
        b = sample_additive(jump_model, grid, seed=42)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_vectors, b.jump_vectors)
        c = sample_additive(jump_model, grid, seed=43)
        assert not np.array_equal(a.increments, c.increments)

    def test_poisson_jump_count_mean(self, heis2, grid):
        # oracle: the count over [0, 1] at intensity 2 is Poisson(2)
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=FixedAtomJumps(heis2.embed(c=1.0)))
        counts = [sample_additive(model, grid, 5, stream=(t,)).jump_times.size
                  for t in range(10**4)]
        assert np.mean(counts) == pytest.approx(2.0, abs=3 * np.sqrt(2.0 / 10**4))

    def test_increment_prefix_exactness(self, jump_model, grid):
        path = sample_additive(jump_model, grid, seed=3)
        np.testing.assert_array_equal(path.increment(4, 4), np.zeros(5))
        lhs = path.increment(0, 7) + path.increment(7, 12)
        np.testing.assert_array_equal(lhs, path.increment(0, 12))
        with pytest.raises(InvalidInputError):
            path.increment(5, 3)

    def test_jump_law_validation(self, heis2):
        with pytest.raises(ParameterError):
            LevyModel(space=heis2, jump_intensity=1.0)      # law required
        with pytest.raises(ParameterError):
            LevyModel(space=heis2, jump_intensity=-1.0)
        with pytest.raises(ParameterError):
            # support sticks out of the declared bound
            LevyModel(space=heis2, jump_intensity=1.0,
                      jump_law=UniformBallJumps(0.5), bound_delta=0.25)

    def test_discrete_law_probabilities(self, heis2, grid):
        with pytest.raises(ParameterError):
            DiscreteJumps(np.zeros((2, 5)), [0.5, 0.6])
        law = DiscreteJumps([heis2.embed([1.0, 0.0]), heis2.embed(c=2.0)], [0.25, 0.75])
        model = LevyModel(space=heis2, jump_intensity=3.0, jump_law=law)
        path = sample_additive(model, grid, seed=1)
        assert path.jump_vectors.shape[1] == 5

    @pytest.mark.parametrize("law", [
        FixedAtomJumps([0.1, 0.2]),
        SubspaceBallJumps(0.3, [0, 7]),
        DiscreteJumps([[0.1, 0.2]], [1.0]),
    ])
    def test_law_dimension_checked_when_model_is_built(self, heis2, law):
        with pytest.raises(ParameterError, match="dimension"):
            LevyModel(space=heis2, jump_intensity=1.0, jump_law=law)

    def test_subspace_law_stays_in_subspace(self, heis2):
        law = SubspaceBallJumps(0.3, np.arange(2))
        rng = np.random.default_rng(0)
        draws = law.sample(rng, heis2, 200)
        assert np.all(draws[:, 2:] == 0.0)
        assert np.max(heis2.norm(draws)) < 0.3

    def test_subspace_law_draws_pinned(self, heis2):
        # the rejection sampler shared with sample_norm_ball must keep this
        # law's stream: these are the draws of its former private loop
        law = SubspaceBallJumps(0.3, np.array([0, 2, 4]))
        draws = law.sample(np.random.default_rng(7), heis2, 2)
        np.testing.assert_array_equal(draws, [
            [-0.019239028293767557, 0.0, -0.11818054390841187, 0.0, -0.132944632739536],
            [-0.14707824740752523, 0.0, -0.03295421647041208, 0.0, 0.0027289553747719686],
        ])


class TestRefinement:
    def test_coarse_sum_recovers_increments(self, jump_model, grid):
        path = sample_additive(jump_model, grid, seed=9)
        fine = path.refine(seed=1)
        coarse = fine.increments[0::2] + fine.increments[1::2]
        np.testing.assert_allclose(coarse, path.increments, atol=1e-14)

    def test_drift_splits_evenly(self, heis2):
        model = LevyModel(space=heis2, drift=heis2.embed([1.0, 0.0]))
        path = sample_additive(model, TimeGrid.uniform(1.0, 4), seed=0)
        fine = path.refine(seed=0)
        np.testing.assert_allclose(fine.increments,
                                   np.tile(heis2.embed([0.125, 0.0]), (8, 1)), atol=1e-15)

    def test_jump_lands_in_correct_subcell(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=0.0)
        base = sample_additive(model, TimeGrid.uniform(1.0, 4), seed=0)
        planted = dataclasses.replace(
            base, jump_times=np.array([0.3]),
            jump_vectors=heis2.embed([1.0, 0.0])[None, :])
        assert planted.grid.cell_of(0.3) == 1            # (0.25, 0.5]
        fine = planted.refine(seed=0)
        assert fine.grid.cell_of(0.3) == 2               # (0.25, 0.375]
        np.testing.assert_array_equal(fine.increments[2], heis2.embed([1.0, 0.0]))

    def test_gaussian_bridge_preserves_marginal_law(self, heis2):
        # refined endpoint variance must match the model: KS against N(0, sigma)
        model = LevyModel(space=heis2, diffusion=1.0)
        vals = []
        for trial in range(400):
            path = sample_additive(model, TimeGrid.uniform(1.0, 2), 7, stream=(trial,))
            fine = path.refine(seed=11, stream=(trial,))
            vals.append(fine.increments[0, 0])
        p = sps.kstest(np.asarray(vals) / 0.5, "norm").pvalue
        assert p > 0.01


class TestDistributionalProperties:
    def test_disjoint_increments_uncorrelated(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.5, jump_intensity=1.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(1.0, 8)
        n = 10**4
        first = np.empty((n, heis2.dim))
        second = np.empty((n, heis2.dim))
        for trial in range(n):
            path = sample_additive(model, grid, 13, stream=(trial,))
            first[trial] = path.increment(0, 4)
            second[trial] = path.increment(4, 8)
        for k in range(heis2.dim):
            corr = np.corrcoef(first[:, k], second[:, k])[0, 1]
            assert abs(corr) <= 3.0 / np.sqrt(n)

    def test_stationary_increments_match_on_equal_spans(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.5, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(1.0, 8)
        early, late = [], []
        for trial in range(2000):
            path = sample_additive(model, grid, 17, stream=(trial,))
            early.append(path.increment(0, 2)[0])
            late.append(path.increment(5, 7)[0])
        result = batched_ks_two_sample(np.asarray(early), np.asarray(late))
        assert result["aggregated_pvalue"] > 0.01

    def test_nonstationary_scale_shifts_mass(self, heis2):
        scale = PiecewiseConstantRate(np.array([0.0, 0.5]), np.array([0.0, 4.0]))
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4), scale=scale)
        grid = TimeGrid.uniform(1.0, 8)
        times = np.concatenate([
            sample_additive(model, grid, 23, stream=(t,)).jump_times for t in range(200)
        ])
        assert times.size > 0
        assert np.min(times) >= 0.5            # no mass on the silent piece

    @pytest.mark.parametrize("breaks, rates, intensity, T, cells, digest", [
        # cp_nonstat of the default battery on its 4000-cell grid
        ([0.0, 2.5], [0.1, 6.0], 2.0, 5.0, 4000,
         "9db49b7855fa8752eeb528ee5e72543b07ab3569096ad07baa4aa968cf37820b"),
        # a rate with a zero piece inside one cell
        ([0.0, 0.3, 0.31, 0.7], [2.0, 0.0, 7.5, 0.4], 20.0, 1.0, 37,
         "f185c1bb70bad7824893c2c5cfb2f67bfcd61bec1417d6b5fdacf36d2e2e81a3"),
    ])
    def test_rate_scaled_paths_pinned(self, heis2, breaks, rates, intensity, T, cells, digest):
        # sha256 of jump times and increments of seeds 0-19, recorded with the
        # former cell-by-cell jump-time loop
        model = LevyModel(space=heis2, jump_intensity=intensity,
                          jump_law=UniformBallJumps(0.4),
                          scale=PiecewiseConstantRate(np.array(breaks), np.array(rates)))
        grid = TimeGrid.uniform(T, cells)
        h = hashlib.sha256()
        for seed in range(20):
            path = sample_additive(model, grid, seed)
            h.update(path.jump_times.tobytes())
            h.update(path.increments.tobytes())
        assert h.hexdigest() == digest

    def test_rate_scaled_first_jump_times_pinned(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=2.0, jump_law=UniformBallJumps(0.4),
                          scale=PiecewiseConstantRate(np.array([0.0, 2.5]),
                                                      np.array([0.1, 6.0])))
        path = sample_additive(model, TimeGrid.uniform(5.0, 4000), 0)
        np.testing.assert_array_equal(path.jump_times[:3],
                                      [2.549215313804038, 2.6417838450446003,
                                       2.6843531110951186])

    def test_rate_integral(self):
        scale = PiecewiseConstantRate(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 0.5]))
        assert scale.integral(0.0, 2.5) == pytest.approx(1.0 + 3.0 + 0.25)
        assert scale.integral(0.5, 1.5) == pytest.approx(0.5 + 1.5)


class TestCsvRows:
    def test_rows_cover_cells_and_flag_jumps(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=5.0,
                          jump_law=UniformBallJumps(0.3))
        grid = TimeGrid.uniform(1.0, 4)
        path = sample_additive(model, grid, seed=2)
        rows = list(path.csv_rows())
        assert len(rows) == 4
        flagged = [row[-1] for row in rows]
        cells_with_jumps = set(int(c) for c in grid.cell_of(path.jump_times))
        assert all((k in cells_with_jumps) == bool(f) for k, f in enumerate(flagged))
