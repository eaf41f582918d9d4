"""Driver sampling tests: determinism, increment algebra, refinement coupling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats as sps

from liemult import additive
from liemult import (DiscreteJumps, FixedAtomJumps, LevyModel, LpSpace, ParameterError,
                     PiecewiseConstantRate, SubspaceBallJumps, TimeGrid, UniformBallJumps,
                     UnipotentGroup, driver_increments, sample_additive, substream)
from liemult.config import build_context, default_config
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
        np.testing.assert_allclose(path.increments.sum(axis=0), heis2.embed([1.0, 0.0]),
                                   atol=1e-15)

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


def reference_increments(model, grid, seed, stream):
    """Slow oracle: every stream drawn, the Brownian one too, and jumps added one by one."""
    lefts, rights = grid.points[:-1], grid.points[1:]
    mass = model.rate_integral(lefts, rights)
    gauss = substream(seed, *stream, "gauss").standard_normal((grid.n_cells, model.space.dim))
    inc = mass[:, None] * model.drift + np.sqrt(mass[:, None] * model.diffusion**2) * gauss
    if model.jump_intensity == 0:
        return inc
    counts = substream(seed, *stream, "jump-counts").poisson(model.jump_intensity * mass)
    cells = np.repeat(np.arange(grid.n_cells), counts)
    rng = substream(seed, *stream, "jump-times")
    if model.scale is None:
        times = lefts[cells] + rng.uniform(size=cells.size) * (rights - lefts)[cells]
    else:
        times = model.scale.sample_times(rng, lefts[cells], rights[cells])
    vectors = model.jump_law.sample(substream(seed, *stream, "jump-vectors"), model.space,
                                    cells.size)
    order = np.argsort(times, kind="stable")
    for cell, vector in zip(grid.cell_of(times[order]), vectors[order]):
        inc[cell] += vector
    return inc


def _oracle_models(heis2):
    uni4 = UnipotentGroup(4)
    return {
        "cp_uniform_ball": LevyModel(space=heis2, jump_intensity=2.0,
                                     jump_law=UniformBallJumps(0.4)),
        "cp_rate_scaled": LevyModel(space=heis2, jump_intensity=2.0,
                                    jump_law=UniformBallJumps(0.4),
                                    scale=PiecewiseConstantRate(np.array([0.0, 2.5]),
                                                                np.array([0.1, 6.0]))),
        "brownian": LevyModel(space=heis2, diffusion=0.3),
        "partial_diffusion_atom": LevyModel(space=heis2, diffusion=[0.1, 0.1, 0.0, 0.0, 0.0],
                                            jump_intensity=3.0,
                                            jump_law=FixedAtomJumps(heis2.embed([0.2, 0.0]))),
        "drift": LevyModel(space=heis2, drift=heis2.embed([0.4, 0.3], c=0.1), diffusion=0.2,
                           jump_intensity=1.0, jump_law=UniformBallJumps(0.5)),
        "subspace": LevyModel(space=heis2, jump_intensity=4.0,
                              jump_law=SubspaceBallJumps(0.3, [0, 2, 4])),
        "discrete": LevyModel(space=heis2, diffusion=0.1, jump_intensity=4.0,
                              jump_law=DiscreteJumps([heis2.embed([1.0, 0.0]),
                                                      heis2.embed(c=2.0)], [0.25, 0.75])),
        "unipotent": LevyModel(space=uni4, diffusion=0.05, jump_intensity=2.0,
                               jump_law=UniformBallJumps(0.1)),
        "lp_space": LevyModel(space=LpSpace(3, 3.0), drift=0.2, diffusion=[0.0, 0.2, 0.0],
                              jump_intensity=3.0, jump_law=UniformBallJumps(0.4)),
    }


class TestDriverIncrements:
    @pytest.mark.parametrize("trials", [1, 3, 65])
    def test_equals_one_path_sampler(self, heis2, trials):
        # oracle: the batched generator, the one-path sampler and a slow sampler that
        # draws every stream agree bit for bit, trial by trial
        grid = TimeGrid.uniform(5.0, 24)
        for name, model in _oracle_models(heis2).items():
            batched = np.stack(list(driver_increments(model, grid, 3, trials)))
            single = np.stack([sample_additive(model, grid, 3, stream=(t,)).increments
                               for t in range(trials)])
            assert batched.shape == (trials, grid.n_cells, model.space.dim), name
            assert np.array_equal(batched, single), name
            for t in (0, trials - 1):
                assert np.array_equal(single[t], reference_increments(model, grid, 3, (t,))), name

    def test_no_gauss_stream_without_diffusion(self, heis2, monkeypatch):
        drawn = []
        monkeypatch.setattr(additive, "substream",
                            lambda seed, *path: drawn.append(path[-1]) or substream(seed, *path))
        model = _oracle_models(heis2)["cp_uniform_ball"]
        path = sample_additive(model, TimeGrid.uniform(1.0, 16), 5)
        assert "gauss" not in drawn and "jump-counts" in drawn
        assert np.array_equal(path.gauss_part, np.zeros((16, heis2.dim)))
        assert not np.signbit(path.gauss_part).any()

    @pytest.mark.parametrize("name, grid, digest", [
        ("cp_poisson", ("poisson",),
         "020a32c1735f259257f98706542c2a5cfca09ee6aba660284c4f87e2e3a44ab3"),
        ("cp_nonstat", ("poisson",),
         "01b77a04870973ef853a40037f383b14ae0fe6803ae7eef0433b993d513f7ea4"),
        ("tail_model", (1.0, 64),
         "e237c248808ac7f255fa9a6913d1b2053cfa51f799e8f34ac2e20e03ced569d3"),
        ("block_zero_z", ("g16",),
         "a1a4f5721c1c4610af7f71078f3a68c330536d679803b0e0507ee8dc10c5dfca"),
        ("moment_model", (1.0, 64),
         "5b34a515f09865eda8c332adef173b9f9029e20773ab8649b9e7e3d07cf6a750"),
    ])
    def test_default_models_pinned(self, name, grid, digest):
        # sha256 of increments and jump times of streams (0,), (1,), (2,) at seed 7,
        # recorded when every model still drew the Brownian stream
        ctx = build_context(default_config())
        grid = ctx["grids"][grid[0]] if len(grid) == 1 else TimeGrid.uniform(*grid)
        h = hashlib.sha256()
        for t in range(3):
            path = sample_additive(ctx["models"][name], grid, 7, stream=(t,))
            h.update(path.increments.tobytes())
            h.update(path.jump_times.tobytes())
        assert h.hexdigest() == digest


class TestRefinement:
    def test_coarse_sum_recovers_increments(self, jump_model, grid):
        path = sample_additive(jump_model, grid, seed=9)
        fine = path.refine(seed=1)
        coarse = fine.increments[0::2] + fine.increments[1::2]
        np.testing.assert_allclose(coarse, path.increments, atol=1e-14)

    def test_diffusion_free_refinement_pinned(self, heis2):
        # recorded when refine still drew the bridge noise, whose spread is 0 here
        model = LevyModel(space=heis2, drift=heis2.embed([0.4, -0.2], c=0.1),
                          jump_intensity=6.0, jump_law=UniformBallJumps(0.5))
        fine = sample_additive(model, TimeGrid.uniform(1.0, 16), seed=9).refine(seed=1)
        h = hashlib.sha256(fine.increments.tobytes())
        h.update(fine.jump_times.tobytes())
        assert h.hexdigest() == "9263ec83422a90778be6239ce360a672e34136400eaf7f65008dfbeddb69b362"
        assert not fine.gauss_part.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_diffusion_free_coarse_sums_exact(self, heis2, seed):
        model = LevyModel(space=heis2, jump_intensity=6.0, jump_law=UniformBallJumps(0.5))
        path = sample_additive(model, TimeGrid.uniform(1.0, 16), seed)
        fine = path.refine(seed=1)
        assert path.jump_times.size
        assert np.array_equal(fine.increments[0::2] + fine.increments[1::2], path.increments)
        assert np.array_equal(fine.jump_times, path.jump_times)

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
            first[trial] = path.increments[:4].sum(axis=0)
            second[trial] = path.increments[4:].sum(axis=0)
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
            early.append(path.increments[0:2, 0].sum())
            late.append(path.increments[5:7, 0].sum())
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

