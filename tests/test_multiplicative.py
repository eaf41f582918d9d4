"""Multiplicative path construction, cocycle verification, product limits."""

import dataclasses
import inspect

import numpy as np
import pytest

from conftest import block_models
from liemult import (GridMismatchError, InvalidInputError, JumpSetSpec, LevyModel, LpSpace,
                     ParameterError, TimeGrid, UniformBallJumps, convergence_study,
                     detector_fidelity, driver_paths, exp_moment_estimate, heisenberg_exact,
                     mc_expectation_bound, mc_largest_step, mc_maximum_oscillation,
                     minimal_jump_power, oscillation_axioms_test, poisson_battery,
                     product_exponential, restart_probe, right_limit_defects, sample_additive,
                     tail_decay_fit, uniform_continuity_probe, verify_multiplicative)
from liemult.experiments import run_experiment
from liemult.multiplicative import (TRIAL_CHUNK, MultiplicativePath, batch_prefixes,
                                   map_trial_chunks)


def double_sum_area(x, y, j, k):
    """Antisymmetrized double sum over cell pairs a < b of the window (t_j, t_k].

    Oracle for twice the last exact-construction coordinate, with no same-cell
    term (left-point rule): sum over a < b of <dx_a, dy_b> - <dx_b, dy_a>.
    """
    pairs = x.increments[j:k] @ y.increments[j:k].T       # [a, b] = <dx_a, dy_b>
    return float(np.sum(np.triu(pairs, k=1)) - np.sum(np.tril(pairs, k=-1)))


def planted_block_path(space, grid, times, vectors):
    base = sample_additive(LevyModel(space=space), grid, seed=0)
    return dataclasses.replace(base, jump_times=np.asarray(times, dtype=float),
                               jump_vectors=np.asarray(vectors, dtype=float))


class TestProductExponential:
    def test_zero_driver_constant_identity(self, heis2):
        model = LevyModel(space=heis2)
        path = product_exponential(sample_additive(model, TimeGrid.uniform(1.0, 8), 0))
        np.testing.assert_array_equal(path.prefix, np.zeros((9, 5)))

    def test_single_cell(self, heis2):
        grid = TimeGrid.uniform(1.0, 1)
        vec = heis2.embed([0.3, -0.2], [0.1, 0.0], 0.5)
        path = MultiplicativePath.from_increments(heis2, grid, heis2.exp(vec[None, :]))
        np.testing.assert_array_equal(path.prefix[-1], vec)

    def test_two_cell_commutator_pickup(self, heis2):
        # bch oracle: exp(x1) exp(y1) = exp(x1 + y1 + [x1, y1]/2)
        grid = TimeGrid.uniform(1.0, 2)
        inc = np.stack([heis2.embed([1.0, 0.0]), heis2.embed(b=[1.0, 0.0])])
        path = MultiplicativePath.from_increments(heis2, grid, heis2.exp(inc))
        oracle = heis2.bch(inc[0], inc[1])
        np.testing.assert_allclose(path.prefix[-1], oracle, atol=1e-15)
        np.testing.assert_allclose(path.prefix[-1], [1.0, 0.0, 1.0, 0.0, 0.5])

    def test_grid_product_equals_global_bch_sum(self, heis2, rng):
        # independent oracle: exp(sum dX + half the pairwise bracket double sum)
        grid = TimeGrid.uniform(1.0, 12)
        inc = rng.standard_normal((12, 5)) * 0.3
        path = MultiplicativePath.from_increments(heis2, grid, heis2.exp(inc))
        total = inc.sum(axis=0)
        cross = np.zeros(5)
        for a in range(12):
            for b in range(a + 1, 12):
                cross += heis2.bracket(inc[a], inc[b])
        oracle = heis2.exp(total + 0.5 * cross)
        assert np.max(heis2.norm(path.prefix[-1] - oracle)) <= 1e-12

    def test_unipotent_product_path(self, uni4, rng):
        grid = TimeGrid.uniform(1.0, 6)
        inc = rng.standard_normal((6, 6)) * 0.2
        path = MultiplicativePath.from_increments(uni4, grid, uni4.exp(inc))
        rep = verify_multiplicative(path, samples=300, seed=0)
        assert rep["pass"]

    def test_inversion_duality(self, heis2, rng):
        # reversed-order path from inverted increments equals the pathwise inverse
        grid = TimeGrid.uniform(1.0, 10)
        cells = heis2.exp(rng.standard_normal((10, 5)) * 0.4)
        path = MultiplicativePath.from_increments(heis2, grid, cells)
        reversed_path = MultiplicativePath.from_increments(
            heis2, grid, heis2.inv(cells[::-1]))
        for k in range(11):
            np.testing.assert_allclose(reversed_path.prefix[k],
                                       heis2.inv(path.value(10 - k, 10)), atol=1e-12)


class TestHeisenbergExact:
    def test_zero_y_gives_pure_z_increment(self, heis2):
        grid = TimeGrid.uniform(1.0, 6)
        x = planted_block_path(heis2.block_spaces["x"], grid, [0.3], [[1.0, 0.0]])
        y = sample_additive(LevyModel(space=heis2.block_spaces["y"]), grid, 0)
        z = dataclasses.replace(sample_additive(LevyModel(space=heis2.block_spaces["z"]), grid, 0),
                                jump_times=np.array([0.5]), jump_vectors=np.array([[2.0]]))
        path = heisenberg_exact(x, y, z, heis2)
        assert path.prefix[-1][-1] == pytest.approx(2.0)

    def test_two_jump_area(self, heis2):
        # enumeration oracle: one (x, y) jump pair contributes area 1 over [0, 1]
        grid = TimeGrid.uniform(1.0, 10)
        x = planted_block_path(heis2.block_spaces["x"], grid, [0.3], [[1.0, 0.0]])
        y = planted_block_path(heis2.block_spaces["y"], grid, [0.7], [[1.0, 0.0]])
        z = sample_additive(LevyModel(space=heis2.block_spaces["z"]), grid, 0)
        assert double_sum_area(x, y, 0, 10) == pytest.approx(1.0)
        path = heisenberg_exact(x, y, z, heis2)
        assert path.prefix[-1][-1] == pytest.approx(0.5)

    def test_grid_mismatch_rejected(self, heis2):
        coarse, fine = TimeGrid.uniform(1.0, 4), TimeGrid.uniform(1.0, 8)
        x = sample_additive(LevyModel(space=heis2.block_spaces["x"]), coarse, 0)
        y = sample_additive(LevyModel(space=heis2.block_spaces["y"]), fine, 0)
        z = sample_additive(LevyModel(space=heis2.block_spaces["z"]), coarse, 0)
        with pytest.raises(GridMismatchError):
            heisenberg_exact(x, y, z, heis2)

    def test_block_path_on_another_block_space_rejected(self, heis3p):
        # at p = 3 the x and y blocks carry different norms, so a swap is an error
        grid = TimeGrid.uniform(1.0, 4)
        x, y, z = (sample_additive(m, grid, 0) for m in block_models(heis3p).values())
        with pytest.raises(InvalidInputError, match=r"^the x path is on LpSpace\(dim=3, p=1\.5\),"
                                                    r" not on block x = LpSpace\(dim=3, p=3\.0\)$"):
            heisenberg_exact(y, x, z, heis3p)
        with pytest.raises(InvalidInputError, match="the z path"):
            heisenberg_exact(x, y, x, heis3p)

    def test_direct_window_values_compose(self, heis2):
        # closed-form window values built straight from increments and the
        # running-sum area op must compose along triples
        grid = TimeGrid.uniform(1.0, 64)
        x = sample_additive(LevyModel(space=heis2.block_spaces["x"], diffusion=0.5), grid, 21)
        y = sample_additive(LevyModel(space=heis2.block_spaces["y"], diffusion=0.5), grid, 22)
        z = sample_additive(LevyModel(space=heis2.block_spaces["z"], diffusion=0.2), grid, 23)
        path = heisenberg_exact(x, y, z, heis2)

        def direct(j, k):
            return heis2.embed(x.increments[j:k].sum(axis=0), y.increments[j:k].sum(axis=0),
                               z.increments[j:k, 0].sum() + 0.5 * double_sum_area(x, y, j, k))

        for j, k, l in [(0, 32, 64), (5, 20, 59), (10, 10, 48)]:
            composed = heis2.mul(direct(j, k), direct(k, l))
            assert heis2.norm(composed - direct(j, l)) <= 1e-12
            assert heis2.norm(direct(j, k) - path.value(j, k)) <= 1e-12

    def test_matches_product_route_on_same_grid(self, heis2, reference_fold):
        grid = TimeGrid.uniform(1.0, 64)
        models = block_models(heis2, x={"diffusion": 0.5}, y={"diffusion": 0.5},
                              z={"diffusion": 0.2})
        x = sample_additive(models["x"], grid, 5)
        y = sample_additive(models["y"], grid, 6)
        z = sample_additive(models["z"], grid, 7)
        exact = heisenberg_exact(x, y, z, heis2)
        merged = heis2.embed(x.increments, y.increments, z.increments[:, 0])
        # independent oracle: the reference fold of the group law
        oracle = reference_fold(heis2, heis2.exp(merged))
        assert np.max(heis2.norm(exact.prefix - oracle)) <= 1e-12


class TestLevyArea:
    def test_proportional_paths_have_zero_area(self, heis2, rng):
        grid = TimeGrid.uniform(1.0, 16)
        x = sample_additive(LevyModel(space=heis2.block_spaces["x"], diffusion=0.6), grid, 3)
        y = dataclasses.replace(
            sample_additive(LevyModel(space=heis2.block_spaces["y"]), grid, 0),
            drift_part=2.5 * x.drift_part, gauss_part=2.5 * x.gauss_part)
        z = sample_additive(LevyModel(space=heis2.block_spaces["z"]), grid, 0)
        assert double_sum_area(x, y, 0, 16) == pytest.approx(0.0, abs=1e-14)
        assert heisenberg_exact(x, y, z, heis2).prefix[-1][-1] == pytest.approx(0.0, abs=1e-14)

    def test_refinement_cascade_order(self, heis2):
        # coupled-refinement oracle: area differences decay at order ~1/2
        mx = LevyModel(space=heis2.block_spaces["x"], diffusion=1.0)
        my = LevyModel(space=heis2.block_spaces["y"], diffusion=1.0)
        grid0 = TimeGrid.uniform(1.0, 8)
        diffs = np.zeros((4, 60))
        meshes = []
        for trial in range(60):
            x = sample_additive(mx, grid0, 11, stream=(trial, "x"))
            y = sample_additive(my, grid0, 11, stream=(trial, "y"))
            prev = double_sum_area(x, y, 0, x.grid.n_cells)
            for level in range(4):
                x = x.refine(3, stream=(trial, "x", level))
                y = y.refine(3, stream=(trial, "y", level))
                cur = double_sum_area(x, y, 0, x.grid.n_cells)
                diffs[level, trial] = cur - prev
                prev = cur
                if trial == 0:
                    meshes.append(x.grid.mesh)
        rms = np.sqrt(np.mean(diffs**2, axis=1))
        slope = np.polyfit(np.log(meshes), np.log(rms), 1)[0]
        assert 0.35 <= slope <= 0.65


class TestVerifyMultiplicative:
    def test_clean_paths_pass(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.4, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.5))
        path = product_exponential(sample_additive(model, TimeGrid.uniform(1.0, 64), 1))
        rep = verify_multiplicative(path, samples=1500, tol=1e-12, seed=4)
        assert rep["pass"] and rep["max_defect"] <= 1e-12

    def test_corrupted_cell_detected_with_triple(self, heis2):
        # the fault runner translates cell 30 under the cached prefix
        grid = TimeGrid.uniform(1.0, 64)
        ctx = {"group": heis2, "grids": {"g": grid},
               "models": {"m": LevyModel(space=heis2, diffusion=0.4)}}
        rep = run_experiment("cocycle-fault-injection", ctx,
                             {"model": "m", "grid": "g", "cell": 30, "triples": 1500}, 4)
        assert not rep["pass"] and rep["status"] == "pass"
        j, k, l = rep["argmax_triple"]
        assert j <= 30 < l          # the witnessing triple spans the corrupted cell

    def test_report_shape(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.1)
        path = product_exponential(sample_additive(model, TimeGrid.uniform(1.0, 8), 0))
        out = verify_multiplicative(path, samples=100, seed=0)
        assert set(out) == {"max_defect", "argmax_triple", "samples", "tol", "pass"}


def right_limit_oracle(model, grid, trials, refinements, probe_points, seed):
    """``right_limit_defects`` probe by probe: each level read at the smallest
    grid point >= t, trial t sampled on its own stream (seed, t)."""
    group = model.space
    probes = np.linspace(0.0, grid.T, probe_points + 2)[1:-1]
    out = np.empty((refinements, trials, probe_points))
    for trial in range(trials):
        driver = sample_additive(model, grid, seed, stream=(trial,))
        coarse = product_exponential(driver)
        for level in range(refinements):
            driver = driver.refine(seed, stream=(trial, "rl", level))
            fine = product_exponential(driver)
            for i, t in enumerate(probes):
                a = coarse.prefix[np.searchsorted(coarse.grid.points, t)]
                b = fine.prefix[np.searchsorted(fine.grid.points, t)]
                out[level, trial, i] = group.norm(group.log(a) - group.log(b))
            coarse = fine
    return out


class TestRightLimit:
    @pytest.mark.parametrize("group", ["heis2", "heis3p", "uni4"])
    def test_matches_probe_by_probe_oracle(self, group, request):
        group = request.getfixturevalue(group)
        model = LevyModel(space=group, diffusion=0.3, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(1.0, 8)
        # (level, trial, probe) with three different sizes
        defects = right_limit_defects(model, grid, 4, 3, 5, 11)
        assert defects.shape == (3, 4, 5)
        np.testing.assert_array_equal(defects, right_limit_oracle(model, grid, 4, 3, 5, 11))

    def test_reads_the_smallest_grid_point_at_or_after_t(self, heis2):
        # a drift path is exp(t v): probes 0.2, 0.4, 0.6, 0.8 read the 4-cell grid at
        # 0.25, 0.5, 0.75, 1 and the 8-cell grid at 0.25, 0.5, 0.625, 0.875
        v = heis2.embed([1.0, 0.0])
        model = LevyModel(space=heis2, drift=v)
        defects = right_limit_defects(model, TimeGrid.uniform(1.0, 4), 1, 1, 4, 0)
        np.testing.assert_allclose(defects[0, 0], [0.0, 0.0, 0.125, 0.125], atol=1e-15)

    def test_defects_shrink_under_refinement(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.5, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.4))
        defects = right_limit_defects(model, TimeGrid.uniform(1.0, 16), 30, 3, 4, 5)
        medians = np.median(defects, axis=(1, 2))
        assert medians[2] <= medians[0]


class TestConvergenceStudy:
    def test_drift_only_is_exact(self, heis2):
        models = block_models(heis2, x={"drift": [1.0, 0.0]}, z={"drift": 0.3})
        rep = convergence_study(heis2, models, TimeGrid.uniform(1.0, 8), 3, 5, 0)
        assert all(e <= 1e-12 for e in rep["max_errors"])

    def test_compound_poisson_reaches_zero(self, heis2):
        models = block_models(
            heis2,
            x={"jump_intensity": 3.0, "jump_law": UniformBallJumps(0.5)},
            y={"jump_intensity": 3.0, "jump_law": UniformBallJumps(0.5)})
        rep = convergence_study(heis2, models, TimeGrid.uniform(1.0, 8), 6, 25, 1)
        assert min(rep["rms_errors"]) <= 1e-12

    def test_brownian_order_half(self, heis2):
        models = block_models(heis2, x={"diffusion": 0.5}, y={"diffusion": 0.5},
                              z={"diffusion": 0.2})
        rep = convergence_study(heis2, models, TimeGrid.uniform(1.0, 16), 5, 80, 2)
        assert rep["fitted_slope"] is not None
        assert 0.35 <= rep["fitted_slope"] <= 0.65


class TestBatchPrefixes:
    def test_matches_per_trial_sampling(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.3, jump_intensity=1.0,
                          jump_law=UniformBallJumps(0.4))
        grid = TimeGrid.uniform(1.0, 8)
        batch = batch_prefixes(model, grid, 9, 4)
        for trial in range(4):
            single = product_exponential(
                sample_additive(model, grid, 9, stream=(trial,)))
            np.testing.assert_array_equal(batch[trial], single.prefix)


    def test_takes_the_arguments_of_driver_paths(self):
        # the group is model.space, and the arguments come in driver_paths' order
        params = ["model", "grid", "seed", "trials"]
        assert list(inspect.signature(batch_prefixes).parameters) == params
        assert list(inspect.signature(driver_paths).parameters) == params

    def test_product_exponential_takes_the_group_of_the_model(self, heis2):
        assert list(inspect.signature(product_exponential).parameters) == ["path"]
        path = product_exponential(sample_additive(LevyModel(space=heis2, diffusion=0.3),
                                                   TimeGrid.uniform(1.0, 4), 0))
        assert path.group is heis2


class TestMapTrialChunks:
    TRIALS = 150

    @pytest.fixture
    def prefixes(self, heis2):
        assert self.TRIALS % TRIAL_CHUNK != 0
        model = LevyModel(space=heis2, diffusion=0.3)
        return batch_prefixes(model, TimeGrid.uniform(1.0, 6), 4, self.TRIALS)

    def test_array_result_equals_unchunked_reduction(self, heis2, prefixes):
        sizes = []

        def reduce(chunk):
            sizes.append(chunk.shape[0])
            return heis2.pairwise_chart_norms(chunk).max(axis=(1, 2))

        out = map_trial_chunks(prefixes, reduce)
        assert sizes == [TRIAL_CHUNK, TRIAL_CHUNK, self.TRIALS - 2 * TRIAL_CHUNK]
        np.testing.assert_array_equal(
            out, heis2.pairwise_chart_norms(prefixes).max(axis=(1, 2)))

    def test_tuple_result_stacks_each_part(self, heis2, prefixes):
        first, last = map_trial_chunks(
            prefixes, lambda chunk: (chunk[:, 0, :], heis2.chart_norm(chunk[:, -1, :])))
        np.testing.assert_array_equal(first, prefixes[:, 0, :])
        np.testing.assert_array_equal(last, heis2.chart_norm(prefixes[:, -1, :]))


class TestRequireGroup:
    """``require_group`` is the path layer's one group check: a driver over a
    vector space has no group to take products in."""

    GRID = TimeGrid.uniform(1.0, 8)

    @pytest.mark.parametrize("battery", [
        lambda m, g: oscillation_axioms_test(m, g, 0.5, 2, 5, 0),
        lambda m, g: mc_maximum_oscillation(m, g, 0.5, 10, 0),
        lambda m, g: mc_largest_step(m, g, 0.5, 10, 0),
        lambda m, g: mc_expectation_bound(m, g, 0.5, 10, 0),
        lambda m, g: uniform_continuity_probe(m, 1.0, 0.5, 0.1, 10, 0, cells=8),
        lambda m, g: exp_moment_estimate(m, (0.25, 1.0), 0.5, 0.5, 10, 0, cells=8),
        lambda m, g: tail_decay_fit(m, (0.25, 1.0), 0.5, 0.5, 10, 0, cells=8),
        lambda m, g: minimal_jump_power(m, 0.5),
        lambda m, g: detector_fidelity(m, g, JumpSetSpec(0.1), 4, 0),
        lambda m, g: poisson_battery(m, g, JumpSetSpec(0.1), 4, 0),
        lambda m, g: restart_probe(m, g, JumpSetSpec(0.1), 0.25, 4, 0),
        lambda m, g: right_limit_defects(m, g, 2, 1, 2, 0),
    ], ids=["axioms", "maximum-oscillation", "largest-step", "expectation-bound",
            "uniform-continuity", "exp-moment", "tail-decay", "minimal-jump-power",
            "detector-fidelity", "poisson-battery", "restart-probe", "right-limit"])
    def test_model_over_a_vector_space_rejected(self, battery):
        model = LevyModel(space=LpSpace(5), diffusion=0.1)
        with pytest.raises(ParameterError, match="bound to a group instance"):
            battery(model, self.GRID)


class TestZeroTrials:
    """``driver_paths`` rejects zero trials, so every battery that draws through it
    fails with a ParameterError rather than deep in its statistics."""

    GRID = TimeGrid.uniform(1.0, 8)

    @pytest.mark.parametrize("battery", [
        lambda m, g: oscillation_axioms_test(m, g, 0.5, 0, 5, 0),
        lambda m, g: mc_maximum_oscillation(m, g, 0.5, 0, 0),
        lambda m, g: mc_largest_step(m, g, 0.5, 0, 0),
        lambda m, g: uniform_continuity_probe(m, 1.0, 0.5, 0.1, 0, 0, cells=8),
        lambda m, g: poisson_battery(m, g, JumpSetSpec(0.1), 0, 0),
        lambda m, g: restart_probe(m, g, JumpSetSpec(0.1), 0.25, 0, 0),
        lambda m, g: right_limit_defects(m, g, 0, 1, 2, 0),
    ], ids=["axioms", "maximum-oscillation", "largest-step", "uniform-continuity",
            "poisson-battery", "restart-probe", "right-limit"])
    def test_zero_trials_rejected(self, heis2, battery):
        model = LevyModel(space=heis2, diffusion=0.1)
        with pytest.raises(ParameterError, match="trials must be at least 1, got 0"):
            battery(model, self.GRID)
