"""Driver sampling tests: determinism, increment algebra, refinement coupling."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats as sps

from liemult import additive, config, rng
from liemult import (DiscreteJumps, HeisenbergGroup, LevyModel, LpSpace, ParameterError,
                     PiecewiseConstantRate, TimeGrid, UniformBallJumps,
                     UnipotentGroup, driver_paths, sample_additive, substream)
from liemult.config import build_context, default_config
from liemult.rng import TrialStreams, trial_keys
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
                          jump_law=DiscreteJumps([heis2.embed(c=1.0)], [1.0]))
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
        with pytest.raises(ParameterError, match="radius must be positive, got nan"):
            UniformBallJumps(np.nan)   # its box would have no bounds

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("N", [1, 2, 8])
    @pytest.mark.parametrize("block", ["x", "y"])
    def test_bound_delta_allows_the_norm_round_off(self, p, N, block):
        # an atom on one coordinate has exact norm |c| in every l^p; its computed
        # norm may sit a few ulps above c, as 0.2 does at p = 3 (0.20000000000000004)
        space = HeisenbergGroup(N, p).block_spaces[block]
        for c in (0.05, 0.1, 0.2, 1.0 / 3.0, 0.4, 0.7, 1.0, 2.5):
            for i in range(N):
                atom = np.zeros((1, N))
                atom[0, i] = c
                LevyModel(space=space, jump_intensity=1.0,
                          jump_law=DiscreteJumps(atom, [1.0]), bound_delta=c)
                with pytest.raises(ParameterError, match="exceeds bound_delta"):
                    LevyModel(space=space, jump_intensity=1.0,
                              jump_law=DiscreteJumps(atom * (1.0 + 1e-9), [1.0]),
                              bound_delta=c)

    def test_discrete_law_probabilities(self, heis2, grid):
        with pytest.raises(ParameterError):
            DiscreteJumps(np.zeros((2, 5)), [0.5, 0.6])
        with pytest.raises(ParameterError, match="sum to 1, got nan"):
            DiscreteJumps(np.zeros((2, 5)), [np.nan, 1.0])
        law = DiscreteJumps([heis2.embed([1.0, 0.0]), heis2.embed(c=2.0)], [0.25, 0.75])
        model = LevyModel(space=heis2, jump_intensity=3.0, jump_law=law)
        path = sample_additive(model, grid, seed=1)
        assert path.jump_vectors.shape[1] == 5

    @pytest.mark.parametrize("law", [
        config._LAWS["fixed_atom"][1]({"kind": "fixed_atom", "vector": [0.1, 0.2]}),
        UniformBallJumps(0.3, [0, 7]),
        DiscreteJumps([[0.1, 0.2]], [1.0]),
    ])
    def test_law_dimension_checked_when_model_is_built(self, heis2, law):
        with pytest.raises(ParameterError, match="dimension"):
            LevyModel(space=heis2, jump_intensity=1.0, jump_law=law)

    @pytest.mark.parametrize("indices", [[-1, -1], [0, -2], [0, 0], [3, 1, 3], [], [[0, 1]],
                                         [0.5, 1.7], ["1"]])
    def test_subspace_indices_rejected(self, indices):
        # a negative index would wrap around, a repeated one would merge two
        # sampled coordinates into one, and a fractional one would be truncated
        with pytest.raises(ParameterError, match="indices"):
            UniformBallJumps(0.3, indices)

    @pytest.mark.parametrize("vector", [0.1, [[0.1, 0.2]]])
    def test_fixed_atom_must_be_one_vector(self, vector):
        with pytest.raises(ParameterError, match="2-d array of atoms"):
            config._LAWS["fixed_atom"][1]({"kind": "fixed_atom", "vector": vector})

    def test_subspace_law_stays_in_subspace(self, heis2):
        law = UniformBallJumps(0.3, np.arange(2))
        rng = np.random.default_rng(0)
        draws = law.sample(rng, heis2, 200)
        assert np.all(draws[:, 2:] == 0.0)
        assert np.max(heis2.norm(draws)) < 0.3

    def test_subspace_law_draws_pinned(self, heis2):
        # the rejection loop of sample_norm_ball must keep this law's stream:
        # these are the draws of the subspace law's former private loop
        law = UniformBallJumps(0.3, np.array([0, 2, 4]))
        draws = law.sample(np.random.default_rng(7), heis2, 2)
        np.testing.assert_array_equal(draws, [
            [-0.019239028293767557, 0.0, -0.11818054390841187, 0.0, -0.132944632739536],
            [-0.14707824740752523, 0.0, -0.03295421647041208, 0.0, 0.0027289553747719686],
        ])



def _law_configs(dim):
    """One config block of each jump-law kind that fits a ``dim``-dimensional space."""
    atom = [0.02 * (i + 1) for i in range(dim)]
    return {
        "uniform_ball": {"kind": "uniform_ball", "radius": 0.3},
        "subspace_ball": {"kind": "subspace_ball", "radius": 0.3, "indices": [1, 4]},
        "fixed_atom": {"kind": "fixed_atom", "vector": atom},
        "discrete": {"kind": "discrete", "vectors": [atom, [-0.5 * a for a in atom]],
                     "probs": [0.3, 0.7]},
    }


# the subspace_ball extreme points (coordinates 1 and 4) of TestJumpLawsPinned
SUBSPACE_EXTREMES = {
    "heisenberg": [
        (0.3, 0.0), (0.0, 0.3), (-0.3, -0.0), (-0.0, -0.3),
        (0.04358274772305345, 0.2564172522769465), (0.2945413601185044, -0.005458639881495541),
        (0.20661179431397866, -0.09338820568602134), (0.08218589155417082, 0.21781410844582916),
        (0.11019645759079992, -0.18980354240920008), (0.05119164909029041, -0.2488083509097096),
        (0.12759713576467926, -0.17240286423532072),
        (-0.11795373804135557, -0.18204626195864443),
        (0.0938444583116945, -0.2061555416883055), (0.019713104161330642, 0.28028689583866934),
        (-0.09857769937434202, -0.201422300625658), (0.1446311096734666, 0.1553688903265334),
        (-0.14442719999453216, -0.1555728000054678),
        (-0.23288871698689567, -0.06711128301310433),
        (-0.18201057308725574, 0.11798942691274425),
        (-0.19945245770351072, 0.10054754229648928),
        (0.1372225265270531, -0.16277747347294685), (-0.2930091795936467, 0.006990820406353314),
        (0.010932944567655208, 0.28906705543234473),
        (-0.21319860555812342, -0.08680139444187651),
        (0.13492211748386074, -0.16507788251613925),
        (0.21057947896693424, -0.08942052103306575), (0.1485624569208094, -0.1514375430791906),
        (0.1839768849372177, -0.11602311506278228), (0.021501783857980652, 0.2784982161420193),
        (-0.021725875722044773, -0.2782741242779552),
        (-0.21178258791031251, -0.08821741208968742),
        (-0.23292588450393611, -0.06707411549606387),
        (0.1285435753112066, 0.17145642468879335), (-0.04853949109546554, -0.2514605089045344),
        (0.02885190833624731, -0.2711480916637527), (-0.18075940541781793, -0.11924059458218206),
    ],
    "unipotent": [
        (0.3, 0.0), (0.0, 0.3), (-0.3, -0.0), (-0.0, -0.3), (0.050990423619368695, 0.3),
        (0.3, -0.005559803091116986), (0.3, -0.13559952760117383), (0.11319637484540258, 0.3),
        (0.1741745009477629, -0.30000000000000004), (0.06172419322316165, -0.3),
        (0.22203309033865468, -0.3), (-0.19437982978439491, -0.3), (0.13656357361508362, -0.3),
        (0.021099563826213263, 0.29999999999999993), (-0.1468224209555843, -0.3),
        (0.27926654306953036, 0.3), (-0.2785072968850392, -0.3), (-0.3, -0.08645066692975159),
        (-0.3, 0.1944767684284696), (-0.3, 0.15123535220501744), (0.25290205751324507, -0.3),
        (-0.3, 0.007157612347894743), (0.011346444738889344, 0.3), (-0.3, -0.12214159780451128),
        (0.24519720406033757, -0.3), (0.3, -0.12739207277710116), (0.2943044120369589, -0.3),
        (0.3, -0.18919188968066603), (0.023161854487803127, 0.3),
        (-0.023422094071898464, -0.3), (-0.3, -0.12496411479358228),
        (-0.30000000000000004, -0.08638900177055732), (0.22491471324773593, 0.30000000000000004),
        (-0.05790908239260736, -0.3), (0.03192193774171149, -0.3), (-0.3, -0.19789940275566129),
    ],
}


class TestJumpLawsPinned:
    """Every config jump-law kind, built by its config constructor, keeps its draws
    and extreme points; recorded when the subspace and one-atom laws were classes
    of their own."""

    GROUPS = {"heisenberg": lambda: HeisenbergGroup(2), "unipotent": lambda: UnipotentGroup(4)}

    @pytest.mark.parametrize("group_name, kind, digest", [
        ("heisenberg", "uniform_ball",
         "d7944880663d4834eb5f4276aaa6ee6645ad6ab83f90c4c002164da39b42a1eb"),
        ("heisenberg", "subspace_ball",
         "09246fb8b593c2a2299f397353256215a25c722e86d1e65d0aec16be419efece"),
        ("heisenberg", "fixed_atom",
         "0d0f4949718a98e5b2ad34879f95d0387d7d862600c6d438792df23647e2bc8b"),
        ("heisenberg", "discrete",
         "b802b84bb523837d65bfe90a630c943b2f6fae1a1bf101b3d65032575832d783"),
        ("unipotent", "uniform_ball",
         "b8d09827ffc2f6d1a75ec3c966c9a1ce6ade6f9e0656454b0a23425d882ebec8"),
        ("unipotent", "subspace_ball",
         "aad30123b25ba08e7b0c20b74841dd724796b1ceb1aae8182c4b62e8d9b8524f"),
        ("unipotent", "fixed_atom",
         "a72aff79db0b080c3151f6a51baf4d3c89a31d7b4e0f5a739c03b7707a3feeea"),
        ("unipotent", "discrete",
         "6df12ff90981bd40851cdb80b2b0c46b822abe0264c8e6ea495de0729b0a67c3"),
    ])
    def test_draws_pinned(self, group_name, kind, digest):
        # sha256 of the increments and jump vectors of trials 0-4 at seed 11
        group = self.GROUPS[group_name]()
        law = config._LAWS[kind][1](_law_configs(group.dim)[kind])
        model = LevyModel(space=group, jump_intensity=4.0, jump_law=law)
        h = hashlib.sha256()
        for t in range(5):
            path = sample_additive(model, TimeGrid.uniform(1.0, 16), 11, stream=(t,))
            assert path.jump_vectors.shape[0]
            h.update(path.increments.tobytes())
            h.update(path.jump_vectors.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("group_name, kind, digest", [
        ("heisenberg", "uniform_ball",
         "d0f0d2ddd4cfa722f754526335411647768d496d84cdb65ace5df60405edd082"),
        ("heisenberg", "fixed_atom",
         "56f93a2ee34ab1729ca17bcb4a8b559c141b37857ab8519de8f25d273aa0b2d2"),
        ("heisenberg", "discrete",
         "bac39033b63841835b6c3c390f1b73c006cf509d6a86aa8f52ff855706341f09"),
        ("unipotent", "uniform_ball",
         "f46b0a5d6bb3c3b470deecd2f23f4d77e0fe6b35681a488508994296b06ff1ed"),
        ("unipotent", "fixed_atom",
         "80e416010d6647c09bb25ea408ad9d440847620390dce91826495422d2bd9466"),
        ("unipotent", "discrete",
         "f1ef9c12e9933e10b843afbe0cdcb12d8d7fc297de0384bdf20b6489f567a729"),
    ])
    def test_extreme_points_pinned(self, group_name, kind, digest):
        group = self.GROUPS[group_name]()
        law = config._LAWS[kind][1](_law_configs(group.dim)[kind])
        points = law.extreme_points(group, substream(3, "jump-extremes"))
        assert hashlib.sha256(points.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("group_name", ["heisenberg", "unipotent"])
    def test_subspace_extreme_points_pinned(self, group_name):
        # pts / norm(pts) * radius, as the full-space ball scales them, moves these
        # by at most one ulp from the recorded pts * (radius / norm(pts))
        group = self.GROUPS[group_name]()
        law = config._LAWS["subspace_ball"][1](_law_configs(group.dim)["subspace_ball"])
        points = law.extreme_points(group, substream(3, "jump-extremes"))
        expected = np.zeros((len(SUBSPACE_EXTREMES[group_name]), group.dim))
        expected[:, [1, 4]] = SUBSPACE_EXTREMES[group_name]
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-16)


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
                                            jump_law=DiscreteJumps([heis2.embed([0.2, 0.0])], [1.0])),
        "drift": LevyModel(space=heis2, drift=heis2.embed([0.4, 0.3], c=0.1), diffusion=0.2,
                           jump_intensity=1.0, jump_law=UniformBallJumps(0.5)),
        "subspace": LevyModel(space=heis2, jump_intensity=4.0,
                              jump_law=UniformBallJumps(0.3, [0, 2, 4])),
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
        # draws every stream agree bit for bit, trial by trial, in the increments and
        # in the recorded jumps
        grid = TimeGrid.uniform(5.0, 24)
        for name, model in _oracle_models(heis2).items():
            batched = list(driver_paths(model, grid, 3, trials))
            single = [sample_additive(model, grid, 3, stream=(t,)) for t in range(trials)]
            assert len(batched) == trials, name
            for b, s in zip(batched, single):
                assert b.increments.shape == (grid.n_cells, model.space.dim), name
                for part in ("increments", "gauss_part", "jump_times", "jump_vectors"):
                    assert np.array_equal(getattr(b, part), getattr(s, part)), (name, part)
            for t in (0, trials - 1):
                assert np.array_equal(single[t].increments,
                                      reference_increments(model, grid, 3, (t,))), name

    def test_no_gauss_stream_without_diffusion(self, heis2, monkeypatch):
        drawn = []
        monkeypatch.setattr(additive, "substream",
                            lambda seed, *path: drawn.append(path[-1]) or substream(seed, *path))
        model = _oracle_models(heis2)["cp_uniform_ball"]
        path = sample_additive(model, TimeGrid.uniform(1.0, 16), 5)
        assert "gauss" not in drawn and "jump-counts" in drawn
        assert np.array_equal(path.gauss_part, np.zeros((16, heis2.dim)))
        assert not np.signbit(path.gauss_part).any()

        # the batched path keys no Gaussian stream and draws from none, and its
        # Gaussian part is +0.0 in every trial
        keyed, rekeyed = [], []
        monkeypatch.setattr(rng, "trial_keys", lambda seed, trials, label: keyed.append(label)
                            or trial_keys(seed, trials, label))
        rekey = TrialStreams.rng
        monkeypatch.setattr(TrialStreams, "rng", lambda self, trial, label: rekeyed.append(label)
                            or rekey(self, trial, label))
        batched = list(driver_paths(model, TimeGrid.uniform(1.0, 16), 5, 4))
        assert len(batched) == 4
        assert "gauss" not in keyed and "jump-counts" in keyed
        assert "gauss" not in rekeyed and "jump-counts" in rekeyed
        for path in batched:
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

    def test_rate_scaled_refinement_pinned(self, heis2):
        # recorded when refine still computed the fine cells' mass, drift and variance
        # itself; they now come from the driver law of the refined grid
        model = LevyModel(space=heis2, drift=heis2.embed([0.4, -0.2], c=0.1),
                          diffusion=[0.3, 0.1, 0.2, 0.0, 0.5], jump_intensity=4.0,
                          jump_law=UniformBallJumps(0.5),
                          scale=PiecewiseConstantRate(np.array([0.0, 0.3, 0.7]),
                                                      np.array([2.0, 0.0, 0.5])))
        grid = TimeGrid.uniform(1.0, 16)
        fine = sample_additive(model, grid, seed=9).refine(seed=1, stream=(2, "x"))
        h = hashlib.sha256(fine.increments.tobytes())
        h.update(fine.gauss_part.tobytes())
        h.update(fine.jump_times.tobytes())
        assert h.hexdigest() == "765c7391bc76fe10e637432e078324a04feb9323d80a1b7bee518a292bae5601"
        assert fine.jump_times.size and fine.gauss_part.any()
        assert np.array_equal(fine.drift_part,
                              sample_additive(model, grid.refined(), seed=0).drift_part)

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

