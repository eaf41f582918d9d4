"""Group and algebra kernel tests: laws, charts, and the ball-power radius."""

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from liemult import (ChartSpec, ConfigError, HeisenbergGroup, InvalidInputError, LpSpace,
                     ParameterError, UniformBallJumps, UnipotentGroup, additive, groups,
                     sample_norm_ball, step_counts_batch, substream)
from liemult.config import build_context
from liemult.experiments import run_experiment
from liemult.groups import _NilpotentGroup, coordinate_sum, lp_norm
from liemult.multiplicative import batch_prefixes
from liemult.rng import TrialStreams


def random_algebra(group, rng, size, scale=1.0):
    return rng.standard_normal((size, group.dim)) * scale


# Trailing-axis formulas summed left to right: the oracles that coordinate_sum,
# lp_norm, pairing and HeisenbergGroup.norm must match bit for bit.  np.cumsum is a
# sequential accumulate, and + 0.0 turns a sum of -0.0 terms into +0.0.  The root
# goes through np.power, the power loop of an array, at every batch shape: the sum
# of one element is a numpy scalar, whose ** is libm's pow
def oracle_sum(a):
    return np.cumsum(a, axis=-1)[..., -1] + 0.0


def oracle_lp_norm(a, p):
    if p == 2.0:
        return np.sqrt(oracle_sum(a * a))
    return np.power(oracle_sum(np.abs(a) ** p), 1.0 / p)


def rescaled_oracle_lp_norm(a, p):
    """The l^p norm as top * |a / top|_p, top = max |a_i|: no power leaves the floats."""
    top = np.max(np.abs(a), axis=-1, keepdims=True)
    return top[..., 0] * oracle_lp_norm(a / np.where(top > 0, top, 1.0), p)


def oracle_pairing(a, b):
    return oracle_sum(a * b)


def oracle_heisenberg_norm(group, vec):
    a, b, c = vec[..., :group.N], vec[..., group.N:2 * group.N], vec[..., 2 * group.N]
    return oracle_lp_norm(a, group.p) + oracle_lp_norm(b, group.q) + np.abs(c)


def assert_same_bits(got, want):
    # bytes, so that a -0.0 against a +0.0 counts as a difference
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def full_pair_route(group, prefix):
    """All two-parameter values inv(g_j) g_k as a (..., m, m, d) array, every
    pair and both orders: the slow oracle of the pairwise chart norms."""
    return group.mul(group.inv(prefix)[..., :, None, :], prefix[..., None, :, :])


class TestHeisenbergLaw:
    def test_worked_product(self, heis2):
        g = heis2.embed([1.0, 0.0], [0.0, 0.0], 0.0)
        h = heis2.embed([0.0, 0.0], [1.0, 0.0], 0.0)
        np.testing.assert_allclose(heis2.mul(g, h), [1.0, 0.0, 1.0, 0.0, 0.5])

    def test_identity_left_right(self, heis2, rng):
        g = random_algebra(heis2, rng, 64)
        e = np.broadcast_to(heis2.identity(), g.shape)
        np.testing.assert_array_equal(heis2.mul(e, g), g)
        np.testing.assert_array_equal(heis2.mul(g, e), g)

    def test_inverse_is_negation(self, heis2, rng):
        g = random_algebra(heis2, rng, 16)
        np.testing.assert_array_equal(heis2.inv(g), -g)
        defect = heis2.norm(heis2.mul(g, heis2.inv(g)))
        assert np.max(defect) <= 1e-12

    def test_associativity(self, heis3p, rng):
        g, h, k = (random_algebra(heis3p, rng, 256, 2.0) for _ in range(3))
        lhs = heis3p.mul(heis3p.mul(g, h), k)
        rhs = heis3p.mul(g, heis3p.mul(h, k))
        assert np.max(heis3p.norm(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch_rejected(self, heis2):
        with pytest.raises(InvalidInputError):
            heis2.mul(np.zeros(5), np.zeros(7))

    def test_conjugate_exponent(self):
        group = HeisenbergGroup(4, 1.7)
        assert abs(1.0 / group.p + 1.0 / group.q - 1.0) <= 1e-15


class TestUnipotentLaw:
    def test_inverse_matches_neumann_series(self, uni3, rng):
        # oracle: (I + N)^-1 = I - N + N^2 for 3x3 strictly upper N
        vec = random_algebra(uni3, rng, 32, 0.5)
        n_mat = uni3.to_matrix(vec)
        oracle = -n_mat + n_mat @ n_mat
        np.testing.assert_allclose(uni3.to_matrix(uni3.inv(vec)), oracle, atol=1e-14)
        eye_defect = uni3.norm(uni3.mul(vec, uni3.inv(vec)))
        assert np.max(eye_defect) <= 1e-12

    def test_inverse_times_element_is_identity_numerically(self, uni4, rng):
        vec = random_algebra(uni4, rng, 64, 0.4)
        full = np.eye(4) + uni4.to_matrix(vec)
        inv_full = np.eye(4) + uni4.to_matrix(uni4.inv(vec))
        prods = full @ inv_full
        np.testing.assert_allclose(prods, np.broadcast_to(np.eye(4), prods.shape), atol=1e-12)

    def test_mul_is_matrix_product(self, uni4, rng):
        a, b = random_algebra(uni4, rng, 2, 0.7)
        lhs = np.eye(4) + uni4.to_matrix(uni4.mul(a, b))
        rhs = (np.eye(4) + uni4.to_matrix(a)) @ (np.eye(4) + uni4.to_matrix(b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


class TestExpLog:
    def test_exp_zero_is_identity(self, heis2, uni4):
        for group in (heis2, uni4):
            np.testing.assert_array_equal(group.exp(np.zeros(group.dim)), group.identity())

    def test_heisenberg_exp_is_coordinate_identity_via_subgroup_oracle(self, heis2, rng):
        # one-parameter subgroup oracle: gamma(s) gamma(t) = gamma(s + t)
        vec = random_algebra(heis2, rng, 8)
        for s, t in [(0.3, 0.4), (1.2, -0.5)]:
            lhs = heis2.mul(heis2.exp(s * vec), heis2.exp(t * vec))
            rhs = heis2.exp((s + t) * vec)
            assert np.max(heis2.norm(lhs - rhs)) <= 1e-12
        np.testing.assert_array_equal(heis2.exp(vec), vec)

    def test_unipotent3_exp_entry(self, uni3):
        # I + N + N^2/2 puts c + a*b/2 in the corner
        a, b, c = 0.7, -0.4, 0.3
        vec = uni3.from_matrix(np.array([[0, a, c], [0, 0, b], [0, 0, 0.0]]))
        mat = np.eye(3) + uni3.to_matrix(uni3.exp(vec))
        assert mat[0, 2] == pytest.approx(c + a * b / 2, abs=1e-15)

    def test_unipotent4_log_series_roundtrip(self, uni4, rng):
        vec = random_algebra(uni4, rng, 128, 0.5)
        g = uni4.exp(vec)
        n_mat = uni4.to_matrix(g)
        oracle = n_mat - (n_mat @ n_mat) / 2 + (n_mat @ n_mat @ n_mat) / 3
        np.testing.assert_allclose(uni4.to_matrix(uni4.log(g)), oracle, atol=1e-14)
        assert np.max(uni4.norm(uni4.log(g) - vec)) <= 1e-12

    def test_derivative_at_zero_by_finite_differences(self, uni4, rng):
        vec = random_algebra(uni4, rng, 1)[0]
        h = 1e-6
        fd = (uni4.to_matrix(uni4.exp(h * vec)) - uni4.to_matrix(uni4.exp(-h * vec))) / (2 * h)
        np.testing.assert_allclose(fd, uni4.to_matrix(vec), atol=1e-8)

    def test_roundtrip_within_radius(self, heis2, uni4, rng):
        for group, scale in ((heis2, 10.0), (uni4, 0.45)):
            vec = random_algebra(group, rng, 512, scale)
            assert np.max(group.norm(group.log(group.exp(vec)) - vec)) <= 1e-10


class TestBracketAndBch:
    def test_self_bracket_vanishes(self, heis2, rng):
        u = random_algebra(heis2, rng, 32)
        assert np.max(heis2.norm(heis2.bracket(u, u))) == 0.0

    def test_heisenberg_relations(self, heis2):
        x1 = heis2.embed([1.0, 0.0])
        y1 = heis2.embed(b=[1.0, 0.0])
        z = heis2.embed(c=1.0)
        np.testing.assert_array_equal(heis2.bracket(x1, y1), z)
        np.testing.assert_array_equal(heis2.bracket(x1, z), np.zeros(heis2.dim))
        x2 = heis2.embed([0.0, 1.0])
        np.testing.assert_array_equal(heis2.bracket(x1, x2), np.zeros(heis2.dim))

    def test_unipotent_bracket_is_commutator(self, uni4, rng):
        u, v = random_algebra(uni4, rng, 2)
        a, b = uni4.to_matrix(u), uni4.to_matrix(v)
        np.testing.assert_allclose(uni4.to_matrix(uni4.bracket(u, v)), a @ b - b @ a,
                                   atol=1e-14)

    def test_jacobi_residual(self, heis2, uni4, rng):
        for group in (heis2, uni4):
            f, g, h = (random_algebra(group, rng, 256) for _ in range(3))
            residual = (group.bracket(f, group.bracket(g, h))
                        + group.bracket(g, group.bracket(h, f))
                        + group.bracket(h, group.bracket(f, g)))
            assert np.max(group.norm(residual)) <= 1e-12

    def test_bch_identity_element(self, heis2, rng):
        u = random_algebra(heis2, rng, 8)
        np.testing.assert_array_equal(heis2.bch(u, np.zeros_like(u)), u)

    def test_bch_worked_example(self, heis2):
        got = heis2.bch(heis2.embed([1.0, 0.0]), heis2.embed(b=[1.0, 0.0]))
        np.testing.assert_allclose(got, [1.0, 0.0, 1.0, 0.0, 0.5])

    def test_bch_equals_log_of_product(self, heis3p, uni4, rng):
        for group in (heis3p, uni4):
            u = random_algebra(group, rng, 512, 0.5)
            v = random_algebra(group, rng, 512, 0.5)
            via_product = group.log(group.mul(group.exp(u), group.exp(v)))
            assert np.max(group.norm(group.bch(u, v) - via_product)) <= 1e-12


class TestNorm:
    def test_zero_norm(self, heis2, uni4):
        for group in (heis2, uni4):
            assert group.norm(np.zeros(group.dim)) == 0.0

    @pytest.mark.parametrize("N", [1, 2, 8])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_block_spaces_sum_to_the_group_norm(self, rng, N, p):
        # bit for bit, so the owner of the block spaces cannot swap p and q
        group = HeisenbergGroup(N, p)
        spaces = group.block_spaces
        a, b, c = rng.standard_normal((50, N)), rng.standard_normal((50, N)), rng.standard_normal(50)
        np.testing.assert_array_equal(
            group.norm(group.embed(a, b, c)),
            spaces["x"].norm(a) + spaces["y"].norm(b) + spaces["z"].norm(c[..., None]))

    @given(scale=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, scale):
        group = HeisenbergGroup(2, 2.0)
        vec = np.array([0.3, -1.2, 0.7, 0.1, -0.4])
        assert group.norm(scale * vec) == pytest.approx(abs(scale) * group.norm(vec),
                                                        rel=1e-12, abs=1e-12)

    def test_subadditive(self, heis3p, uni4, rng):
        for group in (heis3p, uni4):
            u = random_algebra(group, rng, 512)
            v = random_algebra(group, rng, 512)
            slack = group.norm(u) + group.norm(v) - group.norm(u + v)
            assert np.min(slack) >= -1e-12

    def test_unipotent_norm_is_operator_norm(self, uni4, rng):
        vec = random_algebra(uni4, rng, 1)[0]
        expected = np.linalg.norm(uni4.to_matrix(vec), ord=2)
        assert uni4.norm(vec) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.0, 1e-300, 1e150, 1e160, 1e-320])
    def test_unipotent_norm_matches_lapack_route(self, rng, scale):
        # the SVD route of np.linalg.norm(ord=2) is the oracle, to a relative 1e-14;
        # a result below the normal range is only resolved to the subnormal spacing.
        # Unscaled, the Gram matrix underflows at 1e-300 and overflows at 1e160
        for n in (2, 3, 4, 5, 8):
            group = UnipotentGroup(n)
            for lead in [(), (0,), (64,), (2, 3)]:
                vec = rng.standard_normal(lead + (group.dim,)) * scale
                expected = np.linalg.norm(group.to_matrix(vec), ord=2, axis=(-2, -1))
                got = group.norm(vec)
                assert got.shape == lead
                assert np.array_equal(got == 0.0, expected == 0.0)   # zeros stay exact
                assert np.all(np.abs(got - expected)
                              <= 1e-14 * expected + np.finfo(float).smallest_subnormal)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unipotent_norm_rejects_non_finite_entries(self, uni4, bad):
        # NaN and +-inf alike raise LinAlgError; a batch with one bad row raises too
        vec = np.ones((3, uni4.dim))
        vec[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            uni4.norm(vec)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            uni4.norm(vec[1])


class TestCoordinateSum:
    """Coordinate-wise block sums against the sequential trailing-axis numpy
    formulas, bit for bit: any other summation order (numpy's pairwise
    ``np.sum``, say) fails here from 8 terms on."""

    @staticmethod
    def wide_values(rng, shape):
        # magnitudes over 16 decades, so that the order of the additions shows,
        # with signed zeros and, where there is a batch, one row of -0.0 only
        vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        vals[rng.random(shape) < 0.1] = 0.0
        vals[rng.random(shape) < 0.1] = -0.0
        if len(shape) > 1:
            vals[(0,) * (len(shape) - 1)] = -0.0
        return vals

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 129, 257, 300])
    def test_equals_trailing_axis_sums(self, n):
        rng = substream(n, "coordinate-sum")
        for lead in [(), (5,), (3, 4)]:
            a = self.wide_values(rng, lead + (n,))
            b = self.wide_values(rng, lead + (n,))
            a_in, b_in = a.copy(), b.copy()
            assert_same_bits(coordinate_sum(a[..., i].copy() for i in range(n)),
                             oracle_sum(a))
            assert_same_bits(HeisenbergGroup(n).pairing(a, b), oracle_pairing(a, b))
            for p in (1.5, 2.0, 3.0):
                assert_same_bits(lp_norm(a, p), oracle_lp_norm(a, p))
                group = HeisenbergGroup(n, p)
                vec = self.wide_values(rng, lead + (group.dim,))
                vec_in = vec.copy()
                assert_same_bits(group.norm(vec), oracle_heisenberg_norm(group, vec))
                assert_same_bits(vec, vec_in)
            assert_same_bits(a, a_in)
            assert_same_bits(b, b_in)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_single_elements(self, p):
        # the columns of one (d,) element are numpy scalars, whose ** is not the
        # power loop that the stacked (N,) array goes through; each element's norm
        # is the bits of its row in the batch
        group = HeisenbergGroup(2, p)
        batch = self.wide_values(substream(0, "single-element"), (64, group.dim))
        for vec, row in zip(batch, group.norm(batch)):
            assert_same_bits(group.norm(vec), oracle_heisenberg_norm(group, vec))
            assert_same_bits(group.norm(vec), row)


class TestLpNormRange:
    """l^p norms whose p-th powers leave the floats are taken on rescaled entries;
    every other norm keeps the bits of the direct formula."""

    @pytest.mark.parametrize("space, vec, want", [
        # q = 101: (4e-5)^101 underflows to 0
        (HeisenbergGroup(2, p=1.01), [0, 0, 4e-5, 4e-5, 0], 4e-5 * 2 ** (1 / 101)),
        # q = 10001: 2^10001 overflows
        (HeisenbergGroup(2, p=1.0001), [0, 0, 2, 2, 0], 2 * 2 ** (1 / 10001)),
        (LpSpace(2, 1200), [0.3, 0.3], 0.3 * 2 ** (1 / 1200)),
        # a subnormal sum of squares, and one past the floats
        (LpSpace(2), [3e-160, 4e-160], 5e-160),
        (LpSpace(2), [3e200, 4e200], 5e200),
    ])
    def test_norm_past_the_floats(self, space, vec, want):
        vec = np.array(vec, dtype=float)
        np.testing.assert_allclose(space.norm(vec), want, rtol=1e-15)
        # a row of a batch gets the bits of the single element
        batch = np.stack([vec, np.ones_like(vec), np.zeros_like(vec)])
        assert_same_bits(space.norm(batch)[0], space.norm(vec))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_in_range_rows_keep_the_direct_bits(self, p):
        rng = substream(int(p * 10), "lp-range")
        a = rng.standard_normal((200, 6)) * 10.0 ** rng.uniform(-8, 8, size=(200, 6))
        # entries whose powers underflow beside ones that do not, so the rescue runs,
        # and zero, infinite and NaN rows, which keep their direct value
        a[::7, 0] = 1e-200
        a[1] = 0.0
        a[2, 3], a[3, 4] = np.inf, np.nan
        lost = np.full(6, 1e-200)
        with np.errstate(under="ignore"):
            want = oracle_lp_norm(a, p)
        assert_same_bits(lp_norm(np.vstack([a, lost]), p)[:-1], want)
        assert_same_bits(lp_norm(a, p), want)
        assert lp_norm(lost, p) > 0


class TestSampleNormBall:
    @pytest.mark.parametrize("draw, first, next_draw", [
        (lambda rng: sample_norm_ball(rng, HeisenbergGroup(2), 0.4, 10),
         0.061100310412514625, 0.9262061826370831),
        (lambda rng: sample_norm_ball(rng, UnipotentGroup(4), 0.1, 10),
         0.04372684343765659, 0.8587189964677021),
        (lambda rng: sample_norm_ball(rng, LpSpace(4, 1.5), 1.0, 100),
         0.34072116820496756, 0.13275928537234072),
        (lambda rng: UniformBallJumps(0.3, [0, 2, 4]).sample(rng, HeisenbergGroup(2), 30),
         -0.22285787833848023, 0.6508016446182678),
    ], ids=["heisenberg", "unipotent", "lp", "subspace"])
    def test_stream_use_pinned(self, draw, first, next_draw):
        # chart-certification draws its batches from one generator, so the
        # candidates each call consumes, not only the points it returns, are
        # part of the report bytes: pin the generator's next draw after a call
        rng = np.random.default_rng(11)
        assert draw(rng)[0, 0] == first
        assert rng.random() == next_draw


def round_loop_norm_ball(rng, space, radius, size):
    """Rejection in rounds, the reference for sample_norm_ball's points: each
    round draws max(64, 4 * missing) box candidates and keeps its inside ones."""
    out = np.empty((size, space.dim))
    have = 0
    while have < size:
        batch = max(64, 4 * (size - have))
        cand = rng.uniform(-radius, radius, size=(batch, space.dim))
        good = cand[space.norm(cand) < radius]
        take = min(size - have, good.shape[0])
        out[have:have + take] = good[:take]
        have += take
    return out


def _ball_draw(space, radius):
    """A draw ``(sampler, rng, size) -> points`` through the given ball sampler."""
    return lambda sampler, rng, size: sampler(rng, space, radius, size)


def _subspace_draw(sampler, rng, size):
    # UniformBallJumps with indices runs the sampler on the subspace ball of the lift
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(additive, "sample_norm_ball", sampler)
        return UniformBallJumps(0.3, [0, 2, 4]).sample(rng, HeisenbergGroup(2), size)


BALL_DRAWS = {
    "heisenberg-p1.5": _ball_draw(HeisenbergGroup(2, 1.5), 0.4),
    "heisenberg-p2": _ball_draw(HeisenbergGroup(2, 2.0), 0.4),
    "heisenberg-p3": _ball_draw(HeisenbergGroup(2, 3.0), 0.4),
    "heisenberg-n3": _ball_draw(HeisenbergGroup(3), 0.4),
    "lp": _ball_draw(LpSpace(4, 1.5), 1.0),
    "unipotent": _ball_draw(UnipotentGroup(4), 0.1),
    "subspace": _subspace_draw,
}
BALL_STREAMS = {
    "substream": lambda: substream(5, "ball-oracle"),
    "rekeyed": lambda: TrialStreams(5, 4, ["ball-oracle"]).rng(3, "ball-oracle"),
    "pcg64": lambda: np.random.default_rng(5),
}
# one stream per space, in turn: a Heisenberg group with N = 3 takes a second
# per 12,288 points at its 0.3 % acceptance
CERTIFICATION_CASES = [pytest.param(BALL_DRAWS[space], BALL_STREAMS[stream], id=f"{space}-{stream}")
                       for space, stream in zip(BALL_DRAWS, list(BALL_STREAMS) * 3)]


# block sizes below, at and above the default, for the independence of the points
BLOCK_ROWS = [64, groups._BLOCK_ROWS, 4096]


class TestSampleNormBallOracle:
    """sample_norm_ball against the round loop: the same points on every kind of
    stream, at every buffer position and for every block size."""

    @staticmethod
    def check(draw, stream, size, offset):
        ours, theirs = stream(), stream()
        ours.random(offset)   # offset doubles in: mid-buffer for Philox
        theirs.random(offset)
        got = draw(sample_norm_ball, ours, size)
        want = draw(round_loop_norm_ball, theirs, size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    @pytest.mark.parametrize("stream", BALL_STREAMS.values(), ids=BALL_STREAMS.keys())
    @pytest.mark.parametrize("draw", BALL_DRAWS.values(), ids=BALL_DRAWS.keys())
    def test_small_draws_match_round_loop(self, monkeypatch, draw, stream, block_rows):
        monkeypatch.setattr(groups, "_BLOCK_ROWS", block_rows)
        for size in (0, 1, 10, 30):
            for offset in range(4):
                self.check(draw, stream, size, offset)

    @pytest.mark.parametrize("block_rows", BLOCK_ROWS)
    @pytest.mark.parametrize("draw, stream", CERTIFICATION_CASES)
    def test_certification_batch_matches_round_loop(self, monkeypatch, draw, stream,
                                                    block_rows):
        # the batch size of chart-certification: blocks of thousands of candidates,
        # then blocks of _BLOCK_ROWS
        monkeypatch.setattr(groups, "_BLOCK_ROWS", block_rows)
        self.check(draw, stream, 12_288, 3)

    @staticmethod
    def counted_heisenberg(calls):
        group = HeisenbergGroup(2)
        return SimpleNamespace(dim=group.dim,
                               norm=lambda v: calls.append(len(v)) or group.norm(v))

    def test_small_draw_takes_two_norm_calls(self):
        # 30 points at about 2 % acceptance: the round loop takes 18 norm calls on
        # this stream (11 to 37 on 300 streams), the blocks two (three on about 3 %
        # of streams)
        calls = []
        sample_norm_ball(np.random.default_rng(11), self.counted_heisenberg(calls), 0.4, 30)
        assert len(calls) <= 2

    def test_blocks_hold_at_most_one_round(self):
        # the first block, 4 * 12,288 candidates as in the round loop's first round,
        # is the largest
        calls = []
        sample_norm_ball(np.random.default_rng(11), self.counted_heisenberg(calls), 0.1, 12_288)
        assert calls[0] == 4 * 12_288 and max(calls) == calls[0]


class TestChartMachinery:
    def test_chart_radius_check_rejects_rho_prime(self, uni4):
        uni4.require_chart_radius(0.5 * uni4.chart.rho_prime)
        with pytest.raises(ParameterError, match=r"delta must lie in \(0, rho_prime\)"):
            uni4.require_chart_radius(uni4.chart.rho_prime)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_chart_radius_check_rejects_nonpositive(self, heis2, delta):
        with pytest.raises(ParameterError, match=r"delta must lie in \(0, rho_prime\)"):
            heis2.require_chart_radius(delta)

    def test_ball_power_radius_base_and_worked_value(self, heis2):
        assert heis2.ball_power_radius(0.1, 1) == 0.1
        assert heis2.ball_power_radius(0.1, 2) == pytest.approx(0.21, abs=1e-15)

    def test_ball_power_radius_monotone(self, heis2, uni4):
        for group, delta in ((heis2, 0.2), (uni4, 0.05)):
            radii = [group.ball_power_radius(delta, n) for n in range(1, 6)]
            radii = [r for r in radii if r is not None]
            assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_ball_power_radius_chart_exceeded_marker(self):
        group = UnipotentGroup(4, chart=ChartSpec(0.5, 0.125, 2.0))
        assert group.ball_power_radius(0.1, 50) is None

    def test_ball_power_radius_contains_sampled_products(self, heis2, uni4):
        rng = substream(7, "ball-products")
        for group, delta, power in ((heis2, 0.1, 3), (uni4, 0.05, 2)):
            radius = group.ball_power_radius(delta, power)
            factors = sample_norm_ball(rng, group, delta, 2000 * power)
            factors = factors.reshape(2000, power, group.dim)
            prod = np.broadcast_to(group.identity(), (2000, group.dim))
            for i in range(power):
                prod = group.mul(prod, group.exp(factors[:, i]))
            assert np.max(group.chart_norm(prod)) < radius

    def test_ball_power_radius_requires_small_delta(self, uni4):
        with pytest.raises(ParameterError):
            uni4.ball_power_radius(uni4.chart.rho_double_prime, 2)

    def test_inverse_stays_in_ball_power(self, heis2, rng):
        # constructive check: reverse and invert the factors of g in U_delta^j
        delta, j = 0.3, 4
        factors = sample_norm_ball(substream(3, "inv-factors"), heis2, delta, j)
        g = heis2.identity()
        for vec in factors:
            g = heis2.mul(g, heis2.exp(vec))
        inv_direct = heis2.inv(g)
        rebuilt = heis2.identity()
        for vec in factors[::-1]:
            rebuilt = heis2.mul(rebuilt, heis2.exp(-vec))
        np.testing.assert_allclose(rebuilt, inv_direct, atol=1e-12)
        assert all(heis2.norm(-vec) < delta for vec in factors)

    def test_bracket_bound_certification(self, heis2, uni4):
        for group in (heis2, uni4):
            ratio = group.chart.certify_bracket_bound(group, samples=10**4, seed=11)
            assert ratio <= 1.0

    def test_unipotent_chart_certification_report_pinned(self, uni4):
        # re-recorded when the spectral norm moved onto the scaled Gram matrix
        params = {"samples": 2000, "delta": 0.1, "power": 3, "products": 5000}
        report = run_experiment("chart-certification", {"group": uni4}, params, 105)
        assert report == {
            "bracket_bound_worst_ratio": 0.7202923303275317, "delta": 0.1, "power": 3,
            "certified_radius": 0.33391490370370375, "worst_product_norm": 0.2764405300756643,
            "status": "pass", "experiment": "chart-certification", "seed": 105,
            "params_used": params,
        }

    @pytest.mark.parametrize("name, seed, estimates", [
        ("group-axioms", 301, {"max_associativity_defect": 1.2722848635416538e-16,
                               "max_identity_defect": 0.0,
                               "max_inverse_defect": 3.209311686624545e-17}),
        ("exp-log-roundtrip", 302, {"max_roundtrip_defect": 3.1031676915590914e-17}),
        ("bch-consistency", 303, {"max_bch_defect": 1.2412670766236366e-16}),
        ("bracket-properties", 304, {"max_antisymmetry_defect": 0.0,
                                     "max_jacobi_residual": 3.469446951953614e-18,
                                     "max_self_bracket": 0.0}),
    ])
    def test_unipotent_residual_reports_pinned(self, uni4, name, seed, estimates):
        # the default battery covers these checks on the Heisenberg group only
        params = {"samples": 2000, "scale": 0.3}
        report = run_experiment(name, {"group": uni4}, params, seed)
        tol = 1e-10 if name == "exp-log-roundtrip" else 1e-12
        assert report == {
            "estimates": estimates, "tol": tol, "status": "pass", "experiment": name,
            "seed": seed, "params_used": {**params, "tol": tol},
        }

    def test_bracket_bound_violation_detected(self, heis2):
        bad = ChartSpec(rho_prime=1e6, rho_double_prime=10.0, bracket_bound=0.01)
        assert bad.certify_bracket_bound(heis2, samples=2000, seed=0) > 1.0
        # a pair with C |U| |V| = 0 < |[U,V]| is a violation, of infinite ratio
        zero = ChartSpec(rho_prime=1e6, rho_double_prime=10.0, bracket_bound=0.0)
        assert zero.certify_bracket_bound(heis2, samples=2000, seed=0) == np.inf


class TestHeisenbergBlockKernel:
    """The block pairwise kernel against the full mul(inv(P), P) route, bit for bit."""

    @pytest.mark.parametrize("p", [2.0, 3.0, 1.01])
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 9, 32])
    def test_equals_generic_route(self, N, p):
        group = HeisenbergGroup(N, p)
        rng = substream(N, "block-kernel")
        for lead in [(), (3,), (2, 3)]:
            for m in [1, 2, 33]:
                # magnitudes over four decades, so the sums round in many places
                scale = 10.0 ** rng.uniform(-2, 2, size=lead + (m, 1))
                if p == 1.01:   # q = 101: the y block's powers underflow
                    scale *= 1e-3
                prefix = rng.standard_normal(lead + (m, group.dim)) * scale
                pairs = full_pair_route(group, prefix)
                norms = oracle_heisenberg_norm(group, pairs)   # log is the identity
                if p == 1.01:
                    # the direct oracle loses y norms to 0; the norm is the rescaled
                    # one to round-off, and every kernel gives its bits
                    x, y, z = group.split(pairs)
                    np.testing.assert_allclose(
                        group.chart_norm(pairs), rescaled_oracle_lp_norm(x, p)
                        + rescaled_oracle_lp_norm(y, group.q) + np.abs(z), rtol=1e-13)
                    norms = group.chart_norm(pairs)
                assert pairs.shape == lead + (m, m, group.dim)
                j, k = np.indices((m, m))
                assert np.array_equal(group.pair_increment(prefix, j, k), pairs)
                assert np.array_equal(group.chart_norm(pairs), norms)
                assert np.array_equal(group.pairwise_chart_norms(prefix), norms)
                # the generic hook on the j < k pairs, which the closed form replaces
                upper = np.triu_indices(m, 1)
                assert np.array_equal(
                    _NilpotentGroup._pair_norms(group, prefix, *upper, None),
                    norms[(...,) + upper])

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("N", [8, 32])
    def test_peak_memory_does_not_grow_with_n(self, N, p):
        # each block sum keeps one running sum and the current term, so the peak is
        # about 6 to 7 (8, 65, 65) arrays, the result included, at any N
        group = HeisenbergGroup(N, p)
        prefix = substream(N, "block-kernel-memory").standard_normal((8, 65, group.dim))
        tracemalloc.start()
        try:
            group.pairwise_chart_norms(prefix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / np.zeros((8, 65, 65)).nbytes <= 8

    def test_step_counts_pinned(self):
        # recorded while the vectorized counter still called group.norm
        digest = hashlib.sha256()
        for N, p in [(2, 2.0), (9, 3.0)]:
            group = HeisenbergGroup(N, p)
            rng = substream(7, "step-counts")
            elements = rng.standard_normal((4, 17, group.dim))
            elements *= np.array([0.05, 0.5, 2.0, 8.0])[:, None, None]
            elements[0, :3] = 0.0
            for delta in (0.1, 0.5, 2.0):
                digest.update(step_counts_batch(group, elements, delta).tobytes())
        assert digest.hexdigest() == (
            "1689fdff84c658ee5cd76f35a3edf1a307640096596ecc29831696af78964953")


class TestUnipotentAnySize:
    """One truncated series serves every n: exp, inv and log against oracles
    from dense linear algebra, and the BCH routines within their step."""

    @pytest.mark.parametrize("n", [2, 5, 6, 8])
    def test_series_match_dense_oracles(self, n):
        group = UnipotentGroup(n)
        assert group.dim == n * (n - 1) // 2 and group.nilpotency_step == n - 1
        v = substream(n, "any-size").standard_normal((64, group.dim))
        m, eye = group.to_matrix(v), np.eye(n)
        want_exp = np.stack([expm(x) for x in m]) - eye
        np.testing.assert_allclose(group.to_matrix(group.exp(v)), want_exp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(group.to_matrix(group.inv(v)), np.linalg.inv(eye + m) - eye,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(group.log(group.exp(v)), v, rtol=0, atol=1e-12)

    def test_bch_on_the_abelian_group(self):
        group = UnipotentGroup(2)
        u, v = np.array([[0.3], [-1.5]]), np.array([[0.7], [0.25]])
        np.testing.assert_array_equal(group.bch(u, v), u + v)
        assert group.ball_power_radius(0.1, 2) > 0.2

    @pytest.mark.parametrize("n", [5, 8])
    def test_bch_routines_name_the_step_beyond_three(self, n):
        group = UnipotentGroup(n)
        u = np.zeros(group.dim)
        with pytest.raises(ParameterError, match=f"got step {n - 1}"):
            group.bch(u, u)
        with pytest.raises(ParameterError, match=f"got step {n - 1}"):
            group.ball_power_radius(0.1, 2)


class TestUnipotentPrefixKernel:
    """The matrix-form fold is the reference fold of mul, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_equals_reference_fold(self, n, reference_fold):
        group = UnipotentGroup(n)
        rng = substream(n, "prefix-kernel")
        for lead in [(), (3,), (2, 3)]:
            for m in [0, 1, 33]:
                # magnitudes over four decades, so the products round in many places
                scale = 10.0 ** rng.uniform(-2, 2, size=lead + (m, 1))
                increments = rng.standard_normal(lead + (m, group.dim)) * scale
                prefix = group.prefix_products(increments)
                assert prefix.shape == lead + (m + 1, group.dim)
                assert np.array_equal(
                    prefix, reference_fold(group, increments))


class TestGenericUpperPairs:
    """The generic pairwise hook evaluates only the j < k pairs and mirrors them:
    its upper triangle is the full route's, bit for bit, and the matrix is exactly
    symmetric with a zero diagonal."""

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_equals_full_route(self, n):
        group = UnipotentGroup(n)
        rng = substream(n, "upper-pairs")
        for lead in [(), (3,), (2, 3)]:
            for m in [1, 2, 33]:
                scale = 10.0 ** rng.uniform(-2, 1, size=lead + (m, 1))
                prefix = rng.standard_normal(lead + (m, group.dim)) * scale
                norms = group.pairwise_chart_norms(prefix)
                full = group.chart_norm(full_pair_route(group, prefix))
                j, k = np.triu_indices(m, 1)
                assert norms.shape == lead + (m, m)
                assert np.array_equal(norms[..., j, k], full[..., j, k])
                assert np.array_equal(norms, np.swapaxes(norms, -1, -2))
                assert not np.diagonal(norms, axis1=-2, axis2=-1).any()


class TestPairIncrement:
    """``pair_increment`` inverts each prefix row once and then gathers; its values
    are those of inverting the gathered rows, bit for bit."""

    @pytest.mark.parametrize("group", [UnipotentGroup(3), UnipotentGroup(4), UnipotentGroup(6),
                                       UnipotentGroup(8), HeisenbergGroup(3, 3.0)], ids=repr)
    def test_equals_inverse_of_gathered_rows(self, group):
        rng = substream(group.dim, "pair-increment")
        m = 9
        indices = [(0, m - 1), (4, 2), (rng.integers(0, m, 20), rng.integers(0, m, 20)),
                   np.indices((m, m))]
        for lead in [(), (3,), (2, 3)]:
            scale = 10.0 ** rng.uniform(-2, 1, size=lead + (m, 1))
            prefix = rng.standard_normal(lead + (m, group.dim)) * scale
            for j, k in indices:
                assert_same_bits(group.pair_increment(prefix, j, k),
                                 group.mul(group.inv(prefix[..., j, :]), prefix[..., k, :]))


# the models and grids of the unipotent-mc benchmark workload
UNIPOTENT_MC = {
    "group": {"kind": "unipotent", "n": 4},
    "grids": {"g32": {"T": 1.0, "cells": 32}, "g64": {"T": 1.0, "cells": 64}},
    "models": {
        "brownian": {"diffusion": 0.03},
        "brownian_small": {"diffusion": 0.005},
        "brownian_jump": {"diffusion": 0.03, "jump_intensity": 2.0,
                          "jump_law": {"kind": "uniform_ball", "radius": 0.05}},
    },
}


def assert_same_decisions(group, prefix, delta):
    assert_same_bits(group.pairs_outside(prefix, delta),
                     group.pairwise_chart_norms(prefix) >= delta)


class TestPairsOutside:
    """``pairs_outside`` decides most unipotent pairs from max|a_ij| <= |A|_2 <= |A|_F
    and takes the spectral norm only within a relative 1e-12 of delta; its decisions
    are those of the exact norms, bit for bit."""

    @pytest.mark.parametrize("model", sorted(UNIPOTENT_MC["models"]))
    def test_benchmark_models(self, model):
        ctx = build_context(UNIPOTENT_MC)
        group = ctx["group"]
        for grid, trials in [("g32", 60), ("g64", 30)]:
            prefix = batch_prefixes(ctx["models"][model], ctx["grids"][grid], 5, trials)
            # delta and the superset radius of the largest-step battery
            for delta in (0.1, group.ball_power_radius(0.1, 2)):
                assert_same_decisions(group, prefix, delta)

    @pytest.mark.parametrize("delta", [1e-300, 1e-200, 0.1, 1.0, 1e150])
    def test_rows_at_the_margin(self, delta):
        # pair logs at delta * (1 + offset), so that some pairs fall inside the
        # margin and some just outside it; as the prefix is [identity, exp(v)], the
        # pair log is v to round-off.  Rows of three kinds: general, one nonzero
        # entry (lo = norm = hi) and a first row only (norm = hi).  At 1e150 only the
        # last two, whose matrix squares vanish, so exp and log cannot overflow
        group = UnipotentGroup(4)
        rng = substream(17, "pairs-outside-margin")
        vec = rng.standard_normal((60, group.dim))
        vec[:20] = np.eye(group.dim)[rng.integers(0, group.dim, 20)]
        vec[20:40, 3:] = 0.0   # coordinates 0-2 are the first row
        if delta > 1e100:
            vec = vec[:40]
        offsets = np.array([-2e-12, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 2e-12])
        rows = (vec / group.norm(vec)[:, None]) * (delta * (1.0 + offsets))[:, None, None]
        prefix = np.stack([np.zeros_like(rows), group.exp(rows)], axis=-2)
        assert_same_decisions(group, prefix, delta)

    def test_entries_whose_squares_underflow(self):
        # every entry 6e-201: the norm is 1.35e-200, outside delta = 1e-200, while
        # an unscaled sum of squares would read 0
        group = UnipotentGroup(4)
        prefix = np.stack([np.zeros(group.dim), np.full(group.dim, 6e-201)])
        assert group.pairs_outside(prefix, 1e-200)[0, 1]
        assert_same_decisions(group, prefix, 1e-200)

    def test_non_finite_pairs_raise(self):
        # a NaN entry, and a finite prefix whose log overflows to -inf in one entry
        group = UnipotentGroup(3)
        nan = np.array([[0.0, 0.0, 0.0], [0.05, np.nan, 0.05]])
        big = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 1e200]])
        for prefix in (nan, big):
            with np.errstate(over="ignore"):
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    group.pairwise_chart_norms(prefix)
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    group.pairs_outside(prefix, 0.1)

    def test_heisenberg_takes_its_norms(self, heis2, rng):
        prefix = rng.standard_normal((3, 9, heis2.dim))
        assert_same_bits(heis2.pairwise_chart_norms(prefix, 1.0),
                         heis2.pairwise_chart_norms(prefix))
        assert_same_decisions(heis2, prefix, 1.0)


def build_group(group: dict):
    """The group of a config whose only block is ``group``."""
    return build_context({"group": group})["group"]


class TestConfigConstruction:
    def test_group_from_config(self):
        heis = build_group({"kind": "heisenberg", "N": 4, "p": 2.0})
        assert isinstance(heis, HeisenbergGroup) and heis.N == 4
        uni = build_group({"kind": "unipotent", "n": 4})
        assert isinstance(uni, UnipotentGroup) and uni.n == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            HeisenbergGroup(0, 2.0)
        with pytest.raises(ParameterError):
            HeisenbergGroup(2, 1.0)
        for n in (1, 2.5, float("nan")):
            with pytest.raises(ParameterError, match="n must be an integer >= 2"):
                UnipotentGroup(n)
        with pytest.raises(ConfigError, match=r"config\.group\.kind"):
            build_group({"kind": "orthogonal"})

    def test_chart_spec_validation(self):
        with pytest.raises(ParameterError):
            ChartSpec(rho_prime=1.0, rho_double_prime=1.5, bracket_bound=2.0)
