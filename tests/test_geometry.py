"""Step counter, gauge metric, and the exponential-moment batteries."""

import hashlib
import json

import numpy as np
import pytest

from liemult import (DiscreteJumps, HeisenbergGroup, LevyModel, ParameterError,
                     TimeGrid, UniformBallJumps, UnipotentGroup, bounded_jumps_check,
                     exp_moment_estimate, gauge_distance, gauge_norm,
                     mc_expectation_bound, mc_largest_step,
                     metric_modulus_curve, minimal_jump_power, step_count_upper,
                     step_counts_batch, step_triangle_test, tail_decay_fit)
from liemult import geometry
from liemult.groups import sample_scaled_vectors
from liemult.multiplicative import TRIAL_CHUNK
from liemult.reporting import jsonable
from liemult.rng import substream

ALPHA, DELTA = 0.5, 0.5

# sha256 of the factor words (-0.0 read as +0.0) and certified defects of
# step_count_upper over _factor_word_inputs, recorded from the per-factor
# constructions before the words were built as arrays
FACTOR_WORD_DIGESTS = {
    "UnipotentGroup(n=3)": "b56b0cfbd429e302e798fb78a1f4c99980e5ff9c37c635517a8f1a405927fcf8",
    "UnipotentGroup(n=5)": "4e6202be54a5ea7cdf8a3ad01121f8b6519a393946fe2c6fef12cbe87acf0e91",
    "UnipotentGroup(n=8)": "6499b4eafcfed0bcaf50821b7279058ddd0de994106e031b65dc6ee5c58d910a",
    "HeisenbergGroup(N=1, p=2.0)":
        "129a843c954fec6ff1dec355cad60fe8fa81d7e236e337e4d35c710fa192bce3",
    "HeisenbergGroup(N=2, p=2.0)":
        "48fc0795bbfa6d93de55a071a2da595e70e34bdbd7edac9479f7a3c7b2594876",
}


def _factor_word_inputs(group, delta):
    """Two seeded elements and one whose gadget coefficient is exactly 40
    gadget areas (0.45 delta)^2: the corner entry, or z on the Heisenberg group."""
    cap = (0.45 * delta) ** 2
    vecs = substream(7, "factor-word-pins", repr(group), str(delta)).standard_normal(
        (2, group.dim))
    if isinstance(group, HeisenbergGroup):
        return [*(vecs * 2.0), group.embed(c=-40 * cap)]
    corner = np.zeros((group.n, group.n))
    corner[0, -1] = 40 * cap
    return [*group.exp(vecs * 0.3), group.from_matrix(corner)]


@pytest.fixture(scope="module")
def moment_model():
    h = HeisenbergGroup(2, 2.0)
    return h, LevyModel(space=h, diffusion=np.array([0.10, 0.10, 0.0, 0.0, 0.0]),
                        jump_intensity=1.0,
                        jump_law=DiscreteJumps([h.embed([0.2, 0.0])], [1.0]))


class TestStepCountUpper:
    def test_identity_needs_no_factors(self, heis2, uni4):
        for group in (heis2, uni4):
            res = step_count_upper(group, group.identity(), 0.3)
            assert res.upper == 0 and res.factors.shape == (0, group.dim)

    def test_small_element_single_factor(self, heis2, uni4):
        for group, g in ((heis2, heis2.embed([0.3, 0.0])),
                         (uni4, uni4.exp(np.array([0.1, 0.0, 0.05, -0.1, 0.0, 0.1])))):
            res = step_count_upper(group, g, 0.4)
            assert res.upper == 1
            assert res.factors.shape == (1, group.dim)
            np.testing.assert_array_equal(res.factors, group.log(g)[None])

    @pytest.mark.parametrize("group", [UnipotentGroup(3), UnipotentGroup(5), UnipotentGroup(8),
                                       HeisenbergGroup(1), HeisenbergGroup(2)], ids=repr)
    def test_factor_words_pinned(self, group):
        digest = hashlib.sha256()
        for delta in (0.3, 0.45):
            for g in _factor_word_inputs(group, delta):
                res = step_count_upper(group, g, delta)
                digest.update((res.factors + 0.0).tobytes())
                digest.update(np.float64(res.certified_defect).tobytes())
        assert digest.hexdigest() == FACTOR_WORD_DIGESTS[repr(group)]

    def test_commutator_gadget_identity(self, heis2):
        # four-fold product oracle: (a e1) (b f1) (-a e1) (-b f1) = pure z of size ab
        a, b = 0.25, 0.1
        prod = heis2.identity()
        for vec in (heis2.embed([a, 0.0]), heis2.embed(b=[b, 0.0]),
                    heis2.embed([-a, 0.0]), heis2.embed(b=[-b, 0.0])):
            prod = heis2.mul(prod, heis2.exp(vec))
        np.testing.assert_allclose(prod, heis2.embed(c=a * b), atol=1e-15)

    def test_pure_z_small_is_single_factor(self, heis2):
        res = step_count_upper(heis2, heis2.embed(c=DELTA**2 / 4), DELTA)
        assert res.upper <= 4

    def test_pure_z_large_uses_gadgets(self, heis2):
        res = step_count_upper(heis2, heis2.embed(c=1.0), DELTA)
        gadgets = int(np.ceil(1.0 / (0.45 * DELTA) ** 2))
        assert res.upper == 4 * gadgets

    @pytest.mark.parametrize("delta", [0.2, 0.3, 0.45])
    def test_gadget_counts_agree_at_exact_multiples(self, delta):
        # the corner of U(3) and z of H(1) are both filled by gadgets of area at most
        # cap; at exact multiples k * cap the two groups take the same ceil(k) gadgets
        uni, heis = UnipotentGroup(3), HeisenbergGroup(1)
        cap = (0.45 * delta) ** 2
        for k in range(1, 121):
            corner = np.zeros((3, 3))
            corner[0, 2] = k * cap
            upper = step_count_upper(uni, uni.from_matrix(corner), delta).upper
            assert upper == step_count_upper(heis, heis.embed(c=k * cap), delta).upper, k

    def test_axis_atom_norm_three_delta(self, heis2):
        res = step_count_upper(heis2, heis2.embed([3 * DELTA, 0.0]), DELTA)
        assert res.upper == 4          # ceil(1.5 / 0.45)

    def test_every_call_is_certified(self, heis2, uni4, rng):
        for group, scale in ((heis2, 2.5), (uni4, 0.35)):
            vecs = rng.standard_normal((100, group.dim)) * scale
            for vec in vecs:
                res = step_count_upper(group, group.exp(vec), 0.3)
                assert res.certified_defect <= 1e-10
                if res.upper:
                    assert np.max(group.norm(res.factors)) < 0.3

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_unipotent_certifies_at_any_size(self, n):
        # the level sweep reaches every level up to n - 1, the corner entry
        # (0, n - 1) through the gadget of the top level alone
        group = UnipotentGroup(n)
        corner = np.zeros((n, n))
        corner[0, n - 1] = 0.5
        vecs = substream(n, "step-count-sizes").standard_normal((6, group.dim)) * 0.35
        for g in [group.from_matrix(corner), *group.exp(vecs)]:
            res = step_count_upper(group, g, 0.3)
            assert res.certified_defect <= 1e-10
            assert res.upper > 1 and np.max(group.norm(res.factors)) < 0.3

    def test_vectorized_counts_match_construction(self, heis2, rng):
        elements = rng.standard_normal((500, 5)) * rng.uniform(0.0, 3.0, size=(500, 1))
        direct = np.array([step_count_upper(heis2, g, DELTA).upper for g in elements])
        vectorized, _ = step_counts_batch(heis2, elements, DELTA)
        np.testing.assert_array_equal(direct, vectorized)

    @pytest.mark.parametrize("delta, k", [(2.0, 198), (2.0, 10), (0.5, 59), (0.3, 56),
                                          (0.3, 63), (1.0, 160), (0.1, 40)])
    def test_exact_gadget_multiples_match_vectorized(self, delta, k):
        # |z| = k * cap can take ceil(|z|/cap) = k + 1 gadgets while k subtractions
        # of cap empty it; the construction still emits all k + 1, the last one
        # of zero area, so the two counters agree
        group = HeisenbergGroup(1)
        cap = (0.45 * delta) ** 2
        for z in (k * cap, -k * cap):
            g = group.embed(c=z)
            res = step_count_upper(group, g, delta)
            assert res.upper == step_counts_batch(group, g[None], delta)[0][0]
            assert res.certified_defect <= 1e-10
        if (delta, k) == (2.0, 198):
            assert res.upper == 796

    def test_unipotent_batch_falls_back_to_construction(self, uni4, rng):
        elements = uni4.exp(rng.standard_normal((10, 6)) * 0.3)
        counts, _ = step_counts_batch(uni4, elements, 0.2)
        direct = [step_count_upper(uni4, g, 0.2).upper for g in elements]
        np.testing.assert_array_equal(counts, direct)

    def test_empty_batch_counts_are_integers(self, heis2, uni4):
        for group in (heis2, uni4):
            counts, norms = step_counts_batch(group, np.empty((0, group.dim)), 0.2)
            assert counts.shape == (0,) and counts.dtype == np.int64
            assert norms.shape == (0,)

    def test_delta_validation(self, heis2):
        with pytest.raises(ParameterError):
            step_count_upper(heis2, heis2.identity(), -0.1)

    @pytest.mark.parametrize("delta", [-0.1, 0.0, float("nan"), "rho_prime"])
    def test_batch_delta_validation(self, heis2, uni4, delta):
        # the vectorized Heisenberg counter and the empty batch check delta too
        for group in (heis2, uni4):
            d = group.chart.rho_prime if delta == "rho_prime" else delta
            for elements in (np.ones((3, group.dim)) * 0.01, np.empty((0, group.dim))):
                with pytest.raises(ParameterError):
                    step_counts_batch(group, elements, d)

    @pytest.mark.parametrize("group, delta", [(UnipotentGroup(4), 0.1), (HeisenbergGroup(2), 0.5)],
                             ids=repr)
    def test_stack_matches_single_elements(self, group, delta):
        # the identity, elements inside the ball and elements out to 3 delta
        vecs = sample_scaled_vectors(substream(11, "step-count-stack"), group, 3 * delta, 24)
        stack = np.concatenate([group.identity()[None], group.exp(vecs)])
        res = step_count_upper(group, stack, delta)
        singles = [step_count_upper(group, g, delta) for g in stack]
        np.testing.assert_array_equal(res.upper, [s.upper for s in singles])
        assert 0 in res.upper and 1 in res.upper and res.upper.max() > 20
        words = np.split(res.factors, np.cumsum(res.upper)[:-1])
        for word, single in zip(words, singles):
            assert (word + 0.0).tobytes() == (single.factors + 0.0).tobytes()
        assert res.certified_defect.tobytes() == np.array(
            [s.certified_defect for s in singles]).tobytes()
        # the chart norms of the delta split, those of chart_norm bit for bit
        assert res.norms.tobytes() == group.chart_norm(stack).tobytes()
        for g, single in zip(stack, singles):
            assert np.float64(single.norms).tobytes() == group.chart_norm(g).tobytes()

    def test_batch_norms_take_no_second_pass(self, rng):
        # the chart norms returned with the counts are those step_count_upper took
        class CountingNorms(UnipotentGroup):
            calls = 0

            def norm(self, vec):
                CountingNorms.calls += 1
                return super().norm(vec)

        group = CountingNorms(4)
        elements = group.exp(rng.standard_normal((3, 7, group.dim)) * 0.05)
        direct = step_count_upper(group, elements.reshape(-1, group.dim), 0.1).upper
        plain, CountingNorms.calls = CountingNorms.calls, 0
        counts, norms = step_counts_batch(group, elements, 0.1)
        assert CountingNorms.calls == plain
        assert counts.tobytes() == direct.reshape(3, 7).tobytes()
        assert 1 in counts and counts.max() > 1
        assert norms.tobytes() == group.chart_norm(elements).tobytes()

    @pytest.mark.parametrize("delta", [0.1, 0.3, 2.0])
    def test_gadget_amounts_match_sequential_loop(self, delta):
        side = 0.45 * delta
        cap = side * side
        coeffs = []
        for k in (1, 2, 10, 40, 198):
            for c in (k * cap, -k * cap):
                coeffs += [c, np.nextafter(c, np.inf), np.nextafter(c, -np.inf)]
        coeffs = np.array([0.0, *coeffs])
        amounts, counts = geometry._gadget_amounts(coeffs, side)
        for coeff, batched in zip(coeffs, np.split(amounts, np.cumsum(counts)[:-1])):
            remaining, expected = abs(float(coeff)), []
            for _ in range(int(np.ceil(remaining / cap))):
                amount = min(cap, remaining)
                remaining -= amount
                expected.append(amount / side)
            assert batched.tolist() == expected, coeff

    @pytest.mark.parametrize("group, delta", [(UnipotentGroup(4), 0.1), (HeisenbergGroup(2), 0.5)],
                             ids=repr)
    def test_every_element_of_a_stack_is_certified(self, group, delta, monkeypatch):
        # a corrupted factor row of the third element must fail certification
        name = "_heisenberg_factors" if isinstance(group, HeisenbergGroup) else "_unipotent_factors"
        construct = getattr(geometry, name)

        def corrupted(group, g, delta):
            rows, lengths = construct(group, g, delta)
            rows = rows.copy()
            rows[lengths[:2].sum(), 0] += 1e-6
            return rows, lengths

        vecs = sample_scaled_vectors(substream(12, "step-count-corrupt"), group, 3 * delta, 5)
        vecs *= (2 * delta / group.norm(vecs))[:, None]    # every element is built
        stack = group.exp(vecs)
        step_count_upper(group, stack, delta)
        monkeypatch.setattr(geometry, name, corrupted)
        with pytest.raises(RuntimeError, match="defect"):
            step_count_upper(group, stack, delta)

    @pytest.mark.parametrize("group, delta", [(UnipotentGroup(4), 0.1), (HeisenbergGroup(2), 0.5)],
                             ids=repr)
    def test_constructed_factor_at_delta_leaves_the_ball(self, group, delta, monkeypatch):
        # only the constructed rows take the factor check; one at norm delta fails it
        name = "_heisenberg_factors" if isinstance(group, HeisenbergGroup) else "_unipotent_factors"
        construct = getattr(geometry, name)
        edge = np.zeros(group.dim)
        edge[0] = delta
        assert group.norm(edge) == delta

        def widened(group, g, delta):
            rows, lengths = construct(group, g, delta)
            return np.concatenate([rows[:-1], edge[None]]), lengths

        stack = group.exp(np.stack([np.full(group.dim, 0.1 * delta / group.dim),
                                    np.full(group.dim, 3 * delta)]))
        monkeypatch.setattr(geometry, name, widened)
        with pytest.raises(RuntimeError, match="a factor left the ball"):
            step_count_upper(group, stack, delta)


class TestStepTriangle:
    def test_identity_concatenation_is_equality(self, heis2):
        g = heis2.embed([1.2, 0.0], [0.3, 0.0], 0.2)
        upper_g = step_count_upper(heis2, g, DELTA).upper
        upper_ge = step_count_upper(heis2, heis2.mul(g, heis2.identity()), DELTA).upper
        assert upper_ge == upper_g

    def test_inverse_pair_collapses(self, heis2):
        g = heis2.embed([1.2, 0.0], [0.3, 0.0], 0.2)
        gh = heis2.mul(g, heis2.inv(g))
        assert step_count_upper(heis2, gh, DELTA).upper == 0

    def test_random_pairs_concatenation_certified(self, heis2, uni4):
        for group, delta, samples in ((heis2, DELTA, 300), (uni4, 0.2, 60)):
            rep = step_triangle_test(group, samples, delta, seed=2)
            assert rep["pass"]
            assert rep["concatenation_violations"] == 0

    def test_unipotent_report_pinned(self, uni4):
        # re-recorded when the spectral norm moved onto the scaled Gram matrix
        assert step_triangle_test(uni4, 10, 0.1, 206) == {
            "samples": 10, "delta": 0.1, "concatenation_violations": 0,
            "worst_concatenation_defect": 3.8956904860124047e-16,
            "direct_le_sum_fraction": 0.9, "pass": True,
        }


class TestGaugeMetric:
    def test_self_distance_zero(self, heis2, rng):
        g = rng.standard_normal(5)
        assert gauge_distance(heis2, g, g) == 0.0

    def test_left_invariance_and_symmetry(self, heis2, rng):
        g, h, k = rng.standard_normal((3, 5)) * 2.0
        d = gauge_distance(heis2, g, h)
        assert gauge_distance(heis2, heis2.mul(k, g), heis2.mul(k, h)) == pytest.approx(
            d, abs=1e-12)
        assert gauge_distance(heis2, h, g) == pytest.approx(d, abs=1e-14)

    def test_triangle_inequality_sampled(self, heis2):
        rng = substream(5, "gauge-triples")
        pts = rng.standard_normal((20000, 3, 5)) * 2.0
        d_gh = gauge_distance(heis2, pts[:, 0], pts[:, 1])
        d_hk = gauge_distance(heis2, pts[:, 1], pts[:, 2])
        d_gk = gauge_distance(heis2, pts[:, 0], pts[:, 2])
        assert np.count_nonzero(d_gk > d_gh + d_hk + 1e-12) == 0

    def test_homogeneous_norm_scaling(self, heis2):
        # dilation (x, y, z) -> (s x, s y, s^2 z) scales the gauge by s
        v = heis2.embed([0.4, -0.2], [0.1, 0.3], 0.25)
        s = 1.7
        dil = heis2.embed([0.4 * s, -0.2 * s], [0.1 * s, 0.3 * s], 0.25 * s * s)
        assert gauge_norm(heis2, dil) == pytest.approx(s * gauge_norm(heis2, v), rel=1e-12)

    def test_unsupported_exponent_raises(self, heis3p):
        with pytest.raises(ParameterError):
            gauge_norm(heis3p, np.zeros(heis3p.dim))


class TestBoundedJumps:
    def test_jump_free_model_trivially_bounded(self, heis2):
        model = LevyModel(space=heis2, diffusion=0.3)
        rep = bounded_jumps_check(model, DELTA, 1)
        assert rep["pass"] and rep["max_upper"] == 0
        assert minimal_jump_power(model, DELTA) == 0

    def test_half_ball_law_is_power_one(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=1.0,
                          jump_law=UniformBallJumps(DELTA / 2))
        rep = bounded_jumps_check(model, DELTA, 1)
        assert rep["pass"] and rep["max_upper"] == 1

    def test_large_atom_needs_four_factors(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=1.0,
                          jump_law=DiscreteJumps([heis2.embed([3 * DELTA, 0.0])], [1.0]))
        assert bounded_jumps_check(model, DELTA, 4)["pass"]
        assert not bounded_jumps_check(model, DELTA, 3)["pass"]

    @pytest.mark.filterwarnings("error")    # no underflow warning on the way to a power
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1e-20, 1e-100, 1e-300])
    def test_tiny_jumps_are_power_one(self, p, c):
        for group in (HeisenbergGroup(2, p), UnipotentGroup(3)):
            for law in (DiscreteJumps([c * np.eye(group.dim)[0]], [1.0]),
                        DiscreteJumps([-c * np.eye(group.dim)[-1]], [1.0]),
                        UniformBallJumps(c)):
                model = LevyModel(space=group, jump_intensity=1.0, jump_law=law)
                assert minimal_jump_power(model, 0.1) == 1
                assert bounded_jumps_check(model, 0.1, 1)["pass"]

    def test_small_delta_counts_every_gadget(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=1.0, jump_law=UniformBallJumps(3e-3))
        assert minimal_jump_power(model, 1e-3) == 59260

    @pytest.mark.filterwarnings("error")    # no numpy warning on the way to the error
    @pytest.mark.parametrize("delta, radius, reason", [
        (1e-20, 3e-20, r"a step count reaches 2\*\*63"),
        (1e-200, 3e-200, "its step unit underflows to 0"),
        (1e-161, 0.1, r"a step count reaches 2\*\*63"),
    ])
    def test_tiny_delta_is_a_parameter_error(self, delta, radius, reason):
        # the gadget count ceil(|z| / (0.45 delta)^2) passes int64 at 1e-20, the cap
        # (0.45 delta)^2 itself underflows to 0 at 1e-200, and at 1e-161 a jump of 0.1
        # over the cap's few subnormal ulps is past the float range
        for group in (HeisenbergGroup(2), UnipotentGroup(3)):
            model = LevyModel(space=group, jump_intensity=1.0, jump_law=UniformBallJumps(radius))
            with pytest.raises(ParameterError, match=f"delta is too small: {reason}"):
                minimal_jump_power(model, delta)


UNDECLARED_LAWS = {
    "uniform_ball": lambda h: UniformBallJumps(0.3),
    "subspace_ball": lambda h: UniformBallJumps(0.3, indices=[0, 2]),
    "fixed_atom": lambda h: DiscreteJumps([h.embed([0.3, 0.0])], [1.0]),
    "discrete": lambda h: DiscreteJumps([h.embed([0.3, 0.0]), h.embed(c=0.01)], [0.5, 0.5]),
}


@pytest.mark.parametrize("battery, args", [
    (exp_moment_estimate, ((0.25, 1.0), ALPHA, DELTA, 50, 1)),
    (tail_decay_fit, ((0.25, 1.0), ALPHA, DELTA, 50, 1)),
    (metric_modulus_curve, (1.0, ALPHA, [0.5, 0.125], 50, 1, 32)),
], ids=["exp-moment", "tail-decay", "metric-modulus"])
@pytest.mark.parametrize("law", sorted(UNDECLARED_LAWS))
def test_every_jump_law_runs_the_moment_batteries(heis2, law, battery, args):
    # each law bounds itself, so a jump model runs every moment battery as built
    model = LevyModel(space=heis2, diffusion=0.05, jump_intensity=2.0,
                      jump_law=UNDECLARED_LAWS[law](heis2))
    rep = battery(model, *args)
    assert rep["trials"] == 50
    assert rep["pass"] in (True, False, None)
    assert rep["estimate"] is None or np.isfinite(rep["estimate"])


class TestExpMoment:
    def test_zero_driver_estimate_is_one(self, heis2):
        rep = exp_moment_estimate(LevyModel(space=heis2), (0.25, 1.0), ALPHA, DELTA,
                                  100, 0)
        assert rep["estimate"] == 1.0
        assert rep["pass"]

    def test_alpha_zero_estimate_is_one(self, moment_model):
        _, model = moment_model
        rep = exp_moment_estimate(model, (0.25, 1.0), 0.0, DELTA, 100, 0)
        assert rep["estimate"] == 1.0

    def test_bounded_brownian_jump_model_diagnostics(self, moment_model):
        _, model = moment_model
        rep = exp_moment_estimate(model, (0.25, 1.0), ALPHA, DELTA, 1000, 3)
        assert rep["pass"]
        assert rep["diagnostics"]["running_mean"]["pass"]
        assert rep["diagnostics"]["partial_max"]["pass"]
        assert np.isfinite(rep["estimate"])

    def test_window_validation(self, moment_model):
        _, model = moment_model
        with pytest.raises(ParameterError):
            exp_moment_estimate(model, (0.9, 0.5), ALPHA, DELTA, 10, 0)


class TestTailDecay:
    def test_zero_driver_trivially_geometric(self, heis2):
        rep = tail_decay_fit(LevyModel(space=heis2), (0.25, 1.0), ALPHA, DELTA, 100, 0)
        assert rep["pass"]
        assert all(pt["exceedances"] == 0 for pt in rep["tail_points"])

    def test_calibrated_atom_model(self, heis2):
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=DiscreteJumps([heis2.embed([0.4, 0.0])], [1.0]))
        rep = tail_decay_fit(model, (0.25, 1.0), ALPHA, DELTA, 1500, 3)
        assert rep["pass"]
        assert rep["fitted_slope"] <= np.log(rep["q_hat"]) + 0.1
        assert rep["params"]["jump_power"] == 1

    def test_quadrupling_trials_halves_slope_se(self, heis2, monkeypatch):
        # the exceedance floor scales with the trial count so both runs keep
        # the same usable-level policy and the binomial slope SE is comparable
        model = LevyModel(space=heis2, jump_intensity=2.0,
                          jump_law=DiscreteJumps([heis2.embed([0.4, 0.0])], [1.0]))
        monkeypatch.setattr(geometry, "MIN_EXCEEDANCES", 10)
        small = tail_decay_fit(model, (0.25, 1.0), ALPHA, DELTA, 800, 3)
        monkeypatch.setattr(geometry, "MIN_EXCEEDANCES", 40)
        big = tail_decay_fit(model, (0.25, 1.0), ALPHA, DELTA, 3200, 3)
        ratio = big["diagnostics"]["slope_se"] / small["diagnostics"]["slope_se"]
        assert 0.3 <= ratio <= 0.7


class TestMetricModulus:
    def test_zero_driver_all_zero(self, heis2):
        model = LevyModel(space=heis2)
        rep = metric_modulus_curve(model, 1.0, ALPHA, [0.25, 0.125], 50, 0, cells=64)
        assert rep["pass"]
        assert all(v == 0.0 for v in rep["diagnostics"]["values"])

    def test_brownian_jump_curve_decreases(self, moment_model):
        _, model = moment_model
        rep = metric_modulus_curve(model, 1.0, ALPHA,
                                   [0.25, 0.125, 0.0625, 0.03125, 0.015625],
                                   300, 3, cells=256)
        assert rep["pass"]
        values = rep["diagnostics"]["values"]
        assert values[-1] < values[0] / 4

    def test_rare_jump_window_scaling(self, heis2):
        # Poisson small-window oracle: jump mass inside a window of size w
        # scales like lambda * w, so the curve collapses with the window
        model = LevyModel(space=heis2, jump_intensity=1.0,
                          jump_law=DiscreteJumps([heis2.embed([0.3, 0.0])], [1.0]))
        rep = metric_modulus_curve(model, 1.0, ALPHA, [0.5, 0.125, 0.03125],
                                   600, 5, cells=128)
        values = rep["diagnostics"]["values"]
        assert values[-1] <= values[0] / 4

    def test_requires_p_two(self, heis3p):
        model = LevyModel(space=heis3p)
        with pytest.raises(ParameterError):
            metric_modulus_curve(model, 1.0, ALPHA, [0.25], 10, 0, cells=32)


class TestUnipotentBatteriesPinned:
    """The all-pairs batteries on the generic (unipotent) route, pinned to the
    sha256 of their canonical report JSON; the default-battery digests cover
    the Heisenberg group only.  150 trials leave a partial last trial chunk."""

    TRIALS, SEED, DELTA = 150, 5, 0.1
    # recorded while the generic pairwise route still built all m^2 pairs
    DIGESTS = {
        "expectation_bound": "17a71fb6713f8d2ae38d221a32a2cdeafc763e62effb5a332ae6e2a66cd07149",
        "largest_step": "0eda34cd1107e0a2244f21e789e269c9a5eff93bbdc4fe26c239fc756d1ec4d8",
        "exp_moment": "ba6a442008f3a779647e870e83c55fd72ff78fff75fde2c028e76124649b93cb",
        "tail_decay": "61c36381d3c6d76660bf0fe2b1d4e88b82bb984039bb9140e467fcb689ec1af7",
    }

    @pytest.mark.parametrize("battery", sorted(DIGESTS))
    def test_report_digest(self, battery, monkeypatch):
        assert self.TRIALS % TRIAL_CHUNK != 0
        group = UnipotentGroup(4)
        model = LevyModel(space=group, diffusion=0.03, jump_intensity=2.0,
                          jump_law=UniformBallJumps(0.05))
        grid = TimeGrid.uniform(1.0, 16)
        window = (0.25, 1.0)
        monkeypatch.setattr(geometry, "MIN_EXCEEDANCES", 5)   # the tail fit's floor at 150 trials
        rep = {
            "expectation_bound": lambda: mc_expectation_bound(
                model, grid, self.DELTA, self.TRIALS, self.SEED),
            "largest_step": lambda: mc_largest_step(
                model, grid, self.DELTA, self.TRIALS, self.SEED),
            "exp_moment": lambda: exp_moment_estimate(
                model, window, ALPHA, self.DELTA, self.TRIALS, self.SEED, cells=8),
            "tail_decay": lambda: tail_decay_fit(
                model, window, ALPHA, self.DELTA, self.TRIALS, self.SEED, cells=8),
        }[battery]()
        data = json.dumps(jsonable(rep), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[battery]
