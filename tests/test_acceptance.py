"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance below is pinned; nothing is deferred to later
calibration.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import block_models
from liemult import (DiscreteJumps, HeisenbergGroup, JumpSetSpec, LevyModel,
                     PiecewiseConstantRate, TimeGrid, UniformBallJumps,
                     UnipotentGroup, convergence_study, detector_fidelity,
                     exhaustive_count_reference,
                     exp_moment_estimate, heisenberg_exact, mc_expectation_bound,
                     mc_largest_step, mc_maximum_oscillation, metric_modulus_curve,
                     oscillation_counts_from_outside, poisson_battery,
                     product_exponential, restart_probe, sample_additive,
                     step_count_upper, tail_decay_fit, verify_multiplicative)
from liemult.cli import main as cli_main
from liemult.rng import substream

# sha256 of every file `liemult run --default` writes; a change that alters a
# report byte updates this file and declares the change.
GOLDEN_DIGESTS = Path(__file__).with_name("default_reports.sha256")
# the same for a small config on HeisenbergGroup(9, 3.0), whose block sums have 9
# terms where every default experiment's have at most 2
N9_CONFIG = Path(__file__).with_name("heisenberg_n9.json")
N9_DIGESTS = Path(__file__).with_name("heisenberg_n9_reports.sha256")
# the same for UnipotentGroup(4), whose threshold batteries decide most pairs from the
# max-abs and Frobenius bounds of the spectral norm
U4_CONFIG = Path(__file__).with_name("unipotent_n4.json")
U4_DIGESTS = Path(__file__).with_name("unipotent_n4_reports.sha256")


def unpinned_reports(out: Path, digests: Path) -> list:
    """The files in ``out`` whose sha256 differs from its line in ``digests``, a
    ``sha256sum`` listing that must name exactly the files in ``out``."""
    golden = dict(reversed(line.split("  ")) for line in digests.read_text().splitlines())
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(golden)
    return [name for name in names
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != golden[name]]


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        in_budget = elapsed < budget_seconds
        verdict = "PASS" if (outcome["ok"] and in_budget) else "FAIL"
        print(f"\nACCEPTANCE {number} ({label}): {verdict} [{elapsed:.1f}s"
              f" / budget {budget_seconds}s]")
    if outcome["ok"] and not in_budget:
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")


def test_criterion_1_kernel_suite():
    cases = 10**4
    with criterion(1, "algebra/group kernels", 10):
        for group, scale in ((HeisenbergGroup(8, 2.0), 2.0),
                             (HeisenbergGroup(4, 3.0), 2.0),
                             (UnipotentGroup(4), 0.45)):
            rng = substream(2024, "acceptance-kernels", repr(group))
            g, h, k = (group.exp(rng.standard_normal((cases, group.dim)) * scale)
                       for _ in range(3))
            assoc = group.norm(group.log(group.mul(group.mul(g, h), k))
                               - group.log(group.mul(g, group.mul(h, k))))
            assert np.max(assoc) <= 1e-12
            ident = group.norm(group.log(group.mul(g, group.inv(g))))
            assert np.max(ident) <= 1e-12

            vecs = rng.standard_normal((cases, group.dim)) * scale
            assert np.max(group.norm(group.log(group.exp(vecs)) - vecs)) <= 1e-10

            u = rng.standard_normal((cases, group.dim)) * (scale / 2)
            v = rng.standard_normal((cases, group.dim)) * (scale / 2)
            bch_defect = group.norm(group.bch(u, v)
                                    - group.log(group.mul(group.exp(u), group.exp(v))))
            assert np.max(bch_defect) <= 1e-12


def test_criterion_2_cocycle_exactness():
    group = HeisenbergGroup(2, 2.0)
    grid = TimeGrid.uniform(1.0, 2**10)
    with criterion(2, "discrete cocycle exactness", 30):
        driver = sample_additive(
            LevyModel(space=group, diffusion=0.4, jump_intensity=3.0,
                      jump_law=UniformBallJumps(0.5)), grid, 77)
        product_path = product_exponential(driver)
        rep = verify_multiplicative(product_path, samples=1000, tol=1e-12, seed=7)
        assert rep["pass"], rep

        blocks = block_models(group, x={"diffusion": 0.5}, y={"diffusion": 0.5},
                              z={"diffusion": 0.2})
        x = sample_additive(blocks["x"], grid, 78)
        y = sample_additive(blocks["y"], grid, 79)
        z = sample_additive(blocks["z"], grid, 80)
        exact_path = heisenberg_exact(x, y, z, group)
        rep = verify_multiplicative(exact_path, samples=1000, tol=1e-12, seed=8)
        assert rep["pass"], rep


def test_criterion_3_product_limit_convergence():
    group = HeisenbergGroup(2, 2.0)
    base = TimeGrid.uniform(1.0, 16)
    with criterion(3, "product-limit convergence", 300):
        cp = block_models(
            group,
            x={"jump_intensity": 3.0, "jump_law": UniformBallJumps(0.5)},
            y={"jump_intensity": 3.0, "jump_law": UniformBallJumps(0.5)})
        rep = convergence_study(group, cp, base, refinements=6, trials=200, seed=31)
        assert min(rep["rms_errors"]) <= 1e-12, rep["rms_errors"]

        brown = block_models(group, x={"diffusion": 0.5}, y={"diffusion": 0.5},
                             z={"diffusion": 0.2})
        rep = convergence_study(group, brown, base, refinements=6, trials=200, seed=32)
        assert rep["fitted_slope"] is not None
        assert 0.35 <= rep["fitted_slope"] <= 0.65, rep["fitted_slope"]


def test_criterion_4_oscillation_dp_vs_bruteforce():
    rng = substream(2024, "acceptance-dp")
    with criterion(4, "oscillation DP equals brute force", 60):
        for _ in range(10**3):
            size = int(rng.integers(2, 13))
            outside = np.triu(rng.random((size, size)) < rng.uniform(0.05, 0.85), k=1)
            dp = int(oscillation_counts_from_outside(outside))
            assert dp == exhaustive_count_reference(outside)


def test_criterion_5_lemma_batteries():
    group = HeisenbergGroup(2, 2.0)
    trials = 10**4
    with criterion(5, "oscillation lemma batteries", 600):
        hot = LevyModel(space=group, diffusion=0.22)
        grid32 = TimeGrid.uniform(1.0, 32)
        rep = mc_maximum_oscillation(hot, grid32, 0.5, trials, 41)
        assert rep["pass"], rep
        assert 0 < rep["estimates"]["alpha_hat"] < 1

        grid64 = TimeGrid.uniform(1.0, 64)
        rep = mc_largest_step(hot, grid64, 0.5, trials, 42)
        assert rep["pass"], rep

        mild = LevyModel(space=group, diffusion=0.115)
        rep = mc_expectation_bound(mild, grid32, 0.5, trials, 43)
        assert rep["pass"], rep
        assert 0.15 <= rep["alpha_hat"] <= 0.45          # informative regime
        assert rep["mean_count"] <= rep["bound"] + rep["slack"]
        for m in range(1, 5):
            entry = rep["tail"][f"m={m}"]
            assert entry["pass"], (m, entry)


def test_criterion_6_jump_battery():
    group = HeisenbergGroup(2, 2.0)
    with criterion(6, "jump detection and Poisson statistics", 600):
        detector_model = LevyModel(space=group, diffusion=0.15, jump_intensity=3.0,
                                   jump_law=DiscreteJumps([group.embed([0.6, 0.0])], [1.0]))
        rep = detector_fidelity(detector_model, TimeGrid.uniform(1.0, 512), JumpSetSpec(0.25),
                                500, 51)
        assert rep["scored_true_jumps"] > 0 and rep["hitting_times"]
        assert rep["precision"] == 1.0 and rep["recall"] == 1.0

        grid = TimeGrid.uniform(5.0, 8192)
        jump_set = JumpSetSpec(0.05)
        for lam, seed in ((1.0, 52), (2.0, 53), (5.0, 54)):
            model = LevyModel(space=group, jump_intensity=lam,
                              jump_law=UniformBallJumps(0.4))
            rep = poisson_battery(model, grid, jump_set, 2000, seed)
            assert rep["pass"], (lam, rep)
            se = np.sqrt(lam / (5.0 * 2000))
            assert abs(rep["lambda_hat"] - lam) <= 3 * se
            assert abs(rep["dispersion"] - 1.0) <= 0.1
            assert abs(rep["window_correlation"]) <= 3.0 / np.sqrt(2000)
            assert rep["ks"]["aggregated_pvalue"] > 0.01

        probe_grid = TimeGrid.uniform(5.0, 2000)
        stationary = LevyModel(space=group, jump_intensity=2.0,
                               jump_law=UniformBallJumps(0.4))
        rep = restart_probe(stationary, probe_grid, jump_set, 0.25, 2000, 55)
        assert rep["pass"] is True, rep

        nonstat = LevyModel(space=group, jump_intensity=2.0,
                            jump_law=UniformBallJumps(0.4),
                            scale=PiecewiseConstantRate(np.array([0.0, 2.5]),
                                                        np.array([0.1, 6.0])))
        rep = restart_probe(nonstat, probe_grid, jump_set, 0.25, 2000, 55)
        assert rep["pass"] is False, rep


def test_criterion_7_moment_battery():
    group = HeisenbergGroup(2, 2.0)
    alpha, delta = 0.5, 0.5
    with criterion(7, "exponential moment battery", 600):
        # factor certification on every call, including adversarial scales
        rng = substream(2024, "acceptance-steps")
        for scale in (0.1, 1.0, 4.0):
            for vec in rng.standard_normal((50, group.dim)) * scale:
                res = step_count_upper(group, group.exp(vec), delta)
                assert res.certified_defect <= 1e-10

        moment_model = LevyModel(space=group,
                                 diffusion=np.array([0.10, 0.10, 0.0, 0.0, 0.0]),
                                 jump_intensity=1.0,
                                 jump_law=DiscreteJumps([group.embed([0.2, 0.0])], [1.0]),
                                 bound_delta=0.2)
        rep = exp_moment_estimate(moment_model, (0.25, 1.0), alpha, delta, 10**3, 61)
        assert rep["pass"], rep
        assert rep["diagnostics"]["running_mean"]["pass"]
        assert rep["diagnostics"]["partial_max"]["pass"]

        tail_model = LevyModel(space=group, jump_intensity=2.0,
                               jump_law=DiscreteJumps([group.embed([0.4, 0.0])], [1.0]),
                               bound_delta=0.4)
        rep = tail_decay_fit(tail_model, (0.25, 1.0), alpha, delta, 1500, 62)
        assert rep["pass"], rep
        assert rep["fitted_slope"] <= np.log(rep["q_hat"]) + 0.1

        rep = metric_modulus_curve(moment_model, 1.0, alpha,
                                   [0.25, 0.125, 0.0625, 0.03125, 0.015625],
                                   400, 63, cells=256)
        assert rep["pass"], rep
        values = rep["diagnostics"]["values"]
        assert values[-1] < values[0] / 4
        assert not rep["diagnostics"]["inversions"]


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reports", 900):
        outs = []
        for args in (["--out", str(tmp_path / "r1")],
                     ["--out", str(tmp_path / "r2")],
                     ["--out", str(tmp_path / "r3"), "--jobs", "4"]):
            assert cli_main(["run", "--default", *args]) == 0
            outs.append(args[1])
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert "summary.json" in names
        for name in names:
            blob = (tmp_path / "r1" / name).read_bytes()
            assert blob == (tmp_path / "r2" / name).read_bytes(), name
            assert blob == (tmp_path / "r3" / name).read_bytes(), name
        summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
        assert summary["counts"]["fail"] == 0

        changed = unpinned_reports(tmp_path / "r1", GOLDEN_DIGESTS)
        assert changed == [], f"report bytes differ from {GOLDEN_DIGESTS.name}: {changed}"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reports_pinned_at_n9(tmp_path, jobs):
    assert cli_main(["run", str(N9_CONFIG), "--out", str(tmp_path), "--jobs", jobs]) == 0
    changed = unpinned_reports(tmp_path, N9_DIGESTS)
    assert changed == [], f"report bytes differ from {N9_DIGESTS.name}: {changed}"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_reports_pinned_at_unipotent_n4(tmp_path, jobs):
    assert cli_main(["run", str(U4_CONFIG), "--out", str(tmp_path), "--jobs", jobs]) == 0
    changed = unpinned_reports(tmp_path, U4_DIGESTS)
    assert changed == [], f"report bytes differ from {U4_DIGESTS.name}: {changed}"


@pytest.mark.parametrize("trial_chunk, fold_chunk", [(8, 1), (200, 64)])
def test_unipotent_n4_reports_do_not_depend_on_chunk_sizes(tmp_path, monkeypatch,
                                                           trial_chunk, fold_chunk):
    # the trial chunks of the pairwise batteries and the word chunks of the step
    # counter are free to retune: the reports are the pinned ones at other sizes
    monkeypatch.setattr("liemult.multiplicative.TRIAL_CHUNK", trial_chunk)
    monkeypatch.setattr("liemult.geometry.FOLD_CHUNK", fold_chunk)
    assert cli_main(["run", str(U4_CONFIG), "--out", str(tmp_path), "--jobs", "1"]) == 0
    changed = unpinned_reports(tmp_path, U4_DIGESTS)
    assert changed == [], f"report bytes differ from {U4_DIGESTS.name}: {changed}"
