"""Every return branch of the battery reports, pinned byte for byte.

The default battery reaches only the full returns; these cases also reach the
early and inconclusive ones.  Each digest is the sha256 of
``json.dumps(jsonable(report), sort_keys=True)``, so a renamed, added or
dropped key, or a changed value, shows up here.
"""

import hashlib
import json
from unittest import mock

import pytest

from conftest import block_models
from liemult import (ChartSpec, HeisenbergGroup, JumpSetSpec, LevyModel, TimeGrid,
                     UniformBallJumps, UnipotentGroup, convergence_study,
                     mc_expectation_bound, mc_largest_step, mc_maximum_oscillation,
                     metric_modulus_curve, poisson_battery, product_exponential,
                     sample_additive, tail_decay_fit, uniform_continuity_probe,
                     verify_multiplicative)
from liemult import geometry
from liemult.config import build_context, default_config
from liemult.reporting import jsonable

HEIS = HeisenbergGroup(2, 2.0)
ZERO = LevyModel(space=HEIS)
HOT = LevyModel(space=HEIS, diffusion=50.0)                  # every increment leaves the ball
SMALL_CHART = UnipotentGroup(4, chart=ChartSpec(0.3, 0.2, 2.0))
DEFAULT = build_context(default_config())
MODELS, GRIDS = DEFAULT["models"], DEFAULT["grids"]


def _with_min_exceedances(count, build):
    """``build()`` with the tail fit's exceedance floor ``geometry.MIN_EXCEEDANCES`` at ``count``."""
    with mock.patch.object(geometry, "MIN_EXCEEDANCES", count):
        return build()


def _default_cocycle():
    path = product_exponential(sample_additive(MODELS["brownian_jump"], GRIDS["g256"], 107,
                                               stream=(0,)))
    return verify_multiplicative(path, samples=500, tol=1e-12, seed=107)


# name -> (report builder, (key, value) that marks the branch, digest)
CASES = {
    "poisson-underpowered": (
        lambda: poisson_battery(LevyModel(space=HEIS, jump_intensity=0.5,
                                          jump_law=UniformBallJumps(0.4)),
                                TimeGrid.uniform(1.0, 32), JumpSetSpec(0.05), 20, 0),
        ("pass", None),
        "58e846149c3d0e8348e7a0ea88f6aa12804524ce43c696b1648e89d79f5ec17e"),
    "expectation-alpha-near-one": (
        lambda: mc_expectation_bound(HOT, TimeGrid.uniform(1.0, 8), 0.5, 100, 0),
        ("tail", {"inconclusive": "alpha_hat too close to 1"}),
        "eaa1090cb9abc615762ec49000f801ea16cf3e8e3f33625bc1f62a91f8416e63"),
    "max-oscillation-alpha-one": (
        lambda: mc_maximum_oscillation(HOT, TimeGrid.uniform(1.0, 8), 0.5, 100, 0),
        ("notes", {"inconclusive": "alpha_hat >= 1"}),
        "1a15938837d971ee9dafa57ac54a47251a3e209ba568f8987139f4eda062863e"),
    "max-oscillation-superset-outside-chart": (
        lambda: mc_maximum_oscillation(LevyModel(space=SMALL_CHART, diffusion=0.1),
                                       TimeGrid.uniform(1.0, 8), 0.19, 50, 0),
        ("notes", {"inconclusive": "superset radius left the chart"}),
        "f84a65a39f34883181d96443b24fa9d6b190a6b6bd9da808f4ce9829df1a09d5"),
    "largest-step-superset-outside-chart": (
        lambda: mc_largest_step(LevyModel(space=SMALL_CHART, diffusion=0.1),
                                TimeGrid.uniform(1.0, 8), 0.19, 50, 0),
        ("notes", {"inconclusive": "superset radius left the chart"}),
        "1039af3b604aeb47f57a253bcd6ea16639cf7ffbcf680bf177200474d4645e9a"),
    "tail-decay-degenerate": (
        lambda: tail_decay_fit(ZERO, (0.25, 1.0), 0.5, 0.5, 100, 0),
        ("notes", {"degenerate": "no exceedances at any level"}),
        "a6b34c8d08dc94428347fa2f126c757f484e4205e236b674c72ef08d41939c29"),
    "tail-decay-inconclusive": (
        lambda: _with_min_exceedances(10**6, lambda: tail_decay_fit(
            MODELS["tail_model"], (0.25, 1.0), 0.5, 0.5, 200, 0)),
        ("notes", {"inconclusive": "fewer than two usable exceedance levels"}),
        "280be963c14b694c41e7f7a4509a543d7361b2654670b2870aabb6a55d930a9d"),
    "metric-modulus-all-zero": (
        lambda: metric_modulus_curve(ZERO, 1.0, 0.5, [0.25, 0.125], 20, 0, 64),
        ("estimate", 0.0),
        "44da808f3970c3010d5e3eb8d7eb6d5313d2510f501398b1504474208e81148b"),
    "continuity-none-found": (
        lambda: uniform_continuity_probe(HOT, 1.0, 0.5, 0.1, 50, 0, cells=16),
        ("none_found", True),
        "3a49eab78d37e10248314411c60c080da320ec330b019dc3fab85b780dd12fb7"),
    "convergence-no-slope": (
        lambda: convergence_study(HEIS, block_models(HEIS), TimeGrid.uniform(1.0, 4), 2, 3, 0),
        ("fitted_slope", None),
        "d5754890f42073d3798c01e0fcead0ca5cba032420dca9735511f5e8b28142c6"),
    "poisson-default": (
        lambda: poisson_battery(MODELS["cp_poisson"], GRIDS["poisson"], JumpSetSpec(0.05),
                                1000, 118),
        ("pass", True),
        "6bdca199381e693bf1217a11debcd4eb1b5d64ba3641cc6c750d761d7bff2b79"),
    "expectation-default": (
        lambda: mc_expectation_bound(MODELS["brownian_mild"], GRIDS["g32"], 0.5, 4000, 115),
        ("pass", True),
        "71f6b1aaf02b74bff5075ade11c9fe6dd664e0bcae0acc546308be90619bce69"),
    "cocycle-default": (_default_cocycle, ("pass", True),
                        "3dad65194a8e80869610d9f6a552f82df2de4274f3be19d4d036475b133e36a8"),
}


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(jsonable(report), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_branch_pinned(name):
    build, (key, value), digest = CASES[name]
    report = jsonable(build())
    assert report[key] == value
    assert report_digest(report) == digest
