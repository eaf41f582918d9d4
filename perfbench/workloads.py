"""Benchmark workloads: one generated ``liemult run`` config per name.

The first three workloads split the built-in default battery between them,
so together they run exactly ``liemult run --default``.  Each stresses a
different layer:

* ``jump-stream``: additive path sampling on a 4000-cell grid, including the
  per-cell ``PiecewiseConstantRate.sample_times`` loop of the rate-scaled
  restart probe; the jump batteries and KS tests sit on top of it.
* ``pairwise-mc``: few, large Heisenberg ``mul``/``norm`` broadcasts over
  (chunk, cells+1, cells+1, dim) arrays, the oscillation DP on batches and
  the vectorised step counter.
* ``kernel-checks``: the same ``groups`` and ``regularity`` code in the
  opposite shape, tens of thousands of tiny calls, so per-call overhead
  shows here.
* ``unipotent-mc``: the generic ``_NilpotentGroup`` path on 4x4 unitriangular
  matrices (matrix ``mul``/``exp``/``log``, the SVD operator norm, the
  sequential prefix loop and the per-element step-count fallback), which no
  default experiment reaches.

The program only ever sees the generated config file.  Seed 0 keeps the
configured per-experiment seeds (101-127 for the default battery); any other
workload seed ``s`` shifts each of them by ``1000 * s``.
"""

from __future__ import annotations

import copy

# Indices into default_config()["experiments"].
DEFAULT_SPLIT = {
    "jump-stream": [16, 17, 18, 19],
    "pairwise-mc": [12, 13, 14, 15, 24, 25, 26],
    "kernel-checks": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21, 22, 23],
}

WORKLOADS = ("jump-stream", "pairwise-mc", "kernel-checks", "unipotent-mc")

SEED_STRIDE = 1000

# Sized so that one --jobs 1 run takes a few seconds, like kernel-checks;
# delta must stay below rho_double_prime = 0.125 of the default unipotent chart.
UNIPOTENT_CONFIG = {
    "schema_version": 1,
    "group": {"kind": "unipotent", "n": 4},
    "grids": {"g32": {"T": 1.0, "cells": 32}, "g64": {"T": 1.0, "cells": 64}},
    "models": {
        "brownian": {"diffusion": 0.03},
        "brownian_small": {"diffusion": 0.005},
        "brownian_jump": {"diffusion": 0.03, "jump_intensity": 2.0,
                          "jump_law": {"kind": "uniform_ball", "radius": 0.05}},
    },
    "experiments": [
        {"name": "group-axioms", "seed": 201, "params": {"samples": 5000}},
        {"name": "bch-consistency", "seed": 202, "params": {"samples": 5000, "scale": 0.3}},
        {"name": "cocycle-exactness", "seed": 203,
         "params": {"model": "brownian_jump", "grid": "g64", "paths": 3, "triples": 500}},
        {"name": "expectation-bound", "seed": 204,
         "params": {"model": "brownian", "grid": "g32", "delta": 0.1, "trials": 500}},
        {"name": "largest-step-bound", "seed": 205,
         "params": {"model": "brownian", "grid": "g32", "delta": 0.1, "trials": 500}},
        {"name": "step-triangle", "seed": 206, "params": {"samples": 20, "delta": 0.1}},
        # window increments stay ~20 standard deviations inside the delta-ball,
        # so every step count is 1 and the battery passes; it is here for the
        # per-element step_counts_batch loop of the generic group
        {"name": "exp-moment", "seed": 207,
         "params": {"model": "brownian_small", "r": 0.25, "u": 1.0, "alpha": 0.5,
                    "delta": 0.1, "trials": 200, "cells": 8}},
    ],
}


def make_config(workload: str, seed: int, default_config: dict) -> dict:
    """The config ``liemult run`` receives for ``workload`` at workload ``seed``.

    ``default_config`` is ``liemult.config.default_config()``; it is passed in
    so that this module imports nothing from the program.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be nonnegative, got {seed}")
    if workload in DEFAULT_SPLIT:
        cfg = copy.deepcopy(default_config)
        cfg["experiments"] = [cfg["experiments"][i] for i in DEFAULT_SPLIT[workload]]
    elif workload == "unipotent-mc":
        cfg = copy.deepcopy(UNIPOTENT_CONFIG)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for entry in cfg["experiments"]:
        entry["seed"] += SEED_STRIDE * seed
    return cfg
