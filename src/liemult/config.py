"""Experiment config parsing, schema validation, and the default battery.

Configs are JSON with four blocks: ``group``, ``grids``, ``models``, and an
ordered ``experiments`` list.  Validation is strict: unknown keys are
rejected everywhere, every experiment carries an explicit seed, and errors
name the offending field path.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .additive import (DiscreteJumps, LevyModel, PiecewiseConstantRate, TimeGrid,
                       UniformBallJumps)
from .errors import ConfigError
from .experiments import EXPERIMENTS, resolve_params
from .groups import group_from_config

__all__ = ["load_config", "validate_config", "build_context", "default_config",
           "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "group", "grids", "models", "experiments", "output"}
_GROUP_KEYS = {"heisenberg": {"kind", "N", "p", "chart"}, "unipotent": {"kind", "n", "chart"}}
_CHART_KEYS = {"rho_prime", "rho_double_prime", "bracket_bound"}
_GRID_KEYS = {"T", "cells"}
_MODEL_KEYS = {"space", "drift", "diffusion", "jump_intensity", "jump_law",
               "scale", "bound_delta"}
# jump-law kind -> (allowed keys, constructor): a subspace ball is the ball law on the
# given coordinates, a fixed atom a discrete law with one atom
_LAWS = {
    "uniform_ball": ({"kind", "radius"}, lambda law: UniformBallJumps(law["radius"])),
    "subspace_ball": ({"kind", "radius", "indices"},
                      lambda law: UniformBallJumps(law["radius"], law["indices"])),
    "fixed_atom": ({"kind", "vector"}, lambda law: DiscreteJumps([law["vector"]], [1.0])),
    "discrete": ({"kind", "vectors", "probs"},
                 lambda law: DiscreteJumps(law["vectors"], law["probs"])),
}
_SCALE_KEYS = {"breaks", "rates"}
_EXPERIMENT_KEYS = {"name", "seed", "params"}
_OUTPUT_KEYS = {"csv"}


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}")


def _require(obj, key, path):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


@contextmanager
def _at(path: str):
    """Report a constructor's rejection of a config value as a ConfigError at ``path``."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(path, f"missing required key {exc}") from exc
    # ParameterError, InvalidInputError, bad casts, and integers too large for a float
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def validate_config(cfg: dict) -> None:
    """Raise ConfigError (with a field path) on any schema violation.

    The key structure is checked here; the values of the group, grids and
    models are checked by building them (``build_context``), so each range
    rule lives in one constructor.
    """
    _check_keys(cfg, _TOP_KEYS, "config")
    version = _require(cfg, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version", f"expected {SCHEMA_VERSION}, got {version}")

    group = _require(cfg, "group", "config")
    _check_keys(group, set().union(*_GROUP_KEYS.values()), "config.group")
    kind = _require(group, "kind", "config.group")
    if kind not in _GROUP_KEYS:
        raise ConfigError("config.group.kind", f"unknown kind {kind!r}")
    extra = sorted(set(group) - _GROUP_KEYS[kind])
    if extra:
        raise ConfigError(f"config.group.{extra[0]}", f"not a {kind} parameter")
    if group.get("chart") is not None:
        _check_keys(group["chart"], _CHART_KEYS, "config.group.chart")

    grids = cfg.get("grids", {})
    if not isinstance(grids, dict):
        raise ConfigError("config.grids", "expected an object of named grids")
    for name, block in grids.items():
        _check_keys(block, _GRID_KEYS, f"config.grids.{name}")

    models = cfg.get("models", {})
    if not isinstance(models, dict):
        raise ConfigError("config.models", "expected an object of named models")
    for name, block in models.items():
        path = f"config.models.{name}"
        _check_keys(block, _MODEL_KEYS, path)
        space = block.get("space", "group")
        if space not in ("group", "x", "y", "z"):
            raise ConfigError(f"{path}.space", f"must be group/x/y/z, got {space!r}")
        if space != "group" and kind != "heisenberg":
            raise ConfigError(f"{path}.space", "block spaces are heisenberg-only")
        law = block.get("jump_law")
        if law is not None:
            lpath = f"{path}.jump_law"
            if not isinstance(law, dict) or "kind" not in law:
                raise ConfigError(lpath, "expected an object with a 'kind'")
            if law["kind"] not in _LAWS:
                raise ConfigError(f"{lpath}.kind", f"unknown jump law {law['kind']!r}")
            _check_keys(law, _LAWS[law["kind"]][0], lpath)
        scale = block.get("scale")
        if scale is not None:
            _check_keys(scale, _SCALE_KEYS, f"{path}.scale")
    ctx = build_context(cfg)

    experiments = _require(cfg, "experiments", "config")
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("config.experiments", "expected a nonempty list")
    for i, entry in enumerate(experiments):
        path = f"config.experiments[{i}]"
        _check_keys(entry, _EXPERIMENT_KEYS, path)
        name = _require(entry, "name", path)
        if name not in EXPERIMENTS:
            raise ConfigError(f"{path}.name", f"unknown experiment {name!r}")
        seed = _require(entry, "seed", path)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"{path}.seed", "every experiment needs an explicit"
                                              f" nonnegative integer seed, got {seed!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{path}.params", "expected an object")
        resolve_params(name, params, f"{path}.params", ctx)

    if "output" in cfg:
        _check_keys(cfg["output"], _OUTPUT_KEYS, "config.output")


def build_context(cfg: dict) -> dict:
    """Instantiate group/grids/models from a config with a valid key structure.

    A value that a constructor rejects raises ConfigError at its field path.
    """
    with _at("config.group"):
        group = group_from_config(cfg["group"])
    grids = {}
    for name, block in cfg.get("grids", {}).items():
        with _at(f"config.grids.{name}"):
            grids[name] = TimeGrid.uniform(block["T"], block["cells"])
    models = {}
    for name, block in cfg.get("models", {}).items():
        path = f"config.models.{name}"
        law = scale = None
        if block.get("jump_law"):
            with _at(f"{path}.jump_law"):
                law = _LAWS[block["jump_law"]["kind"]][1](block["jump_law"])
        if block.get("scale"):
            with _at(f"{path}.scale"):
                scale = PiecewiseConstantRate(np.asarray(block["scale"]["breaks"], dtype=float),
                                              np.asarray(block["scale"]["rates"], dtype=float))
        tag = block.get("space", "group")
        with _at(path):
            models[name] = LevyModel(
                space=group if tag == "group" else getattr(group, f"{tag}_space"),
                drift=np.asarray(block.get("drift", 0.0), dtype=float),
                diffusion=np.asarray(block.get("diffusion", 0.0), dtype=float),
                jump_intensity=block.get("jump_intensity", 0.0),
                jump_law=law,
                scale=scale,
                bound_delta=block.get("bound_delta"),
            )
    return {"group": group, "grids": grids, "models": models}


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    validate_config(cfg)
    return cfg


def default_config() -> dict:
    """The default verification battery on a small Heisenberg instance."""
    return {
        "schema_version": SCHEMA_VERSION,
        "group": {"kind": "heisenberg", "N": 2, "p": 2.0},
        "grids": {
            "g16": {"T": 1.0, "cells": 16},
            "g32": {"T": 1.0, "cells": 32},
            "g64": {"T": 1.0, "cells": 64},
            "g256": {"T": 1.0, "cells": 256},
            "g512": {"T": 1.0, "cells": 512},
            "poisson": {"T": 5.0, "cells": 4000},
        },
        "models": {
            "brownian_mild": {"diffusion": 0.11},
            "brownian_hot": {"diffusion": 0.22},
            "brownian_probe": {"diffusion": 0.35},
            "brownian_jump": {"diffusion": 0.2, "jump_intensity": 2.0,
                              "jump_law": {"kind": "uniform_ball", "radius": 0.5}},
            "cp_detector": {"diffusion": 0.15, "jump_intensity": 3.0,
                            "jump_law": {"kind": "fixed_atom",
                                         "vector": [0.6, 0.0, 0.0, 0.0, 0.0]}},
            "cp_poisson": {"jump_intensity": 2.0,
                           "jump_law": {"kind": "uniform_ball", "radius": 0.4}},
            "cp_nonstat": {"jump_intensity": 2.0,
                           "jump_law": {"kind": "uniform_ball", "radius": 0.4},
                           "scale": {"breaks": [0.0, 2.5], "rates": [0.1, 6.0]}},
            "moment_model": {"diffusion": [0.10, 0.10, 0.0, 0.0, 0.0],
                             "jump_intensity": 1.0,
                             "jump_law": {"kind": "fixed_atom",
                                          "vector": [0.2, 0.0, 0.0, 0.0, 0.0]},
                             "bound_delta": 0.2},
            "tail_model": {"jump_intensity": 2.0,
                           "jump_law": {"kind": "fixed_atom",
                                        "vector": [0.4, 0.0, 0.0, 0.0, 0.0]},
                           "bound_delta": 0.4},
            "block_brownian_x": {"space": "x", "diffusion": 0.5},
            "block_brownian_y": {"space": "y", "diffusion": 0.5},
            "block_brownian_z": {"space": "z", "diffusion": 0.2},
            "block_cp_x": {"space": "x", "jump_intensity": 3.0,
                           "jump_law": {"kind": "uniform_ball", "radius": 0.5}},
            "block_cp_y": {"space": "y", "jump_intensity": 3.0,
                           "jump_law": {"kind": "uniform_ball", "radius": 0.5}},
            "block_zero_z": {"space": "z"},
        },
        "experiments": [
            {"name": "group-axioms", "seed": 101, "params": {"samples": 5000}},
            {"name": "exp-log-roundtrip", "seed": 102, "params": {"samples": 5000}},
            {"name": "bch-consistency", "seed": 103, "params": {"samples": 5000}},
            {"name": "bracket-properties", "seed": 104, "params": {"samples": 5000}},
            {"name": "chart-certification", "seed": 105,
             "params": {"delta": 0.1, "power": 3, "products": 20000}},
            {"name": "additive-determinism", "seed": 106,
             "params": {"model": "brownian_jump", "grid": "g64"}},
            {"name": "cocycle-exactness", "seed": 107,
             "params": {"model": "brownian_jump", "grid": "g256", "paths": 3,
                        "triples": 500}},
            {"name": "product-limit-convergence", "seed": 108,
             "params": {"model_x": "block_brownian_x", "model_y": "block_brownian_y",
                        "model_z": "block_brownian_z", "grid": "g16",
                        "refinements": 5, "trials": 60, "expect": "order-half"}},
            {"name": "product-limit-convergence", "seed": 109,
             "params": {"model_x": "block_cp_x", "model_y": "block_cp_y",
                        "model_z": "block_zero_z", "grid": "g16",
                        "refinements": 6, "trials": 30, "expect": "jump-separation"}},
            {"name": "right-limit-refinement", "seed": 110,
             "params": {"model": "brownian_jump", "grid": "g64", "trials": 10,
                        "refinements": 3}},
            {"name": "oscillation-dp-bruteforce", "seed": 111,
             "params": {"instances": 300, "max_points": 10}},
            {"name": "oscillation-axioms", "seed": 112,
             "params": {"model": "brownian_mild", "grid": "g16", "paths": 6,
                        "cases": 300, "delta": 0.25}},
            {"name": "max-oscillation-bound", "seed": 113,
             "params": {"model": "brownian_hot", "grid": "g32", "delta": 0.5,
                        "trials": 4000}},
            {"name": "largest-step-bound", "seed": 114,
             "params": {"model": "brownian_hot", "grid": "g32", "delta": 0.5,
                        "trials": 4000}},
            {"name": "expectation-bound", "seed": 115,
             "params": {"model": "brownian_mild", "grid": "g32", "delta": 0.5,
                        "trials": 4000}},
            {"name": "uniform-continuity-probe", "seed": 116,
             "params": {"model": "brownian_probe", "T": 1.0, "delta": 1.0,
                        "alpha": 0.1, "trials": 1500, "cells": 64}},
            {"name": "detector-fidelity", "seed": 117,
             "params": {"model": "cp_detector", "grid": "g512", "epsilon": 0.25,
                        "trials": 300}},
            {"name": "poisson-battery", "seed": 118,
             "params": {"model": "cp_poisson", "grid": "poisson", "epsilon": 0.05,
                        "trials": 1000}},
            {"name": "restart-probe", "seed": 119,
             "params": {"model": "cp_poisson", "grid": "poisson", "epsilon": 0.05,
                        "h": 0.25, "trials": 1000, "expect": "match"}},
            {"name": "restart-probe", "seed": 120,
             "params": {"model": "cp_nonstat", "grid": "poisson", "epsilon": 0.05,
                        "h": 0.25, "trials": 1000, "expect": "reject"}},
            {"name": "step-triangle", "seed": 121,
             "params": {"samples": 400, "delta": 0.5}},
            {"name": "gauge-metric", "seed": 122, "params": {"samples": 100000}},
            {"name": "bounded-jumps-gate", "seed": 123,
             "params": {"model": "moment_model", "delta": 0.5, "n_power": 1,
                        "expect": True}},
            {"name": "bounded-jumps-gate", "seed": 124,
             "params": {"model": "tail_model", "delta": 0.1, "n_power": 2,
                        "expect": False}},
            {"name": "exp-moment", "seed": 125,
             "params": {"model": "moment_model", "r": 0.25, "u": 1.0, "alpha": 0.5,
                        "delta": 0.5, "trials": 800}},
            {"name": "tail-decay", "seed": 126,
             "params": {"model": "tail_model", "r": 0.25, "u": 1.0, "alpha": 0.5,
                        "delta": 0.5, "trials": 1500}},
            {"name": "metric-modulus", "seed": 127,
             "params": {"model": "moment_model", "T": 1.0, "alpha": 0.5,
                        "window_sizes": [0.25, 0.125, 0.0625, 0.03125, 0.015625],
                        "trials": 300, "cells": 256}},
        ],
        "output": {"csv": False},
    }
