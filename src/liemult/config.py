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

from .additive import (DiscreteJumps, LevyModel, PiecewiseConstantRate, TimeGrid,
                       UniformBallJumps)
from .errors import ConfigError
from .experiments import EXPERIMENTS, resolve_params
from .groups import ChartSpec, HeisenbergGroup, UnipotentGroup

__all__ = ["read_config", "load_config", "validate_config", "build_context", "default_config",
           "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "group", "grids", "models", "experiments", "output"}
# a block's (allowed keys, constructor); the group and the jump laws have one per kind
_GROUPS = {
    "heisenberg": ({"kind", "N", "p", "chart"},
                   lambda group: HeisenbergGroup(group["N"], group.get("p", 2.0), _chart(group))),
    "unipotent": ({"kind", "n", "chart"}, lambda group: UnipotentGroup(group["n"], _chart(group))),
}
_CHART_KEYS = {"rho_prime", "rho_double_prime", "bracket_bound"}
_GRID = ({"T", "cells"}, lambda grid: TimeGrid.uniform(grid["T"], grid["cells"]))
_MODEL_KEYS = {"space", "drift", "diffusion", "jump_intensity", "jump_law",
               "scale", "bound_delta"}
# a subspace ball is the ball law on the given coordinates, a fixed atom a discrete
# law with one atom
_LAWS = {
    "uniform_ball": ({"kind", "radius"}, lambda law: UniformBallJumps(law["radius"])),
    "subspace_ball": ({"kind", "radius", "indices"},
                      lambda law: UniformBallJumps(law["radius"], law["indices"])),
    "fixed_atom": ({"kind", "vector"}, lambda law: DiscreteJumps([law["vector"]], [1.0])),
    "discrete": ({"kind", "vectors", "probs"},
                 lambda law: DiscreteJumps(law["vectors"], law["probs"])),
}
_SCALE = ({"breaks", "rates"},
          lambda scale: PiecewiseConstantRate(scale["breaks"], scale["rates"]))
_EXPERIMENT_KEYS = {"name", "seed", "params"}
_OUTPUT_KEYS = {"csv"}


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}")


def _reject_booleans(obj, path):
    """Raise ConfigError at the first JSON boolean in ``obj``.

    ``isinstance(True, int)`` holds and ``True == 1``, so without this a
    ``true`` would pass as 1 wherever a seed, count, length or vector entry is
    checked as a number.
    """
    if isinstance(obj, bool):
        raise ConfigError(path, "a boolean is allowed only in a boolean field,"
                                f" got {json.dumps(obj)}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _reject_booleans(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _reject_booleans(value, f"{path}[{i}]")


def _require(obj, key, path):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


@contextmanager
def _at(path: str):
    """Report a constructor's rejection of a config value as a ConfigError at ``path``.

    A ConfigError raised inside, by the check of a nested block, keeps its own path.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(path, f"missing required key {exc}") from exc
    # ParameterError, InvalidInputError, bad casts, integers too large for a float,
    # and a grid too large to allocate
    except (ValueError, TypeError, OverflowError, MemoryError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _build(block, spec, path):
    """``block`` built by ``spec``, its (allowed keys, constructor), once its keys are checked."""
    keys, constructor = spec
    _check_keys(block, keys, path)
    with _at(path):
        return constructor(block)


def _build_kind(block, table, path):
    """``block`` built by ``table[kind]``, its ``kind`` being one of the table's strings."""
    if not isinstance(block, dict):
        raise ConfigError(path, f"expected an object, got {type(block).__name__}")
    kind = _require(block, "kind", path)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}.kind", f"expected one of {sorted(table)}, got {kind!r}")
    return _build(block, table[kind], path)


def _chart(group):
    """The ChartSpec of a group block, None for the group's default chart."""
    if group.get("chart") is None:
        return None
    _check_keys(group["chart"], _CHART_KEYS, "config.group.chart")
    return ChartSpec(**group["chart"])


def _named_blocks(cfg, key):
    blocks = cfg.get(key, {})
    if not isinstance(blocks, dict):
        raise ConfigError(f"config.{key}", f"expected an object of named {key}")
    return blocks.items()


def validate_config(cfg: dict) -> dict:
    """Return the context of ``cfg``; raise ConfigError with a field path if it is invalid.

    The group, grids and models are checked as ``build_context`` builds them,
    so each range rule lives in one constructor; the experiment entries are
    then resolved against the built context, which is returned for the run.
    """
    _check_keys(cfg, _TOP_KEYS, "config")
    version = _require(cfg, "schema_version", "config")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError("config.schema_version",
                          f"expected {SCHEMA_VERSION}, got {json.dumps(version)}")
    ctx = build_context(cfg)

    experiments = _require(cfg, "experiments", "config")
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("config.experiments", "expected a nonempty list")
    for i, entry in enumerate(experiments):
        path = f"config.experiments[{i}]"
        _check_keys(entry, _EXPERIMENT_KEYS, path)
        name = _require(entry, "name", path)
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(f"{path}.name", f"unknown experiment {name!r}")
        seed = _require(entry, "seed", path)
        _reject_booleans(seed, f"{path}.seed")
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"{path}.seed", "every experiment needs an explicit"
                                              f" nonnegative integer seed, got {seed!r}")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{path}.params", "expected an object")
        resolve_params(name, params, f"{path}.params", ctx)

    output = cfg.get("output", {})
    _check_keys(output, _OUTPUT_KEYS, "config.output")
    if not isinstance(output.get("csv", False), bool):
        raise ConfigError("config.output.csv",
                          f"expected a boolean, got {json.dumps(output['csv'])}")
    return ctx


def build_context(cfg: dict) -> dict:
    """Check and instantiate the group, grids and models of a config.

    Each block's keys are checked just before it is built, and a JSON boolean
    anywhere in these blocks is rejected.  A value that a constructor rejects
    raises ConfigError at its block's path.
    """
    for key in ("group", "grids", "models"):
        _reject_booleans(cfg.get(key), f"config.{key}")
    group = _build_kind(_require(cfg, "group", "config"), _GROUPS, "config.group")
    grids = {name: _build(block, _GRID, f"config.grids.{name}")
             for name, block in _named_blocks(cfg, "grids")}
    # a model's space: the group, or one coordinate block of a Heisenberg group
    spaces = {"group": group, **getattr(group, "block_spaces", {})}
    models = {}
    for name, block in _named_blocks(cfg, "models"):
        path = f"config.models.{name}"
        _check_keys(block, _MODEL_KEYS, path)
        tag = block.get("space", "group")
        if not isinstance(tag, str) or tag not in spaces:   # tag may be unhashable
            raise ConfigError(f"{path}.space", f"expected one of {sorted(spaces)}, got {tag!r}")
        law, scale = block.get("jump_law"), block.get("scale")
        if law is not None:
            law = _build_kind(law, _LAWS, f"{path}.jump_law")
        if scale is not None:
            scale = _build(scale, _SCALE, f"{path}.scale")
        with _at(path):   # the model block's keys are LevyModel's fields
            models[name] = LevyModel(**{**block, "space": spaces[tag], "jump_law": law,
                                        "scale": scale})
    return {"group": group, "grids": grids, "models": models}


def read_config(path: str | Path) -> dict:
    """Parse a JSON config file without validating it; a syntax error raises a
    ``ConfigError`` at ``path:line:col``, an unreadable or non-UTF-8 file, or one that
    ``json`` cannot turn into values, one at ``path``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    # a ValueError is a non-UTF-8 byte or an integer past int's digit limit, and a
    # RecursionError nesting past the parser's limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(str(path), getattr(exc, "strerror", None) or str(exc)) from exc


def load_config(path: str | Path) -> dict:
    """Parse and validate a JSON config file."""
    cfg = read_config(path)
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
