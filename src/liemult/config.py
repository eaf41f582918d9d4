"""Experiment config parsing, schema validation, and the default battery.

Configs are JSON with four blocks: ``group``, ``grids``, ``models``, and an
ordered ``experiments`` list.  Every object has a schema of the rows of an
experiment's parameters, ``name -> (type, default[, bound])``, which
``experiments.check_fields`` checks: unknown keys are rejected everywhere, every
value has a declared type, and errors name the offending field path.  A value's
range is checked by the constructor that owns it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .additive import (DiscreteJumps, LevyModel, PiecewiseConstantRate, TimeGrid,
                       UniformBallJumps)
from .errors import ConfigError, rejected_at
from .experiments import (EXPERIMENTS, NONEMPTY, NUM, OPTIONAL, check_fields, resolve_params,
                          shown)
from .groups import ChartSpec, HeisenbergGroup, UnipotentGroup

__all__ = ["read_config", "load_config", "validate_config", "build_context", "default_config",
           "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_CONTEXT = {"group": (dict, None), "grids": (dict, {}), "models": (dict, {})}
_TOP = {"schema_version": (int, None), **_CONTEXT, "experiments": (NONEMPTY, None)}
_ENTRY = {"name": (str, None), "seed": (int, None, 0), "params": (dict, {})}
_CHART = {"rho_prime": (NUM, None), "rho_double_prime": (NUM, None),
          "bracket_bound": (NUM, None)}
# a kind's (schema, constructor), the schema without its ``kind`` row
_GROUPS = {
    "heisenberg": ({"N": (NUM, None), "p": (NUM, 2.0), "chart": (_CHART, OPTIONAL)},
                   lambda group: HeisenbergGroup(group["N"], group["p"], _chart(group))),
    "unipotent": ({"n": (NUM, None), "chart": (_CHART, OPTIONAL)},
                  lambda group: UnipotentGroup(group["n"], _chart(group))),
}
_GRID = {"T": (NUM, None), "cells": (NUM, None)}
_SCALE = {"breaks": ([NUM], None), "rates": ([NUM], None)}
# a model's space is bounded by the names of the group's spaces when it is built
_MODEL = {"space": (str, "group"), "drift": ((NUM, [NUM]), 0.0),
          "diffusion": ((NUM, [NUM]), 0.0), "jump_intensity": (NUM, 0.0),
          "jump_law": (dict, OPTIONAL), "scale": (_SCALE, OPTIONAL)}
# a subspace ball is the ball law on the given coordinates, a fixed atom a discrete
# law with one atom
_LAWS = {
    "uniform_ball": ({"radius": (NUM, None)}, lambda law: UniformBallJumps(law["radius"])),
    "subspace_ball": ({"radius": (NUM, None), "indices": ([NUM], None)},
                      lambda law: UniformBallJumps(law["radius"], law["indices"])),
    "fixed_atom": ({"vector": ([NUM], None)},
                   lambda law: DiscreteJumps([law["vector"]], [1.0])),
    "discrete": ({"vectors": ([[NUM]], None), "probs": ([NUM], None)},
                 lambda law: DiscreteJumps(law["vectors"], law["probs"])),
}


def _build_kind(block, table, path):
    """``block`` built by ``table[kind]``, its kind's (schema, constructor) pair; the
    ``kind``, one of the table's names, is checked before the block's other keys."""
    kind = {"kind": (str, None, tuple(table))}
    check_fields({key: block[key] for key in kind if key in block}
                 if isinstance(block, dict) else block, kind, path)
    schema, constructor = table[block["kind"]]
    fields = check_fields(block, {**kind, **schema}, path)
    with rejected_at(path):
        return constructor(fields)


def _chart(group):
    """The ChartSpec of a checked group block, None for the group's default chart."""
    return None if group["chart"] is None else ChartSpec(**group["chart"])


def validate_config(cfg: dict) -> dict:
    """Return the context of ``cfg``; raise ConfigError with a field path if it is invalid.

    The group, grids and models are checked as ``build_context`` builds them,
    so each range rule lives in one constructor; the experiment entries are
    then resolved against the built context, which is returned for the run.
    """
    top = check_fields(cfg, _TOP, "config")
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError("config.schema_version",
                          f"expected {SCHEMA_VERSION}, got {shown(top['schema_version'])}")
    ctx = build_context(top)
    for i, entry in enumerate(top["experiments"]):
        path = f"config.experiments[{i}]"
        entry = check_fields(entry, _ENTRY, path)
        if entry["name"] not in EXPERIMENTS:
            raise ConfigError(f"{path}.name", f"unknown experiment {shown(entry['name'])}")
        resolve_params(entry["name"], entry["params"], f"{path}.params", ctx)
    return ctx


def build_context(cfg: dict) -> dict:
    """Check and instantiate the group, grids and models of a config.

    Each block is checked against its schema just before it is built, and a
    value that a constructor rejects raises ConfigError at its block's path.
    """
    cfg = check_fields({key: cfg[key] for key in _CONTEXT if key in cfg}, _CONTEXT, "config")
    group = _build_kind(cfg["group"], _GROUPS, "config.group")
    grids = {}
    for name, block in cfg["grids"].items():
        with rejected_at(f"config.grids.{name}"):
            grids[name] = TimeGrid.uniform(**check_fields(block, _GRID, f"config.grids.{name}"))
    # a model's space: the group, or one coordinate block of a Heisenberg group
    spaces = {"group": group, **getattr(group, "block_spaces", {})}
    schema = {**_MODEL, "space": (str, "group", tuple(spaces))}
    models = {}
    for name, block in cfg["models"].items():
        path = f"config.models.{name}"
        model = check_fields(block, schema, path)   # LevyModel's fields
        if model["jump_law"] is not None:
            model["jump_law"] = _build_kind(model["jump_law"], _LAWS, f"{path}.jump_law")
        if model["scale"] is not None:
            with rejected_at(f"{path}.scale"):
                model["scale"] = PiecewiseConstantRate(**model["scale"])
        with rejected_at(path):
            models[name] = LevyModel(**{**model, "space": spaces[model["space"]]})
    return {"group": group, "grids": grids, "models": models}


def _integer(text: str) -> int:
    """A JSON integer literal as an int; one past int's digit limit raises a
    ValueError that gives its digits and the limit."""
    digits, limit = len(text.lstrip("-")), sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ValueError(f"an integer has {digits} digits, above the limit of {limit}")
    return int(text)


def read_config(path: str | Path) -> dict:
    """Parse a JSON config file without validating it; a syntax error raises a
    ``ConfigError`` at ``path:line:col``, an unreadable or non-UTF-8 file, or one that
    ``json`` cannot turn into values, one at ``path``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_int=_integer)
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
                                          "vector": [0.2, 0.0, 0.0, 0.0, 0.0]}},
            "tail_model": {"jump_intensity": 2.0,
                           "jump_law": {"kind": "fixed_atom",
                                        "vector": [0.4, 0.0, 0.0, 0.0, 0.0]}},
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
    }
