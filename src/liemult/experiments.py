"""Named experiment catalog for the batch driver.

Each experiment wraps one verification battery: it consumes a group, named
models and grids from the config, runs at an explicit seed, and returns a
JSON-ready report with a ``status`` of ``pass``, ``fail``, or
``inconclusive``.  The catalog is the single source of truth for parameter
validation and for ``list-experiments``.

Adding an experiment means adding one ``ExperimentSpec`` to ``EXPERIMENTS``:
its runner, a one-line description, the catalog module, and the parameter
schema ``name -> (type, default[, bound])``, a bound being a minimum, an open
interval ``(low, high)``, a tuple of allowed strings or the name of a chart
radius, the interval ``(0, radius)`` of the context group's chart.  A runner takes
``(ctx, params, seed)`` and returns ``(report, verdict)``, the verdict being
True, False or None (inconclusive).  ``_residuals(label, draws, residuals)``
makes the runner of a row of the residual-check table: it draws ``draws``
batches of scaled vectors from the substream ``label`` and reports the
largest norm of each named residual against ``tol``.  Every other runner is
plain code that calls its battery through the battery's module, as in
``multiplicative.right_limit_defects(...)``, so a wrapper on the module binding
(a profiling span) sees each call; the battery owns its trial loop and the
runner only its gate, and ``_passes(report)`` reads the verdict from a report
that carries its own ``pass``.
``check_fields`` checks an object against such a schema, here and for every
block of a config; ``resolve_params`` also resolves ``model*`` and ``grid`` names
and runs the batteries' own checks in ``_JOINT_BOUNDS``, for ``validate_config``
and ``run_experiment`` alike; ``run_experiment`` derives ``status`` from the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import geometry, jumps, multiplicative, regularity
from .additive import TimeGrid, driver_paths, sample_additive
from .errors import ConfigError, clipped, rejected_at
from .groups import sample_norm_ball, sample_scaled_vectors
from .multiplicative import (convergence_study, product_exponential,
                             verify_multiplicative)
from .regularity import exhaustive_count_reference, oscillation_counts_from_outside
from .reporting import jsonable
from .rng import substream
from .stats import SLACK_MULTIPLIER, binom_se

__all__ = ["EXPERIMENTS", "run_experiment", "catalog", "resolve_params", "check_fields"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Catalog entry: runner, one-line property description, parameter schema."""

    runner: Callable  # (ctx, params, seed) -> (report, verdict)
    verifies: str
    module: str
    params: dict      # name -> (type, default[, bound]); default None: required


def _passes(report):
    """``(report, verdict)`` of a battery whose report carries its own ``pass``."""
    return report, report["pass"]


# --------------------------------------------------------------------------
# kernel experiments
# --------------------------------------------------------------------------

def _residuals(label: str, draws: int, residuals):
    """Runner of one residual-check row: the largest norm of each named residual
    of ``residuals(group, *vectors)``, the verdict being the largest against ``tol``."""
    def runner(ctx, params, seed):
        group = ctx["group"]
        rng = substream(seed, label)
        vectors = [sample_scaled_vectors(rng, group, params["scale"], params["samples"])
                   for _ in range(draws)]
        estimates = {name: float(np.max(group.norm(r)))
                     for name, r in residuals(group, *vectors).items()}
        tol = params["tol"]
        return {"estimates": estimates, "tol": tol}, max(estimates.values()) <= tol
    return runner


def _axiom_residuals(G, *vectors):
    g, h, k = (G.exp(v) for v in vectors)
    return {"max_associativity_defect": G.log(G.mul(G.mul(g, h), k))
                                        - G.log(G.mul(g, G.mul(h, k))),
            "max_identity_defect": G.log(G.mul(g, np.broadcast_to(G.identity(), g.shape)))
                                   - G.log(g),
            "max_inverse_defect": G.log(G.mul(g, G.inv(g)))}


def _roundtrip_residuals(G, v):
    back = G.log(G.exp(v))
    # one estimate for both directions: log(exp(V)) = V and exp(log(g)) = g
    return {"max_roundtrip_defect": np.concatenate([back - v, G.log(G.exp(back)) - back])}


def _bracket_residuals(G, f, g, h):
    return {"max_antisymmetry_defect": G.bracket(f, g) + G.bracket(g, f),
            "max_jacobi_residual": G.bracket(f, G.bracket(g, h))
                                   + G.bracket(g, G.bracket(h, f))
                                   + G.bracket(h, G.bracket(f, g)),
            "max_self_bracket": G.bracket(f, f)}


def _run_chart_certification(ctx, params, seed):
    group, delta, power = ctx["group"], params["delta"], params["power"]
    radius = group.ball_power_radius(delta, power)   # raises before any sampling
    ratio = group.chart.certify_bracket_bound(group, samples=params["samples"], seed=seed)
    bounded = ratio <= 1.0 + 1e-12     # no sampled pair breaks |[U,V]| <= C |U| |V|
    report = {"bracket_bound_worst_ratio": ratio, "delta": delta, "power": power,
              "certified_radius": radius}
    if radius is None:
        report["notes"] = {"inconclusive": "radius recursion left the chart"}
        return report, None if bounded else False
    rng = substream(seed, "ball-power")
    worst = 0.0
    remaining = params["products"]
    while remaining > 0:
        batch = min(remaining, 4096)
        factors = sample_norm_ball(rng, group, delta, batch * power).reshape(batch, power, -1)
        prod = group.prefix_products(group.exp(factors))[:, -1]
        worst = max(worst, float(np.max(group.chart_norm(prod))))
        remaining -= batch
    report["worst_product_norm"] = worst
    return report, bounded and worst < radius


# --------------------------------------------------------------------------
# multiplicative-path experiments
# --------------------------------------------------------------------------

def _run_cocycle(ctx, params, seed):
    paths = (product_exponential(driver)
             for driver in driver_paths(params["model"], params["grid"], seed, params["paths"]))
    worst = max((verify_multiplicative(path, samples=params["triples"], tol=params["tol"],
                                       seed=seed) for path in paths),
                key=lambda rep: rep["max_defect"])
    return worst, worst["pass"]


def _run_cocycle_fault(ctx, params, seed):
    cell = params["cell"]
    multiplicative.require_cell(params["grid"], cell)   # before the path is drawn
    path = product_exponential(next(driver_paths(params["model"], params["grid"], seed, 1)))
    offset = path.group.exp(substream(seed, "fault").standard_normal(path.group.dim))
    # the cell translated by the offset under the cached prefix: inconsistent on purpose
    cells = path.cell_increments.copy()
    cells[cell] = path.group.mul(cells[cell], offset)
    rep = verify_multiplicative(replace(path, cell_increments=cells),
                                samples=params["triples"], tol=params["tol"], seed=seed)
    # a negative control passes when the verification fails and its worst
    # triple (j, k, l) spans the corrupted cell: j <= cell < l
    j, _, l = rep["argmax_triple"]
    verdict = not rep["pass"] and j <= cell < l
    rep.update(corrupted_cell=cell, negative_control=True)
    return rep, verdict


# product-limit expectation -> verdict on the convergence report
_CONVERGENCE_EXPECTATIONS = {
    "exact": lambda rep: all(e <= 1e-12 for e in rep["max_errors"]),
    "jump-separation": lambda rep: any(e <= 1e-12 for e in rep["rms_errors"]),
    "order-half": lambda rep: (rep["fitted_slope"] is not None
                               and 0.35 <= rep["fitted_slope"] <= 0.65),
}


def _run_convergence(ctx, params, seed):
    models = {key: params[f"model_{key}"] for key in ("x", "y", "z")}
    rep = convergence_study(ctx["group"], models, params["grid"], params["refinements"],
                            params["trials"], seed)
    rep["expect"] = params["expect"]
    return rep, _CONVERGENCE_EXPECTATIONS[rep["expect"]](rep)


def _run_right_limit(ctx, params, seed):
    defects = multiplicative.right_limit_defects(
        params["model"], params["grid"], params["trials"], params["refinements"],
        params["probe_points"], seed)
    medians = [float(np.median(level)) for level in defects]
    decreasing = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    return {"median_defects_per_level": medians}, decreasing and medians[-1] <= medians[0]


# --------------------------------------------------------------------------
# regularity experiments
# --------------------------------------------------------------------------

def _run_oscillation_dp(ctx, params, seed):
    rng = substream(seed, "dp-windows")
    # each instance padded to max_points with indices that are in no chain
    padded = np.zeros((params["instances"], params["max_points"], params["max_points"]), dtype=bool)
    expected = []
    for outside in padded:
        size = int(rng.integers(2, params["max_points"] + 1))
        density = rng.uniform(0.1, 0.8)
        outside[:size, :size] = np.triu(rng.random((size, size)) < density, k=1)
        expected.append(exhaustive_count_reference(outside[:size, :size]))
    mismatches = int(np.count_nonzero(oscillation_counts_from_outside(padded) != expected))
    return {
        "instances": params["instances"],
        "max_points": params["max_points"],
        "mismatches": mismatches,
    }, mismatches == 0


def _run_uniform_continuity(ctx, params, seed):
    def probe(probe_seed):
        return regularity.uniform_continuity_probe(
            params["model"], params["T"], params["delta"], params["alpha"],
            params["trials"], probe_seed, cells=params["cells"])

    rep = probe(seed)
    # out-of-sample revalidation on a decorrelated stream
    check = probe(seed + 1_000_003)
    fresh_p = next((p for h_val, p in check["probability_curve"].items()
                    if float(h_val) <= rep["window"]), None)
    slack = SLACK_MULTIPLIER * binom_se(params["alpha"], params["trials"])
    revalidated = fresh_p is not None and fresh_p <= params["alpha"] + slack
    rep["fresh_seed_probability"] = fresh_p
    return rep, bool(rep["monotone"] and not rep["none_found"] and revalidated)


# --------------------------------------------------------------------------
# jump experiments
# --------------------------------------------------------------------------

def _run_detector_fidelity(ctx, params, seed):
    rep = jumps.detector_fidelity(params["model"], params["grid"],
                                  jumps.JumpSetSpec(params["epsilon"]), params["trials"], seed)
    if "notes" in rep:
        return rep, None
    return rep, rep["precision"] == 1.0 and rep["recall"] == 1.0


def _run_restart_probe(ctx, params, seed):
    rep = jumps.restart_probe(params["model"], params["grid"],
                              jumps.JumpSetSpec(params["epsilon"]),
                              params["h"], params["trials"], seed)
    expect, verdict = params["expect"], rep.get("pass")
    rep["expect"] = expect
    if expect == "reject" and verdict is not None:
        rep["negative_control"] = True
        verdict = not verdict
    return rep, verdict


# --------------------------------------------------------------------------
# geometry experiments
# --------------------------------------------------------------------------

def _run_gauge_metric(ctx, params, seed):
    group = ctx["group"]
    rng = substream(seed, "gauge")
    triples = rng.standard_normal((params["samples"], 3, group.dim)) * params["scale"]
    g, h, k = triples[:, 0], triples[:, 1], triples[:, 2]
    d_gh = geometry.gauge_distance(group, g, h)
    d_hk = geometry.gauge_distance(group, h, k)
    d_gk = geometry.gauge_distance(group, g, k)
    triangle_violations = int(np.count_nonzero(d_gk > d_gh + d_hk + 1e-12))
    invariance = float(np.max(np.abs(
        geometry.gauge_distance(group, group.mul(k, g), group.mul(k, h)) - d_gh)))
    symmetry = float(np.max(np.abs(geometry.gauge_distance(group, h, g) - d_gh)))
    return {
        "samples": params["samples"],
        "triangle_violations": triangle_violations,
        "max_left_invariance_defect": invariance,
        "max_symmetry_defect": symmetry,
    }, triangle_violations == 0 and invariance <= 1e-12 and symmetry <= 1e-12


def _run_bounded_jumps(ctx, params, seed):
    rep = geometry.bounded_jumps_check(params["model"], params["delta"],
                                       params["n_power"], seed)
    rep["expect"] = params["expect"]
    return rep, rep["pass"] == params["expect"]


def _run_additive_determinism(ctx, params, seed):
    a = sample_additive(params["model"], params["grid"], seed)
    b = sample_additive(params["model"], params["grid"], seed)
    identical = (np.array_equal(a.increments, b.increments)
                 and np.array_equal(a.jump_times, b.jump_times))
    fine = a.refine(seed)
    coupling = float(np.max(np.abs(fine.increments[0::2] + fine.increments[1::2]
                                   - a.increments)))
    report = {"bit_identical": bool(identical), "refine_coupling_defect": coupling}
    return report, identical and coupling <= 1e-14


F, I, S, B, LF = float, int, str, bool, [float]
# NUM: a number, NaN and the infinities too, whose range its constructor checks;
# OPTIONAL: the default of a field that may be left out or null, and then reads None
NUM, NONEMPTY, OPTIONAL = "number", "nonempty list", object()
POS = (F, None, (0, math.inf))     # a required positive number
# a required delta inside the chart: below its rho_prime, or below its rho_double_prime
# where the battery certifies a ball power; resolve_params reads the group's chart
DELTA_RHO1, DELTA_RHO2 = (F, None, "rho_prime"), (F, None, "rho_double_prime")
_DRIVER = {"model": (S, None), "grid": (S, None)}     # the driver of a path experiment
_MOMENT_PARAMS = {"r": (F, None, 0), "u": POS, "alpha": (F, None), "delta": DELTA_RHO1,
                  "trials": (I, 1000, 1), "cells": (I, 64, 1), "model": (S, None)}
EXPERIMENTS = {
    "group-axioms": ExperimentSpec(
        _residuals("group-axioms", 3, _axiom_residuals),
        "group law: associativity, identity, inverses on random triples",
        "groups", {"samples": (I, 10000, 1), "scale": (F, 2.0, 0), "tol": (F, 1e-12)}),
    "exp-log-roundtrip": ExperimentSpec(
        _residuals("exp-log", 1, _roundtrip_residuals),
        "log(exp(V)) = V and exp(log(g)) = g inside the chart",
        "groups", {"samples": (I, 10000, 1), "scale": (F, 2.0, 0), "tol": (F, 1e-10)}),
    "bch-consistency": ExperimentSpec(
        _residuals("bch", 2, lambda G, u, v: {
            "max_bch_defect": G.bch(u, v) - G.log(G.mul(G.exp(u), G.exp(v)))}),
        "truncated commutator series equals log of the product",
        "groups", {"samples": (I, 10000, 1), "scale": (F, 1.0, 0), "tol": (F, 1e-12)}),
    "bracket-properties": ExperimentSpec(
        _residuals("bracket", 3, _bracket_residuals),
        "bracket antisymmetry and Jacobi identity residuals",
        "groups", {"samples": (I, 10000, 1), "scale": (F, 1.0, 0), "tol": (F, 1e-12)}),
    "chart-certification": ExperimentSpec(
        _run_chart_certification, "bracket-norm bound and ball-power radius containment by sampling",
        "groups", {"samples": (I, 10000, 1), "delta": DELTA_RHO2, "power": (I, 2, 1),
                   "products": (I, 100000, 1)}),
    "cocycle-exactness": ExperimentSpec(
        _run_cocycle, "two-parameter increments compose exactly along index triples",
        "multiplicative", {"paths": (I, 5, 1), "triples": (I, 1000, 1), "tol": (F, 1e-12),
                           **_DRIVER}),
    "cocycle-fault-injection": ExperimentSpec(
        _run_cocycle_fault, "a corrupted cell increment is detected and named (negative control)",
        "multiplicative", {"cell": (I, None, 0), "triples": (I, 1000, 1), "tol": (F, 1e-12),
                           **_DRIVER}),
    "product-limit-convergence": ExperimentSpec(
        _run_convergence, "time-ordered exponential products converge to the exact construction",
        "multiplicative", {"refinements": (I, 6, 1), "trials": (I, 200, 1),
                           "expect": (S, None, tuple(_CONVERGENCE_EXPECTATIONS)),
                           "model_x": (S, None), "model_y": (S, None), "model_z": (S, None),
                           "grid": (S, None)}),
    "right-limit-refinement": ExperimentSpec(
        _run_right_limit, "right-limit evaluation stabilizes under coupled grid refinement",
        "multiplicative", {"trials": (I, 20, 1), "refinements": (I, 3, 1),
                           "probe_points": (I, 5, 1), **_DRIVER}),
    "oscillation-dp-bruteforce": ExperimentSpec(
        _run_oscillation_dp, "dynamic-program oscillation count equals exhaustive chain search",
        "regularity", {"instances": (I, 1000, 1),
                       "max_points": (I, 12, (1, regularity.EXHAUSTIVE_MAX_POINTS + 1))}),
    "oscillation-axioms": ExperimentSpec(
        lambda ctx, p, seed: _passes(regularity.oscillation_axioms_test(
            p["model"], p["grid"], p["delta"], p["paths"], p["cases"], seed)),
        "counter monotonicity, exhaustive limits, concatenation bound",
        "regularity", {"paths": (I, 8, 1), "cases": (I, 1000, 1), "delta": DELTA_RHO1, **_DRIVER}),
    "max-oscillation-bound": ExperimentSpec(
        lambda ctx, p, seed: _passes(regularity.mc_maximum_oscillation(
            p["model"], p["grid"], p["delta"], p["trials"], seed)),
        "endpoint exit probability dominates scaled suffix-exit probability",
        "regularity", {"delta": DELTA_RHO2, "trials": (I, 10000, 1), **_DRIVER}),
    "largest-step-bound": ExperimentSpec(
        lambda ctx, p, seed: _passes(regularity.mc_largest_step(
            p["model"], p["grid"], p["delta"], p["trials"], seed)),
        "any-pair exit probability is dominated by suffix-exit probability",
        "regularity", {"delta": DELTA_RHO2, "trials": (I, 10000, 1), **_DRIVER}),
    "expectation-bound": ExperimentSpec(
        lambda ctx, p, seed: _passes(regularity.mc_expectation_bound(
            p["model"], p["grid"], p["delta"], p["trials"], seed)),
        "mean oscillation count below a/(1-a) with geometric tail",
        "regularity", {"delta": DELTA_RHO1, "trials": (I, 10000, 2), **_DRIVER}),
    "uniform-continuity-probe": ExperimentSpec(
        _run_uniform_continuity, "largest window keeping oscillation probability under budget",
        "regularity", {"T": POS, "delta": DELTA_RHO1, "alpha": (F, None, (0, 1)),
                       "trials": (I, 2000, 1), "cells": (I, 64, 1), "model": (S, None)}),
    "detector-fidelity": ExperimentSpec(
        _run_detector_fidelity, "threshold detector recovers recorded driver jumps exactly",
        "jumps", {"epsilon": POS, "trials": (I, 500, 1), **_DRIVER}),
    "poisson-battery": ExperimentSpec(
        lambda ctx, p, seed: _passes(jumps.poisson_battery(
            p["model"], p["grid"], jumps.JumpSetSpec(p["epsilon"]), p["trials"], seed)),
        "detected jump counts behave like a Poisson process",
        "jumps", {"epsilon": POS, "trials": (I, 2000, 2), **_DRIVER}),
    "restart-probe": ExperimentSpec(
        _run_restart_probe, "increments after the first hitting time match fixed-time increments",
        "jumps", {"epsilon": POS, "h": POS, "trials": (I, 2000, 2),
                  "expect": (S, "match", ("match", "reject")), **_DRIVER}),
    "step-triangle": ExperimentSpec(
        lambda ctx, p, seed: _passes(geometry.step_triangle_test(
            ctx["group"], p["samples"], p["delta"], seed)),
        "concatenated factor lists certify subadditive step counts",
        "geometry", {"samples": (I, 1000, 1), "delta": DELTA_RHO1}),
    "gauge-metric": ExperimentSpec(
        _run_gauge_metric, "gauge distance: left-invariance, symmetry, sampled triangle inequality",
        "geometry", {"samples": (I, 100000, 1), "scale": (F, 2.0)}),
    "bounded-jumps-gate": ExperimentSpec(
        _run_bounded_jumps, "jump increments certified inside a ball power",
        "geometry", {"delta": DELTA_RHO1, "n_power": (I, None, 1), "expect": (B, True),
                     "model": (S, None)}),
    "exp-moment": ExperimentSpec(
        lambda ctx, p, seed: _passes(geometry.exp_moment_estimate(
            p["model"], (p["r"], p["u"]), p["alpha"], p["delta"], p["trials"], seed, p["cells"])),
        "windowed exponential moment of the step counter stabilizes",
        "geometry", _MOMENT_PARAMS),
    "tail-decay": ExperimentSpec(
        lambda ctx, p, seed: _passes(geometry.tail_decay_fit(
            p["model"], (p["r"], p["u"]), p["alpha"], p["delta"], p["trials"], seed, p["cells"])),
        "exceedance tail decays at least geometrically with the exit rate",
        "geometry", _MOMENT_PARAMS),
    "metric-modulus": ExperimentSpec(
        lambda ctx, p, seed: _passes(geometry.metric_modulus_curve(
            p["model"], p["T"], p["alpha"], p["window_sizes"], p["trials"], seed, p["cells"])),
        "shrinking-window metric moments decrease toward zero",
        "geometry", {"T": POS, "alpha": (F, None), "window_sizes": (LF, None),
                     "trials": (I, 400, 1), "cells": (I, 256, 1), "model": (S, None)}),
    "additive-determinism": ExperimentSpec(
        _run_additive_determinism, "seeded sampling is bit-identical and refinement is coupled",
        "additive", _DRIVER),
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the one type table: a type of a schema row is a key of it, a list type [t] (a list
# whose entries are t), a schema (an object with those fields) or a tuple of
# alternatives, such as (NUM, [NUM]) for a number or a list of numbers
_TYPE_CHECKS = {
    float: ("a finite number", lambda v: _is_number(v) and (
        isinstance(v, int) or math.isfinite(v))),
    NUM: ("a number", _is_number),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
    NONEMPTY: ("a nonempty list", lambda v: isinstance(v, list) and len(v) > 0),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


# the battery preconditions that tie a parameter to another one or to the resolved
# grid or model: experiment -> ((key, check(resolved params)), ...), run in order.
# Each check is the battery's own, which raises before the battery draws a path; a
# battery with a ``cells`` parameter first builds its uniform grid over (0, u] or (0, T]
_CELLS_U = ("cells", lambda p: TimeGrid.uniform(p["u"], p["cells"]))
_CELLS_T = ("cells", lambda p: TimeGrid.uniform(p["T"], p["cells"]))
_WINDOW = ("r", lambda p: geometry.window_indices(TimeGrid.uniform(p["u"], p["cells"]), p["r"], p["u"]))
_JOINT_BOUNDS = {
    "cocycle-fault-injection": (("cell", lambda p: multiplicative.require_cell(p["grid"], p["cell"])),),
    "oscillation-axioms": (("grid", lambda p: regularity.require_two_cells(p["grid"])),),
    "poisson-battery": (("model", lambda p: jumps.require_stationary(p["model"])),),
    "restart-probe": (("h", lambda p: jumps.lag_steps(p["grid"], p["h"])),),
    "uniform-continuity-probe": (_CELLS_T,),
    "exp-moment": (_CELLS_U, _WINDOW),
    "tail-decay": (_CELLS_U, _WINDOW),
    "metric-modulus": (("model", lambda p: geometry.require_gauge_metric(p["model"].space)),
                       _CELLS_T,
                       ("window_sizes", lambda p: geometry.modulus_windows(
                           TimeGrid.uniform(p["T"], p["cells"]), p["window_sizes"]))),
}


def _checked(field: str, check, arg) -> None:
    """Run a battery's own ``check(arg)``; what it rejects is a ConfigError at ``field``."""
    with rejected_at(field):
        check(arg)


def _violated(typ, bound, value) -> str | None:
    """What ``value`` must be to keep the schema ``bound``, or None if it does.

    A bound is a tuple of allowed strings, an open interval (low, high) or an
    inclusive minimum.
    """
    if typ is str:
        return None if value in bound else f"one of {list(bound)}"
    if isinstance(bound, tuple):
        return None if bound[0] < value < bound[1] else f"a value in ({bound[0]}, {bound[1]})"
    return None if value >= bound else f"at least {bound}"


def shown(value) -> str:
    """``value`` as a config writes it (JSON, any other object as its repr), ``clipped``."""
    try:
        text = json.dumps(value, default=repr)
    except (ValueError, RecursionError):   # circular, or nested past the recursion limit
        text = f"<{type(value).__name__}>"
    return clipped(text)


def _type_row(typ) -> tuple:
    """The (label, check) of a non-alternative row type: a list type is a list, a schema an object."""
    return _TYPE_CHECKS[type(typ) if isinstance(typ, (list, dict)) else typ]


def _checked_type(typ, value, path: str, radius):
    """``value`` checked against the row type ``typ``; a schema's value is its fields
    merged over their defaults, a list's its entries, each checked at ``path[i]``."""
    alternatives = typ if isinstance(typ, tuple) else (typ,)
    for typ in alternatives:
        if _type_row(typ)[1](value):
            break
    else:
        raise ConfigError(path, f"expected {' or '.join(_type_row(t)[0] for t in alternatives)},"
                                f" got {shown(value)}")
    if isinstance(typ, dict):
        return check_fields(value, typ, path, radius)
    if isinstance(typ, list):
        return [_checked_type(typ[0], entry, f"{path}[{i}]", radius)
                for i, entry in enumerate(value)]
    return value


def check_fields(obj, schema: dict, path: str, radius=None) -> dict:
    """The fields of the object ``obj``, checked against ``schema`` and merged over its
    defaults: that it is an object, its keys, then each value's type and bound; the
    first violation raises ConfigError at its path.  An ``OPTIONAL`` field may be left
    out or null and then reads None; ``radius`` maps a chart radius's name to its value."""
    _checked_type(dict, obj, path, radius)
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(path, f"unknown keys {clipped(sorted(unknown))}")
    missing = [key for key, (_, default, *_) in schema.items() if default is None and key not in obj]
    if missing:
        raise ConfigError(path, f"missing required key {missing[0]!r}")
    merged = {}
    for key, (typ, default, *bound) in schema.items():
        if key not in obj or obj[key] is None and default is OPTIONAL:
            merged[key] = None if default is OPTIONAL else default
            continue
        field = f"{path}.{key}"
        value = merged[key] = _checked_type(typ, obj[key], field, radius)
        if bound and isinstance(bound[0], str):   # a chart radius
            bound = [(0, radius(bound[0]))]
        expected = bound and _violated(typ, bound[0], value)
        if expected:
            raise ConfigError(field, f"expected {expected}, got {shown(value)}")
    return merged


def resolve_params(name: str, params: dict, path: str, ctx: dict) -> tuple[dict, dict]:
    """``params`` over the catalog defaults of experiment ``name``, checked.

    Checks the parameters against the experiment's schema (``check_fields``, a
    chart radius read from the context group), then replaces every ``model*`` /
    ``grid`` name by the context's object and runs its ``_JOINT_BOUNDS`` checks.
    Returns the merged and the resolved parameters; a failed check raises
    ConfigError under ``path`` (gauge-metric off p = 2: at its ``name``).
    """
    # no parameter of gauge-metric names the group its metric needs: the entry's name is at fault
    if name == "gauge-metric":
        _checked(f"{path.rpartition('.')[0]}.name", geometry.require_gauge_metric, ctx["group"])
    merged = check_fields(params, EXPERIMENTS[name].params, path,
                          lambda radius: getattr(ctx["group"].chart, radius))

    resolved = {}
    for key, value in merged.items():
        table = "models" if key.startswith("model") else "grids" if key == "grid" else None
        if table and value not in ctx.get(table, {}):
            raise ConfigError(f"{path}.{key}", f"unknown {table} reference {shown(value)}")
        resolved[key] = ctx[table][value] if table else value
        # a group path needs a model on the group, the exact product a model_b on the
        # group's own space of block b (an identity test: a swapped block fails at every
        # p); additive-determinism only samples the driver
        if table == "models" and name != "additive-determinism":
            blocks, b = getattr(ctx["group"], "block_spaces", {}), key[-1]
            if resolved[key].space is not (ctx["group"] if key == "model" else blocks.get(b)):
                space = "the group" if key == "model" else f"block {b}"
                raise ConfigError(f"{path}.{key}", f"expected a model on {space}, got {value!r}")
    for key, check in _JOINT_BOUNDS.get(name, ()):
        _checked(f"{path}.{key}", check, resolved)
    return merged, resolved


def catalog() -> list[dict]:
    """Machine-readable experiment catalog."""
    out = []
    for name, spec in sorted(EXPERIMENTS.items()):
        out.append({
            "name": name,
            "module": spec.module,
            "verifies": spec.verifies,
            "params": {
                key: {"type": "list" if isinstance(typ, list) else typ.__name__,
                      "required": default is None,
                      **({} if default is None else {"default": default})}
                for key, (typ, default, *_) in spec.params.items()
            },
        })
    return out


def run_experiment(name: str, ctx: dict, params: dict, seed: int) -> dict:
    """Execute one catalog experiment and return its JSON-ready report."""
    merged, resolved = resolve_params(name, params, f"{name}.params", ctx)
    report, verdict = EXPERIMENTS[name].runner(ctx, resolved, seed)
    report = jsonable(report)
    report["status"] = "inconclusive" if verdict is None else "pass" if verdict else "fail"
    report["experiment"] = name
    report["seed"] = seed
    report["params_used"] = jsonable(merged)
    return report
