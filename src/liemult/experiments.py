"""Named experiment catalog for the batch driver.

Each experiment wraps one verification battery: it consumes a group, named
models and grids from the config, runs at an explicit seed, and returns a
JSON-ready report with a ``status`` of ``pass``, ``fail``, or
``inconclusive``.  The catalog is the single source of truth for parameter
validation and for ``list-experiments``.

Adding an experiment means adding one ``ExperimentSpec`` to ``EXPERIMENTS``:
its runner, a one-line description, the catalog module, and the parameter
schema ``name -> (type, default)``.  A battery whose report carries its own
``pass`` needs no runner code: ``_battery(module, "function", *args)`` names
the battery and maps its positional arguments to parameters or to the
derived values of ``_DERIVED``.  Any other runner takes
``(ctx, params, seed)`` and returns ``(report, verdict)``, the verdict being
True, False or None (inconclusive).  ``run_experiment`` merges the
parameters over their defaults with ``merge_params``, resolves ``model*``
and ``grid`` names into the context, and derives ``status`` from the
verdict; no runner sets it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry, jumps, regularity
from .additive import sample_additive
from .errors import ConfigError, ParameterError
from .multiplicative import (convergence_study, product_exponential,
                             verify_multiplicative)
from .regularity import exhaustive_count_reference, oscillation_counts_from_outside
from .reporting import jsonable, write_csv
from .rng import substream
from .stats import SLACK_MULTIPLIER, binom_se

__all__ = ["EXPERIMENTS", "run_experiment", "catalog", "merge_params", "reference_table"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Catalog entry: runner, one-line property description, parameter schema."""

    runner: Callable  # (ctx, params, seed) -> (report, verdict)
    verifies: str
    module: str
    params: dict      # name -> (type, default); default None means required


def _status(verdict) -> str:
    if verdict is None:
        return "inconclusive"
    return "pass" if verdict else "fail"


def _sample_scales(rng, group, scale, size):
    vecs = rng.standard_normal((size, group.dim))
    mags = rng.uniform(0.0, scale, size=size)
    norms = group.norm(vecs)
    return vecs * (mags / np.where(norms > 0, norms, 1.0))[:, None]


def _side_csv(ctx, filename, header, rows):
    """Optional CSV side output, written only when the config enables it."""
    if ctx.get("csv_dir"):
        write_csv(ctx["csv_dir"] / filename, header, rows)


# Battery arguments that are not plain parameters.
_DERIVED = {
    "group": lambda ctx, params, seed: ctx["group"],
    "jump_set": lambda ctx, params, seed: jumps.JumpSetSpec(params["epsilon"]),
    "window": lambda ctx, params, seed: (params["r"], params["u"]),
    "seed": lambda ctx, params, seed: seed,
}


def _battery(module, name: str, *args: str, csv=None):
    """Runner forwarding ``args`` to the battery ``module.name``.

    Each argument is a parameter or a ``_DERIVED`` value; the verdict is the
    report's own ``pass``.  ``csv`` is an optional side output
    ``(file, header, rows_of(report))``.  The battery is looked up on its
    module at every call and never stored, so a wrapper installed on the
    module binding (a profiling span) sees the call.
    """
    def runner(ctx, params, seed):
        values = [_DERIVED[a](ctx, params, seed) if a in _DERIVED else params[a]
                  for a in args]
        report = getattr(module, name)(*values)
        if csv:
            _side_csv(ctx, csv[0], csv[1], csv[2](report))
        out = jsonable(report)
        return out, out["pass"]
    return runner


# --------------------------------------------------------------------------
# kernel experiments
# --------------------------------------------------------------------------

def _run_group_axioms(ctx, params, seed):
    group = ctx["group"]
    samples, tol = params["samples"], params["tol"]
    rng = substream(seed, "group-axioms")
    g, h, k = (group.exp(_sample_scales(rng, group, params["scale"], samples))
               for _ in range(3))
    assoc = np.max(group.norm(group.log(group.mul(group.mul(g, h), k))
                              - group.log(group.mul(g, group.mul(h, k)))))
    ident = np.max(group.norm(group.log(group.mul(g, np.broadcast_to(group.identity(), g.shape)))
                              - group.log(g)))
    inverse = np.max(group.norm(group.log(group.mul(g, group.inv(g)))))
    worst = float(max(assoc, ident, inverse))
    return {
        "estimates": {"max_associativity_defect": float(assoc),
                      "max_identity_defect": float(ident),
                      "max_inverse_defect": float(inverse)},
        "tol": tol,
    }, worst <= tol


def _run_exp_log_roundtrip(ctx, params, seed):
    group = ctx["group"]
    rng = substream(seed, "exp-log")
    vecs = _sample_scales(rng, group, params["scale"], params["samples"])
    back = group.log(group.exp(vecs))
    worst_alg = float(np.max(group.norm(back - vecs)))
    g = group.exp(vecs)
    worst_grp = float(np.max(group.norm(group.log(group.exp(group.log(g))) - group.log(g))))
    worst = max(worst_alg, worst_grp)
    report = {"estimates": {"max_roundtrip_defect": worst}, "tol": params["tol"]}
    return report, worst <= params["tol"]


def _run_bch_consistency(ctx, params, seed):
    group = ctx["group"]
    rng = substream(seed, "bch")
    u = _sample_scales(rng, group, params["scale"], params["samples"])
    v = _sample_scales(rng, group, params["scale"], params["samples"])
    direct = group.bch(u, v)
    via_product = group.log(group.mul(group.exp(u), group.exp(v)))
    worst = float(np.max(group.norm(direct - via_product)))
    report = {"estimates": {"max_bch_defect": worst}, "tol": params["tol"]}
    return report, worst <= params["tol"]


def _run_bracket_properties(ctx, params, seed):
    group = ctx["group"]
    rng = substream(seed, "bracket")
    f, g, h = (_sample_scales(rng, group, params["scale"], params["samples"])
               for _ in range(3))
    anti = np.max(group.norm(group.bracket(f, g) + group.bracket(g, f)))
    jacobi = np.max(group.norm(group.bracket(f, group.bracket(g, h))
                               + group.bracket(g, group.bracket(h, f))
                               + group.bracket(h, group.bracket(f, g))))
    self_bracket = np.max(group.norm(group.bracket(f, f)))
    worst = float(max(anti, jacobi, self_bracket))
    return {
        "estimates": {"max_antisymmetry_defect": float(anti),
                      "max_jacobi_residual": float(jacobi),
                      "max_self_bracket": float(self_bracket)},
        "tol": params["tol"],
    }, worst <= params["tol"]


def _run_chart_certification(ctx, params, seed):
    group = ctx["group"]
    ratio = group.chart.certify_bracket_bound(group, samples=params["samples"], seed=seed)
    delta, power = params["delta"], params["power"]
    radius = group.ball_power_radius(delta, power)
    report = {"bracket_bound_worst_ratio": ratio, "delta": delta, "power": power,
              "certified_radius": radius}
    if radius is None:
        report["notes"] = {"inconclusive": "radius recursion left the chart"}
        return report, None
    rng = substream(seed, "ball-power")
    worst = 0.0
    remaining = params["products"]
    while remaining > 0:
        batch = min(remaining, 4096)
        factors = group.sample_ball(rng, delta, batch * power).reshape(batch, power, group.dim)
        prod = np.broadcast_to(group.identity(), (batch, group.dim))
        for i in range(power):
            prod = group.mul(prod, group.exp(factors[:, i]))
        worst = max(worst, float(np.max(group.chart_norm(prod))))
        remaining -= batch
    report["worst_product_norm"] = worst
    return report, worst < radius


# --------------------------------------------------------------------------
# multiplicative-path experiments
# --------------------------------------------------------------------------

def _driver_path(params, seed, trial=0):
    return sample_additive(params["model"], params["grid"], seed, stream=(trial,))


def _run_cocycle(ctx, params, seed):
    worst = None
    for trial in range(params["paths"]):
        path = product_exponential(_driver_path(params, seed, trial), ctx["group"])
        rep = verify_multiplicative(path, samples=params["triples"],
                                    tol=params["tol"], seed=seed)
        if worst is None or rep.max_defect > worst.max_defect:
            worst = rep
    return worst, worst.passed


def _run_cocycle_fault(ctx, params, seed):
    group = ctx["group"]
    path = product_exponential(_driver_path(params, seed), group)
    offset = group.exp(substream(seed, "fault").standard_normal(group.dim))
    bad = path.with_corrupted_cell(params["cell"], offset)
    rep = verify_multiplicative(bad, samples=params["triples"], tol=params["tol"], seed=seed)
    out = rep.to_dict()
    out["corrupted_cell"] = params["cell"]
    # the corrupted path must fail verification; this experiment is the
    # pipeline's negative control and reports that failure
    return out, rep.passed


def _run_convergence(ctx, params, seed):
    models = {key: params[f"model_{key}"] for key in ("x", "y", "z")}
    rep = convergence_study(ctx["group"], models, params["grid"], params["refinements"],
                            params["trials"], seed)
    expect = params["expect"]
    if expect == "exact":
        passed = all(e <= 1e-12 for e in rep.max_errors)
    elif expect == "jump-separation":
        passed = any(e <= 1e-12 for e in rep.rms_errors)
    elif expect == "order-half":
        passed = rep.fitted_slope is not None and 0.35 <= rep.fitted_slope <= 0.65
    else:
        raise ParameterError(f"unknown expectation {expect!r}")
    _side_csv(ctx, "convergence.csv", ["mesh", "rms_error", "max_error"],
              zip(rep.meshes, rep.rms_errors, rep.max_errors))
    out = rep.to_dict()
    out["expect"] = expect
    return out, passed


def _run_right_limit(ctx, params, seed):
    group, grid = ctx["group"], params["grid"]
    probes = np.linspace(0.0, grid.T, params["probe_points"] + 2)[1:-1]
    levels = params["refinements"]
    defects = [[] for _ in range(levels)]
    for trial in range(params["trials"]):
        # one refinement chain per trial: level L compares chain[L] with chain[L + 1]
        driver = _driver_path(params, seed, trial)
        coarse_path = product_exponential(driver, group)
        for level in range(levels):
            driver = driver.refine(seed, stream=(trial, "rl", level))
            fine_path = product_exponential(driver, group)
            for t in probes:
                a = coarse_path.evaluate_right_limit(float(t))
                b = fine_path.evaluate_right_limit(float(t))
                defects[level].append(float(group.norm(group.log(a) - group.log(b))))
            coarse_path = fine_path
    medians = [float(np.median(d)) for d in defects]
    decreasing = all(b <= a + 1e-12 for a, b in zip(medians, medians[1:]))
    return {"median_defects_per_level": medians}, decreasing and medians[-1] <= medians[0]


# --------------------------------------------------------------------------
# regularity experiments
# --------------------------------------------------------------------------

def _run_oscillation_dp(ctx, params, seed):
    rng = substream(seed, "dp-windows")
    mismatches = 0
    for _ in range(params["instances"]):
        size = int(rng.integers(2, params["max_points"] + 1))
        density = rng.uniform(0.1, 0.8)
        outside = np.triu(rng.random((size, size)) < density, k=1)
        if int(oscillation_counts_from_outside(outside)) != exhaustive_count_reference(outside):
            mismatches += 1
    return {
        "instances": params["instances"],
        "max_points": params["max_points"],
        "mismatches": mismatches,
    }, mismatches == 0


def _run_oscillation_axioms(ctx, params, seed):
    paths = [product_exponential(_driver_path(params, seed, trial), ctx["group"])
             for trial in range(params["paths"])]
    rep = regularity.oscillation_axioms_test(paths, params["delta"],
                                             cases=params["cases"], seed=seed)
    return rep, rep["pass"]


def _run_uniform_continuity(ctx, params, seed):
    def probe(probe_seed):
        return regularity.uniform_continuity_probe(
            params["model"], params["T"], params["delta"], params["alpha"],
            params["trials"], probe_seed, cells=params["cells"])

    rep = probe(seed)
    # out-of-sample revalidation on a decorrelated stream
    check = probe(seed + 1_000_003)
    fresh_p = None
    for h_val, p in check.probability_curve.items():
        if float(h_val) <= rep.window:
            fresh_p = p
            break
    slack = SLACK_MULTIPLIER * binom_se(params["alpha"], params["trials"])
    revalidated = fresh_p is not None and fresh_p <= params["alpha"] + slack
    out = rep.to_dict()
    out["fresh_seed_probability"] = fresh_p
    return out, bool(rep.monotone and not rep.none_found and revalidated)


# --------------------------------------------------------------------------
# jump experiments
# --------------------------------------------------------------------------

def _run_detector_fidelity(ctx, params, seed):
    jump_set = jumps.JumpSetSpec(params["epsilon"])
    agg_precision, agg_recall, scored = [], [], 0
    rows = []
    for trial in range(params["trials"]):
        driver = _driver_path(params, seed, trial)
        path = product_exponential(driver, ctx["group"])
        rep = jumps.detector_fidelity(path, jump_set, driver)
        if rep["precision"] is not None:
            agg_precision.append(rep["precision"])
        if rep["recall"] is not None:
            agg_recall.append(rep["recall"])
        scored += rep["scored_true_jumps"]
        for n, tau in enumerate(jumps.hitting_times(path, jump_set)):
            rows.append((trial, n, float(tau)))
    _side_csv(ctx, "hitting_times.csv", ["trial", "n", "tau"], rows)
    precision = float(np.mean(agg_precision)) if agg_precision else None
    recall = float(np.mean(agg_recall)) if agg_recall else None
    out = {"precision": precision, "recall": recall, "scored_true_jumps": scored,
           "trials": params["trials"]}
    if precision is None or recall is None:
        out["notes"] = {"inconclusive": "no scored jumps or no detections"}
        return out, None
    return out, precision == 1.0 and recall == 1.0


def _run_restart_probe(ctx, params, seed):
    rep = jumps.restart_probe(params["model"], params["grid"],
                              jumps.JumpSetSpec(params["epsilon"]),
                              params["h"], params["trials"], seed)
    expect, verdict = params["expect"], rep.get("pass")
    if expect not in ("match", "reject"):
        raise ParameterError(f"unknown expectation {expect!r}")
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


F, I, S, B, LF = float, int, str, bool, list
_MOMENT_PARAMS = {"r": (F, None), "u": (F, None), "alpha": (F, None), "delta": (F, None),
                  "trials": (I, 1000), "cells": (I, 64), "model": (S, None)}
EXPERIMENTS = {
    "group-axioms": ExperimentSpec(
        _run_group_axioms, "group law: associativity, identity, inverses on random triples",
        "groups", {"samples": (I, 10000), "scale": (F, 2.0), "tol": (F, 1e-12)}),
    "exp-log-roundtrip": ExperimentSpec(
        _run_exp_log_roundtrip, "log(exp(V)) = V and exp(log(g)) = g inside the chart",
        "groups", {"samples": (I, 10000), "scale": (F, 2.0), "tol": (F, 1e-10)}),
    "bch-consistency": ExperimentSpec(
        _run_bch_consistency, "truncated commutator series equals log of the product",
        "groups", {"samples": (I, 10000), "scale": (F, 1.0), "tol": (F, 1e-12)}),
    "bracket-properties": ExperimentSpec(
        _run_bracket_properties, "bracket antisymmetry and Jacobi identity residuals",
        "groups", {"samples": (I, 10000), "scale": (F, 1.0), "tol": (F, 1e-12)}),
    "chart-certification": ExperimentSpec(
        _run_chart_certification, "bracket-norm bound and ball-power radius containment by sampling",
        "groups", {"samples": (I, 10000), "delta": (F, None), "power": (I, 2),
                   "products": (I, 100000)}),
    "cocycle-exactness": ExperimentSpec(
        _run_cocycle, "two-parameter increments compose exactly along index triples",
        "multiplicative", {"paths": (I, 5), "triples": (I, 1000), "tol": (F, 1e-12),
                           "model": (S, None), "grid": (S, None)}),
    "cocycle-fault-injection": ExperimentSpec(
        _run_cocycle_fault, "a corrupted cell increment is detected and named (negative control)",
        "multiplicative", {"cell": (I, None), "triples": (I, 1000), "tol": (F, 1e-12),
                           "model": (S, None), "grid": (S, None)}),
    "product-limit-convergence": ExperimentSpec(
        _run_convergence, "time-ordered exponential products converge to the exact construction",
        "multiplicative", {"refinements": (I, 6), "trials": (I, 200), "expect": (S, None),
                           "model_x": (S, None), "model_y": (S, None), "model_z": (S, None),
                           "grid": (S, None)}),
    "right-limit-refinement": ExperimentSpec(
        _run_right_limit, "right-limit evaluation stabilizes under coupled grid refinement",
        "multiplicative", {"trials": (I, 20), "refinements": (I, 3), "probe_points": (I, 5),
                           "model": (S, None), "grid": (S, None)}),
    "oscillation-dp-bruteforce": ExperimentSpec(
        _run_oscillation_dp, "dynamic-program oscillation count equals exhaustive chain search",
        "regularity", {"instances": (I, 1000), "max_points": (I, 12)}),
    "oscillation-axioms": ExperimentSpec(
        _run_oscillation_axioms, "counter monotonicity, exhaustive limits, concatenation bound",
        "regularity", {"paths": (I, 8), "cases": (I, 1000), "delta": (F, None),
                       "model": (S, None), "grid": (S, None)}),
    "max-oscillation-bound": ExperimentSpec(
        _battery(regularity, "mc_maximum_oscillation",
                 "model", "grid", "delta", "trials", "seed"),
        "endpoint exit probability dominates scaled suffix-exit probability",
        "regularity", {"delta": (F, None), "trials": (I, 10000),
                       "model": (S, None), "grid": (S, None)}),
    "largest-step-bound": ExperimentSpec(
        _battery(regularity, "mc_largest_step", "model", "grid", "delta", "trials", "seed"),
        "any-pair exit probability is dominated by suffix-exit probability",
        "regularity", {"delta": (F, None), "trials": (I, 10000),
                       "model": (S, None), "grid": (S, None)}),
    "expectation-bound": ExperimentSpec(
        _battery(regularity, "mc_expectation_bound", "model", "grid", "delta", "trials", "seed",
                 csv=("oscillation_counts.csv", ["count", "trials"],
                      lambda rep: sorted(rep.count_distribution.items()))),
        "mean oscillation count below a/(1-a) with geometric tail",
        "regularity", {"delta": (F, None), "trials": (I, 10000),
                       "model": (S, None), "grid": (S, None)}),
    "uniform-continuity-probe": ExperimentSpec(
        _run_uniform_continuity, "largest window keeping oscillation probability under budget",
        "regularity", {"T": (F, None), "delta": (F, None), "alpha": (F, None),
                       "trials": (I, 2000), "cells": (I, 64), "model": (S, None)}),
    "detector-fidelity": ExperimentSpec(
        _run_detector_fidelity, "threshold detector recovers recorded driver jumps exactly",
        "jumps", {"epsilon": (F, None), "trials": (I, 500),
                  "model": (S, None), "grid": (S, None)}),
    "poisson-battery": ExperimentSpec(
        _battery(jumps, "poisson_battery", "model", "grid", "jump_set", "trials", "seed"),
        "detected jump counts behave like a Poisson process",
        "jumps", {"epsilon": (F, None), "trials": (I, 2000),
                  "model": (S, None), "grid": (S, None)}),
    "restart-probe": ExperimentSpec(
        _run_restart_probe, "increments after the first hitting time match fixed-time increments",
        "jumps", {"epsilon": (F, None), "h": (F, None), "trials": (I, 2000),
                  "expect": (S, "match"), "model": (S, None), "grid": (S, None)}),
    "step-triangle": ExperimentSpec(
        _battery(geometry, "step_triangle_test", "group", "samples", "delta", "seed"),
        "concatenated factor lists certify subadditive step counts",
        "geometry", {"samples": (I, 1000), "delta": (F, None)}),
    "gauge-metric": ExperimentSpec(
        _run_gauge_metric, "gauge distance: left-invariance, symmetry, sampled triangle inequality",
        "geometry", {"samples": (I, 100000), "scale": (F, 2.0)}),
    "bounded-jumps-gate": ExperimentSpec(
        _run_bounded_jumps, "jump increments certified inside a ball power",
        "geometry", {"delta": (F, None), "n_power": (I, None), "expect": (B, True),
                     "model": (S, None)}),
    "exp-moment": ExperimentSpec(
        _battery(geometry, "exp_moment_estimate",
                 "model", "window", "alpha", "delta", "trials", "seed", "cells"),
        "windowed exponential moment of the step counter stabilizes",
        "geometry", _MOMENT_PARAMS),
    "tail-decay": ExperimentSpec(
        _battery(geometry, "tail_decay_fit",
                 "model", "window", "alpha", "delta", "trials", "seed", "cells",
                 csv=("tail_decay.csv", ["k", "gamma", "exceedances", "p_hat", "se"],
                      lambda rep: [(p["k"], p["gamma"], p["exceedances"], p["p_hat"], p["se"])
                                   for p in rep.tail_points])),
        "exceedance tail decays at least geometrically with the exit rate",
        "geometry", _MOMENT_PARAMS),
    "metric-modulus": ExperimentSpec(
        _battery(geometry, "metric_modulus_curve",
                 "model", "T", "alpha", "window_sizes", "trials", "seed", "cells"),
        "shrinking-window metric moments decrease toward zero",
        "geometry", {"T": (F, None), "alpha": (F, None), "window_sizes": (LF, None),
                     "trials": (I, 400), "cells": (I, 256), "model": (S, None)}),
    "additive-determinism": ExperimentSpec(
        _run_additive_determinism, "seeded sampling is bit-identical and refinement is coupled",
        "additive", {"model": (S, None), "grid": (S, None)}),
}

_TYPE_CHECKS = {
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    list: ("a list", lambda v: isinstance(v, list)),
}


def reference_table(key: str) -> str | None:
    """Context table whose entry a parameter names: ``model*`` -> models, ``grid`` -> grids."""
    if key.startswith("model"):
        return "models"
    return "grids" if key == "grid" else None


def merge_params(name: str, params: dict, path: str) -> dict:
    """``params`` over the catalog defaults of experiment ``name``.

    Reads each parameter's type, default and required flag from the
    experiment's schema; an unknown, missing or mistyped parameter raises
    ConfigError under ``path``.
    """
    schema = EXPERIMENTS[name].params
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(path, f"unknown parameters {sorted(unknown)}")
    merged = {}
    for key, (typ, default) in schema.items():
        if key not in params:
            if default is None:
                raise ConfigError(f"{path}.{key}", "required parameter missing")
            merged[key] = default
            continue
        label, ok = _TYPE_CHECKS[typ]
        if not ok(params[key]):
            raise ConfigError(f"{path}.{key}", f"expected {label}, got {params[key]!r}")
        merged[key] = params[key]
    return merged


def catalog() -> list[dict]:
    """Machine-readable experiment catalog."""
    out = []
    for name, spec in sorted(EXPERIMENTS.items()):
        out.append({
            "name": name,
            "module": spec.module,
            "verifies": spec.verifies,
            "params": {
                key: {"type": typ.__name__, "required": default is None,
                      **({} if default is None else {"default": default})}
                for key, (typ, default) in spec.params.items()
            },
        })
    return out


def run_experiment(name: str, ctx: dict, params: dict, seed: int) -> dict:
    """Execute one catalog experiment and return its JSON-ready report."""
    merged = merge_params(name, params, f"{name}.params")
    resolved = {key: ctx[table][value] if (table := reference_table(key)) else value
                for key, value in merged.items()}
    report, verdict = EXPERIMENTS[name].runner(ctx, resolved, seed)
    report = jsonable(report)
    report["status"] = _status(verdict)
    report["experiment"] = name
    report["seed"] = seed
    report["params_used"] = jsonable(merged)
    return report
