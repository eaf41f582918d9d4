"""Hitting times, the jump counting process, and its Poisson statistics.

A jump set is a chart-norm threshold: the detector flags every grid cell
whose group increment has ``|log| >= epsilon`` and reports the cell's right
endpoint as the hitting time (the cadlag convention).  The batteries check
that the resulting counting process behaves like a Poisson process for
stationary drivers, score the detector against the driver's recorded ground
truth, and probe the restart property after the first hitting time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .additive import LevyModel, TimeGrid, driver_paths, sample_additive
from .errors import ParameterError
from .multiplicative import product_exponential, require_group
from .stats import SLACK_MULTIPLIER, batched_ks_exponential, batched_ks_two_sample

__all__ = [
    "JumpSetSpec",
    "detector_fidelity",
    "poisson_battery",
    "restart_probe",
]

MIN_JUMPS_FOR_VERDICT = 50


@dataclass(frozen=True)
class JumpSetSpec:
    """Threshold jump set: elements with chart norm at least epsilon.

    By construction the set is disjoint from the epsilon-ball around the
    identity; an element whose chart norm is NaN is not a member.
    """

    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ParameterError(f"epsilon must be positive and finite, got {self.epsilon}")

    def hits(self, group, cells: np.ndarray) -> np.ndarray:
        """Indices of the cell increments ``cells`` (n, d) that land in the set."""
        return np.flatnonzero(group.chart_norm(cells) >= self.epsilon)


def detector_fidelity(model: LevyModel, grid: TimeGrid, jump_set: JumpSetSpec,
                      trials: int, seed: int) -> dict:
    """Precision/recall of the detector against recorded driver jumps.

    Each trial's driver is the stream (seed, trial); its product path is
    scored, and precision and recall are averaged over the trials that have
    detections and scored jumps respectively.  Only true jumps with chart
    norm at least twice the detection threshold are scored; smaller ones
    straddle the threshold and are excluded from both counts.  The report
    also lists every detection as a ``(trial, n, tau)`` row under
    ``hitting_times``.
    """
    group = require_group(model)
    precisions, recalls, scored, rows = [], [], 0, []
    for trial in range(trials):
        driver = sample_additive(model, grid, seed, stream=(trial,))
        detected = jump_set.hits(group, product_exponential(driver).cell_increments)
        big = driver.jump_times[group.norm(driver.jump_vectors) >= 2.0 * jump_set.epsilon]
        true_cells = [int(c) for c in grid.cell_of(big)]
        if true_cells:
            recalls.append(np.isin(true_cells, detected).sum() / len(true_cells))
        if detected.size:
            precisions.append(np.isin(detected, true_cells).sum() / detected.size)
        scored += len(true_cells)
        rows.extend((trial, n, float(tau)) for n, tau in enumerate(grid.points[detected + 1]))
    report = {"precision": float(np.mean(precisions)) if precisions else None,
              "recall": float(np.mean(recalls)) if recalls else None,
              "scored_true_jumps": scored, "trials": trials, "hitting_times": rows}
    if not (precisions and recalls):
        report["notes"] = {"inconclusive": "no scored jumps or no detections"}
    return report


def poisson_battery(model: LevyModel, grid: TimeGrid, jump_set: JumpSetSpec,
                    trials: int, seed: int) -> dict:
    """Poisson-law checks for the detected jump count process.

    Stationary models only.  Checks: interarrival KS against the fitted
    exponential law (Bonferroni over batches), dispersion index of the total
    count within 1 +/- 0.1 (when the mean count is at least 5), and the
    sample correlation of counts over the two half-time windows within
    3/sqrt(trials) of zero.
    """
    require_stationary(model)
    group, T = require_group(model), grid.T
    counts = np.zeros(trials)
    first_half = np.zeros(trials)
    interarrivals = []
    for trial, path in enumerate(driver_paths(model, grid, seed, trials)):
        taus = grid.points[jump_set.hits(group, group.exp(path.increments)) + 1]
        counts[trial] = taus.size
        first_half[trial] = np.count_nonzero(taus <= T / 2)
        interarrivals.append(np.diff(np.concatenate([[0.0], taus])))
    second_half = counts - first_half

    total = int(counts.sum())
    lambda_hat = total / (T * trials)
    report = {
        "lambda_hat": lambda_hat,
        "lambda_se": float(np.sqrt(lambda_hat / (T * trials))) if total else 0.0,
        "total_jumps": total,
        "count_mean": float(counts.mean()),
        "dispersion": None,
        "dispersion_pass": None,
        "ks": {},
        "window_correlation": None,
        "correlation_pass": None,
        "pass": None,
        "trials": trials,
        "seed": seed,
        "params": {"epsilon": jump_set.epsilon, "T": T, "n_cells": grid.n_cells},
        "notes": {},
    }
    if total < MIN_JUMPS_FOR_VERDICT:
        report["notes"] = {"underpowered": f"only {total} jumps detected"}
        return report

    # rate for the KS reference: arrivals per unit of *observed arrival span*
    # (time covered by completed interarrivals).  Fitting against the raw
    # window rate would misfit: interarrivals completed inside a fixed window
    # are length-biased, with mean ~ (1/rate) * rate*T / (rate*T + 1).
    inter = np.concatenate(interarrivals)
    ks_rate = 1.0 / float(inter.mean())
    report["ks"] = ks = batched_ks_exponential(inter, ks_rate)
    ks["fitted_rate"] = ks_rate

    mean_count = report["count_mean"]
    # the +-0.1 dispersion band applies from mean count 5 up; allow the
    # boundary within estimation error of the mean
    if mean_count >= 5.0 - SLACK_MULTIPLIER * np.sqrt(mean_count / trials):
        report["dispersion"] = dispersion = float(counts.var(ddof=1) / mean_count)
        report["dispersion_pass"] = bool(abs(dispersion - 1.0) <= 0.1)

    if first_half.std() > 0 and second_half.std() > 0:
        report["window_correlation"] = corr = float(np.corrcoef(first_half, second_half)[0, 1])
        report["correlation_pass"] = bool(abs(corr) <= SLACK_MULTIPLIER / np.sqrt(trials))

    checks = (ks["pass"], report["dispersion_pass"], report["correlation_pass"])
    report["pass"] = bool(all(v for v in checks if v is not None))
    return report


def require_stationary(model: LevyModel) -> None:
    """Raise ParameterError unless ``model`` is stationary (no ``scale``), as the Poisson law needs."""
    if model.scale is not None:
        raise ParameterError("the Poisson battery requires a stationary model, got one with a scale")


def lag_steps(grid: TimeGrid, h: float) -> int:
    """Grid cells spanned by the lag ``h``; ParameterError unless h in (0, T) is a multiple of the mesh."""
    if not 0 < h < grid.T:
        raise ParameterError(f"h must lie in (0, T) = (0, {grid.T}), got {h}")
    steps = int(round(h / grid.mesh))
    if steps < 1 or abs(steps * grid.mesh - h) > 1e-9 * grid.T:
        raise ParameterError(f"h must be a multiple of the grid mesh {grid.mesh}, got {h}")
    return steps


def restart_probe(model: LevyModel, grid: TimeGrid, jump_set: JumpSetSpec,
                  h: float, trials: int, seed: int) -> dict:
    """Two-sample comparison of increments after the first hitting time.

    The chart-norm of the increment over (tau_1, tau_1 + h] (first half of
    the trials) is compared with the increment over (0, h] from independent
    trials (second half); for a stationary driver the two laws agree.  The
    probe rejects when the Bonferroni-aggregated two-sample KS p-value falls
    below the 0.01 floor.

    Each trial's path is sampled once, and its prefix products are built
    only up to the last grid index the trial reads; the prefix recursion runs
    left to right, so those rows equal the rows of the full path.
    """
    group, steps = require_group(model), lag_steps(grid, h)

    half = trials // 2
    post_hit, fixed = [], []
    for trial, path in enumerate(driver_paths(model, grid, seed, trials)):
        cells, k = group.exp(path.increments), 0     # a fixed-lag trial starts at index 0
        if trial < half:
            hits = jump_set.hits(group, cells)
            # grid index of tau_1; a trial without a hit is skipped
            k = int(hits[0]) + 1 if hits.size else grid.n_cells
            if k + steps > grid.n_cells:
                continue
        prefix = group.prefix_products(cells[:k + steps])
        (post_hit if trial < half else fixed).append(
            float(group.chart_norm(group.pair_increment(prefix, k, k + steps))))

    result = {
        "h": h,
        "post_hit_samples": len(post_hit),
        "fixed_samples": len(fixed),
        "trials": trials,
        "seed": seed,
    }
    if len(post_hit) < MIN_JUMPS_FOR_VERDICT:
        result.update({"pass": None, "notes": {"underpowered": f"{len(post_hit)} usable trials"}})
        return result
    ks = batched_ks_two_sample(np.asarray(post_hit), np.asarray(fixed))
    result.update({"ks": ks, "consistent": ks["pass"], "pass": ks["pass"]})
    return result
