"""Hitting times, the jump counting process, and its Poisson statistics.

A jump set is a chart-norm threshold: the detector flags every grid cell
whose group increment has ``|log| >= epsilon`` and reports the cell's right
endpoint as the hitting time (the cadlag convention).  The batteries check
that the resulting counting process behaves like a Poisson process for
stationary drivers, score the detector against the driver's recorded ground
truth, and probe the restart property after the first hitting time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .additive import AdditivePath, LevyModel, TimeGrid, sample_additive
from .errors import ChartDomainError, ParameterError
from .multiplicative import MultiplicativePath
from .reporting import Report
from .stats import SLACK_MULTIPLIER, batched_ks_exponential, batched_ks_two_sample

__all__ = [
    "JumpSetSpec",
    "JumpReport",
    "hitting_times",
    "hitting_cells",
    "jump_count",
    "log_jump_process",
    "detector_fidelity",
    "poisson_battery",
    "restart_probe",
]

MIN_JUMPS_FOR_VERDICT = 50


@dataclass(frozen=True)
class JumpSetSpec:
    """Threshold jump set: elements with chart norm at least epsilon.

    By construction the set is disjoint from the epsilon-ball around the
    identity; log-undefined elements count as members.
    """

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")

    def contains(self, group, elements: np.ndarray) -> np.ndarray:
        return group.chart_norm(elements) >= self.epsilon


def hitting_cells(path: MultiplicativePath, jump_set: JumpSetSpec) -> np.ndarray:
    """Indices of grid cells whose increment lands in the jump set."""
    return np.flatnonzero(jump_set.contains(path.group, path.cell_increments))


def hitting_times(path: MultiplicativePath, jump_set: JumpSetSpec) -> np.ndarray:
    """Right endpoints of the cells whose increment lands in the jump set."""
    return path.grid.points[hitting_cells(path, jump_set) + 1]


def jump_count(path: MultiplicativePath, jump_set: JumpSetSpec, t: float) -> int:
    """Number of hitting times up to and including t (a cadlag step function)."""
    if not (0.0 <= t <= path.grid.T):
        raise ParameterError(f"t must lie in [0, {path.grid.T}], got {t}")
    taus = hitting_times(path, jump_set)
    return int(np.searchsorted(taus, t, side="right"))


def log_jump_process(path: MultiplicativePath, jump_set: JumpSetSpec) -> AdditivePath:
    """Algebra-valued pure-jump path carrying the logs of the detected jumps."""
    group = path.group
    cells = hitting_cells(path, jump_set)
    taus = path.grid.points[cells + 1]
    norms = group.chart_norm(path.cell_increments[cells])
    outside = norms >= group.chart.rho_prime
    if np.any(outside):
        t_bad = taus[np.argmax(outside)]
        raise ChartDomainError(f"jump at t={t_bad} lies outside the log chart")
    vectors = group.log(path.cell_increments[cells])
    zero_model = LevyModel(space=group)
    n = path.grid.n_cells
    return AdditivePath(
        grid=path.grid,
        model=zero_model,
        drift_part=np.zeros((n, group.dim)),
        gauss_part=np.zeros((n, group.dim)),
        jump_times=taus,
        jump_vectors=vectors,
    )


def detector_fidelity(path: MultiplicativePath, jump_set: JumpSetSpec,
                      truth: AdditivePath) -> dict:
    """Precision/recall of the detector against recorded driver jumps.

    Only true jumps with chart norm at least twice the detection threshold
    are scored; smaller ones straddle the threshold and are excluded from
    both counts.
    """
    group = path.group
    detected = set(int(c) for c in hitting_cells(path, jump_set))
    scored = truth.jump_times[group.norm(truth.jump_vectors) >= 2.0 * jump_set.epsilon]
    scored_cells = [int(c) for c in truth.grid.cell_of(scored)]

    flags = {}
    if not scored_cells:
        flags["no_scored_jumps"] = True
        recall = None
    else:
        hits = sum(1 for c in scored_cells if c in detected)
        recall = hits / len(scored_cells)
    if not detected:
        flags["no_detections"] = True
        precision = None
    else:
        true_cells = set(scored_cells)
        precision = sum(1 for c in detected if c in true_cells) / len(detected)
    return {
        "precision": precision,
        "recall": recall,
        "detected": len(detected),
        "scored_true_jumps": len(scored_cells),
        "flags": flags,
    }


@dataclass(frozen=True)
class JumpReport(Report):
    """Poisson battery output for the jump counting process."""

    lambda_hat: float
    lambda_se: float
    total_jumps: int
    count_mean: float
    dispersion: float | None
    dispersion_pass: bool | None
    ks: dict
    window_correlation: float | None
    correlation_pass: bool | None
    passed: bool | None
    trials: int
    seed: int
    params: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _trial_cells(model: LevyModel, grid: TimeGrid, seed: int, trial: int) -> np.ndarray:
    """Group increments exp(dX_k) of one trial's driver path, one row per cell."""
    driver = sample_additive(model, grid, seed, stream=(trial,))
    return model.space.exp(driver.increments)


def poisson_battery(model: LevyModel, grid: TimeGrid, jump_set: JumpSetSpec,
                    trials: int, seed: int) -> JumpReport:
    """Poisson-law checks for the detected jump count process.

    Stationary models only.  Checks: interarrival KS against the fitted
    exponential law (Bonferroni over batches), dispersion index of the total
    count within 1 +/- 0.1 (when the mean count is at least 5), and the
    sample correlation of counts over the two half-time windows within
    3/sqrt(trials) of zero.
    """
    if not model.stationary:
        raise ParameterError("the Poisson battery requires a stationary model")
    group, T = model.space, grid.T
    counts = np.zeros(trials)
    first_half = np.zeros(trials)
    interarrivals = []
    for trial in range(trials):
        cells = _trial_cells(model, grid, seed, trial)
        taus = grid.points[np.flatnonzero(jump_set.contains(group, cells)) + 1]
        counts[trial] = taus.size
        first_half[trial] = np.count_nonzero(taus <= T / 2)
        interarrivals.append(np.diff(np.concatenate([[0.0], taus])))
    second_half = counts - first_half

    total = int(counts.sum())
    params = {"epsilon": jump_set.epsilon, "T": T, "n_cells": grid.n_cells}
    lambda_hat = total / (T * trials)
    lambda_se = float(np.sqrt(lambda_hat / (T * trials))) if total else 0.0
    if total < MIN_JUMPS_FOR_VERDICT:
        return JumpReport(lambda_hat, lambda_se, total, float(counts.mean()),
                          None, None, {}, None, None, None, trials, seed, params,
                          notes={"underpowered": f"only {total} jumps detected"})

    # rate for the KS reference: arrivals per unit of *observed arrival span*
    # (time covered by completed interarrivals).  Fitting against the raw
    # window rate would misfit: interarrivals completed inside a fixed window
    # are length-biased, with mean ~ (1/rate) * rate*T / (rate*T + 1).
    inter = np.concatenate(interarrivals)
    ks_rate = 1.0 / float(inter.mean())
    ks = batched_ks_exponential(inter, ks_rate)
    ks["fitted_rate"] = ks_rate

    mean_count = float(counts.mean())
    # the +-0.1 dispersion band applies from mean count 5 up; allow the
    # boundary within estimation error of the mean
    if mean_count >= 5.0 - SLACK_MULTIPLIER * np.sqrt(mean_count / trials):
        dispersion = float(counts.var(ddof=1) / mean_count)
        dispersion_pass = bool(abs(dispersion - 1.0) <= 0.1)
    else:
        dispersion, dispersion_pass = None, None

    if first_half.std() > 0 and second_half.std() > 0:
        corr = float(np.corrcoef(first_half, second_half)[0, 1])
        corr_pass = bool(abs(corr) <= SLACK_MULTIPLIER / np.sqrt(trials))
    else:
        corr, corr_pass = None, None

    parts = [ks["pass"]] + [v for v in (dispersion_pass, corr_pass) if v is not None]
    return JumpReport(
        lambda_hat=lambda_hat,
        lambda_se=lambda_se,
        total_jumps=total,
        count_mean=mean_count,
        dispersion=dispersion,
        dispersion_pass=dispersion_pass,
        ks=ks,
        window_correlation=corr,
        correlation_pass=corr_pass,
        passed=bool(all(parts)),
        trials=trials,
        seed=seed,
        params=params,
    )


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
    if not (0 < h < grid.T):
        raise ParameterError(f"h must lie in (0, T), got {h}")
    group = model.space
    steps = int(round(h / grid.mesh))
    if steps < 1 or abs(steps * grid.mesh - h) > 1e-9 * grid.T:
        raise ParameterError("h must be a positive multiple of the (uniform) grid mesh")

    half = trials // 2
    post_hit, fixed = [], []
    for trial in range(trials):
        cells = _trial_cells(model, grid, seed, trial)
        if trial >= half:
            fixed.append(float(group.chart_norm(group.prefix_products(cells[:steps])[steps])))
            continue
        hits = np.flatnonzero(jump_set.contains(group, cells))
        if hits.size == 0:
            continue
        k = int(hits[0]) + 1                   # grid index of tau_1
        if k + steps > grid.n_cells:
            continue
        prefix = group.prefix_products(cells[:k + steps])
        inc = group.mul(group.inv(prefix[k]), prefix[k + steps])
        post_hit.append(float(group.chart_norm(inc)))

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
