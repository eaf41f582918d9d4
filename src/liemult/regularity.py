"""Oscillation counting and Monte Carlo checks of the regularity bounds.

The oscillation count of a path over a finite index set is the longest chain
t_0 < ... < t_m whose successive two-parameter increments all leave the
chart ball of radius delta.  A dynamic program computes it exactly; an
exhaustive reference implementation (used on small windows) keeps the DP
honest.

The Monte Carlo batteries check three inequalities for products of
independent increments at a slack of three combined standard errors:

* maximum-oscillation: (1 - alpha) P(some suffix leaves W) <= P(endpoint
  leaves the delta-ball), where alpha bounds the prefix exit probabilities;
* largest-step: P(some pair leaves W) <= P(some suffix leaves the delta-ball);
* expectation bound: E[oscillation count] <= alpha / (1 - alpha), plus the
  geometric tail P(count >= m) <= P(count >= 1)^m.

Membership in the square of the delta-ball is undecidable directly, so W is
the certified superset ball of radius ``ball_power_radius(delta, 2)``; being
outside W implies being outside the square, which preserves each
inequality's direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .additive import LevyModel, TimeGrid
from .errors import ParameterError
from .multiplicative import MultiplicativePath, batch_prefixes
from .reporting import Report
from .rng import substream
from .stats import SLACK_MULTIPLIER, LemmaReport, binom_se, mean_se

__all__ = [
    "OscillationQuery",
    "OscillationReport",
    "ContinuityProbeReport",
    "count_oscillations",
    "count_oscillations_on_subset",
    "exhaustive_count_reference",
    "oscillation_counts_from_outside",
    "oscillation_axioms_test",
    "mc_maximum_oscillation",
    "mc_largest_step",
    "mc_expectation_bound",
    "uniform_continuity_probe",
]


@dataclass(frozen=True)
class OscillationQuery:
    """Oscillation threshold and inclusive index window [start, stop]."""

    delta: float
    window: tuple[int, int] | None = None


def oscillation_counts_from_outside(outside: np.ndarray) -> np.ndarray:
    """Longest-chain DP on a batch of pairwise outside matrices.

    ``outside[..., j, k]`` says whether the increment from index j to index k
    leaves the ball.  Returns the maximal chain length per batch entry.
    """
    outside = np.asarray(outside, dtype=bool)
    squeeze = outside.ndim == 2
    if squeeze:
        outside = outside[None]
    m = outside.shape[-1]
    best = np.zeros(outside.shape[:-2] + (m,))
    for k in range(1, m):
        cand = np.where(outside[..., :k, k], best[..., :k], -1.0).max(axis=-1)
        best[..., k] = np.maximum(cand + 1.0, 0.0)
    counts = best.max(axis=-1).astype(int)
    return counts[0] if squeeze else counts


def exhaustive_count_reference(outside: np.ndarray) -> int:
    """Brute-force oscillation count by enumerating all index chains.

    Independent reference for the DP; exponential in the window size, meant
    for windows of at most ~14 points.
    """
    outside = np.asarray(outside, dtype=bool)
    m = outside.shape[0]
    if m > 16:
        raise ParameterError(f"exhaustive reference limited to 16 points, got {m}")
    best = 0
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        if size - 1 <= best:
            continue
        members = [i for i in range(m) if (mask >> i) & 1]
        if all(outside[a, b] for a, b in zip(members, members[1:])):
            best = size - 1
    return best


def _outside_on_indices(path: MultiplicativePath, delta: float, indices: np.ndarray) -> np.ndarray:
    group = path.group
    if not (0 < delta < group.chart.rho_prime):
        raise ParameterError(f"delta must lie in (0, rho_prime), got {delta}")
    sub = path.prefix[np.asarray(indices, dtype=int)]
    return group.pairwise_chart_norms(sub) >= delta


def count_oscillations(path: MultiplicativePath, query: OscillationQuery) -> int:
    """Maximal number of successive increments leaving the delta-ball."""
    window = query.window or (0, path.n_cells)
    start, stop = window
    if not (0 <= start <= stop <= path.n_cells):
        raise ParameterError(f"window {window} out of range 0..{path.n_cells}")
    indices = np.arange(start, stop + 1)
    return int(oscillation_counts_from_outside(_outside_on_indices(path, query.delta, indices)))


def count_oscillations_on_subset(path: MultiplicativePath, delta: float,
                                 indices) -> int:
    """Oscillation count over an arbitrary increasing set of grid indices."""
    indices = np.asarray(sorted(indices), dtype=int)
    if indices.size == 0:
        return 0
    return int(oscillation_counts_from_outside(_outside_on_indices(path, delta, indices)))


def oscillation_axioms_test(paths: list[MultiplicativePath], delta: float,
                            cases: int = 1000, seed: int = 0) -> dict:
    """Structural properties of the oscillation counter on random instances.

    Checks, with zero violations allowed: monotonicity under index subsets,
    convergence of counts along exhaustive enumerations, and the +1
    concatenation bound for windows in increasing position.
    """
    rng = substream(seed, "oscillation-axioms")
    matrices = [_outside_on_indices(p, delta, np.arange(p.n_cells + 1)) for p in paths]

    def count_on(which, idx):
        idx = np.sort(np.asarray(idx, dtype=int))
        if idx.size == 0:
            return 0
        return int(oscillation_counts_from_outside(matrices[which][np.ix_(idx, idx)]))

    violations = {"monotone": 0, "exhaustive_limit": 0, "concatenation": 0}
    for case in range(cases):
        which = case % len(paths)
        n = paths[which].n_cells
        full = np.arange(n + 1)
        keep = rng.random(n + 1) < rng.uniform(0.3, 0.9)
        if count_on(which, full[keep]) > count_on(which, full):
            violations["monotone"] += 1

        order = rng.permutation(n + 1)
        target = count_on(which, full)
        grown = [count_on(which, order[:m]) for m in range(1, n + 2)]
        if grown[-1] != target or any(np.diff(grown) < 0):
            violations["exhaustive_limit"] += 1

        cut = int(rng.integers(1, n))
        left = np.arange(0, cut + 1)
        right = np.arange(cut + 1, n + 1)
        if count_on(which, full) > count_on(which, left) + count_on(which, right) + 1:
            violations["concatenation"] += 1
    return {
        "cases": cases,
        "violations": violations,
        "pass": not any(violations.values()),
    }


def _require_group_model(model: LevyModel):
    group = model.space
    if not hasattr(group, "mul"):
        raise ParameterError("the model must be bound to a group instance")
    return group


def _pairwise_outside_batch(group, prefixes: np.ndarray, threshold: float,
                            chunk: int = 128) -> np.ndarray:
    trials = prefixes.shape[0]
    m = prefixes.shape[1]
    out = np.empty((trials, m, m), dtype=bool)
    for s in range(0, trials, chunk):
        out[s:s + chunk] = group.pairwise_chart_norms(prefixes[s:s + chunk]) >= threshold
    return out


def mc_maximum_oscillation(model: LevyModel, grid: TimeGrid, delta: float,
                           trials: int, seed: int) -> LemmaReport:
    """Monte Carlo check of the maximum-oscillation inequality."""
    group = _require_group_model(model)
    radius = group.ball_power_radius(delta, 2)
    params = {"delta": delta, "n_cells": grid.n_cells, "superset_radius": radius}
    if radius is None:
        return LemmaReport("maximum_oscillation", params, {}, None, 0.0, None,
                           trials, seed, notes={"inconclusive": "superset radius left the chart"})

    prefixes = batch_prefixes(group, model, grid, trials, seed)
    from_start = group.chart_norm(prefixes)                      # x(0, j)
    to_end = group.chart_norm(group.mul(group.inv(prefixes), prefixes[:, -1:, :]))  # x(j, n)

    alpha_hat = float(np.max(np.mean(from_start >= delta, axis=0)))
    p_exists = float(np.mean(np.any(to_end >= radius, axis=1)))
    p_end = float(np.mean(from_start[:, -1] >= delta))

    se_alpha = binom_se(alpha_hat, trials)
    se_exists = binom_se(p_exists, trials)
    se_end = binom_se(p_end, trials)
    combined = float(np.sqrt(((1 - alpha_hat) * se_exists) ** 2
                             + (p_exists * se_alpha) ** 2 + se_end ** 2))
    slack = SLACK_MULTIPLIER * combined
    lhs = (1.0 - alpha_hat) * p_exists
    passed = None if alpha_hat >= 1.0 else bool(lhs <= p_end + slack)
    return LemmaReport(
        lemma="maximum_oscillation",
        params=params,
        estimates={"alpha_hat": alpha_hat, "p_exists_outside_superset": p_exists,
                   "p_endpoint_outside": p_end, "lhs": lhs},
        bound=p_end,
        slack=slack,
        passed=passed,
        trials=trials,
        seed=seed,
        notes={} if passed is not None else {"inconclusive": "alpha_hat >= 1"},
    )


def mc_largest_step(model: LevyModel, grid: TimeGrid, delta: float,
                    trials: int, seed: int) -> LemmaReport:
    """Monte Carlo check of the largest-step inequality."""
    group = _require_group_model(model)
    radius = group.ball_power_radius(delta, 2)
    params = {"delta": delta, "n_cells": grid.n_cells, "superset_radius": radius}
    if radius is None:
        return LemmaReport("largest_step", params, {}, None, 0.0, None,
                           trials, seed, notes={"inconclusive": "superset radius left the chart"})

    prefixes = batch_prefixes(group, model, grid, trials, seed)
    outside_w = _pairwise_outside_batch(group, prefixes, radius)
    upper = np.triu(np.ones(outside_w.shape[-2:], dtype=bool), k=1)
    p_pairs = float(np.mean(np.any(outside_w & upper, axis=(1, 2))))
    to_end = group.chart_norm(group.mul(group.inv(prefixes), prefixes[:, -1:, :]))
    p_anchor = float(np.mean(np.any(to_end >= delta, axis=1)))

    slack = SLACK_MULTIPLIER * float(np.hypot(binom_se(p_pairs, trials),
                                              binom_se(p_anchor, trials)))
    return LemmaReport(
        lemma="largest_step",
        params=params,
        estimates={"p_any_pair_outside_superset": p_pairs,
                   "p_any_suffix_outside": p_anchor},
        bound=p_anchor,
        slack=slack,
        passed=bool(p_pairs <= p_anchor + slack),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class OscillationReport(Report):
    """Expectation-bound battery output."""

    count_distribution: dict
    alpha_hat: float
    alpha_ci: tuple[float, float]
    bound: float | None
    mean_count: float
    slack: float
    passed: bool | None
    tail: dict
    trials: int
    seed: int
    params: dict = field(default_factory=dict)


def mc_expectation_bound(model: LevyModel, grid: TimeGrid, delta: float,
                         trials: int, seed: int, tail_orders: int = 4) -> OscillationReport:
    """Expectation bound for oscillation counts with split-half estimation.

    alpha is estimated on the first half of the trials and the mean count on
    the second half, so the bound and the estimate it must dominate come from
    independent samples.  The geometric tail from the proof recursion is
    checked for orders up to ``tail_orders``.
    """
    group = _require_group_model(model)
    if not (0 < delta < group.chart.rho_prime):
        raise ParameterError(f"delta must lie in (0, rho_prime), got {delta}")
    half = trials // 2
    prefixes = batch_prefixes(group, model, grid, trials, seed)
    outside = _pairwise_outside_batch(group, prefixes, delta)
    upper = np.triu(np.ones(outside.shape[-2:], dtype=bool), k=1)

    any_pair_a = np.any(outside[:half] & upper, axis=(1, 2))
    alpha_hat = float(np.mean(any_pair_a))
    se_alpha = binom_se(alpha_hat, half)

    counts = oscillation_counts_from_outside(outside[half:])
    mean_count = float(np.mean(counts))
    se_mean = mean_se(counts)
    histogram = {int(k): int(v) for k, v in zip(*np.unique(counts, return_counts=True))}

    params = {"delta": delta, "n_cells": grid.n_cells}
    if alpha_hat >= 1.0 - 10.0 * se_alpha:
        return OscillationReport(histogram, alpha_hat,
                                 (alpha_hat - 1.96 * se_alpha, alpha_hat + 1.96 * se_alpha),
                                 None, mean_count, 0.0, None,
                                 {"inconclusive": "alpha_hat too close to 1"},
                                 trials, seed, params)

    bound = alpha_hat / (1.0 - alpha_hat)
    se_bound = se_alpha / (1.0 - alpha_hat) ** 2
    slack = SLACK_MULTIPLIER * float(np.hypot(se_mean, se_bound))
    passed = bool(mean_count <= bound + slack)

    tail = {}
    n_b = trials - half
    for m in range(1, tail_orders + 1):
        p_m = float(np.mean(counts >= m))
        geo = alpha_hat ** m
        se_geo = m * alpha_hat ** (m - 1) * se_alpha if m >= 1 else 0.0
        tslack = SLACK_MULTIPLIER * float(np.hypot(binom_se(p_m, n_b), se_geo))
        tail[f"m={m}"] = {
            "p_count_ge_m": p_m,
            "geometric_bound": geo,
            "slack": tslack,
            "pass": bool(p_m <= geo + tslack),
        }

    return OscillationReport(
        count_distribution=histogram,
        alpha_hat=alpha_hat,
        alpha_ci=(alpha_hat - 1.96 * se_alpha, alpha_hat + 1.96 * se_alpha),
        bound=bound,
        mean_count=mean_count,
        slack=slack,
        passed=passed and all(entry["pass"] for entry in tail.values()),
        tail=tail,
        trials=trials,
        seed=seed,
        params=params,
    )


@dataclass(frozen=True)
class ContinuityProbeReport(Report):
    """Largest window length below the oscillation-probability budget."""

    window: float
    alpha: float
    delta: float
    probability_curve: dict
    monotone: bool
    none_found: bool
    trials: int
    seed: int


def uniform_continuity_probe(model: LevyModel, T: float, delta: float, alpha: float,
                             trials: int, seed: int, cells: int = 64) -> ContinuityProbeReport:
    """Largest dyadic window H with P(any pair within H leaves the ball) <= alpha.

    A pair (t_j, t_k) fits inside a window of length H exactly when
    t_k - t_j <= H, so the probe reduces to banded pairwise checks; the
    probability curve is nondecreasing in H pathwise because the bands are
    nested.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    group = _require_group_model(model)
    if not (0 < delta < group.chart.rho_prime):
        raise ParameterError(f"delta must lie in (0, rho_prime), got {delta}")
    grid = TimeGrid.uniform(T, cells)
    prefixes = batch_prefixes(group, model, grid, trials, seed)
    outside = _pairwise_outside_batch(group, prefixes, delta)

    j_idx, k_idx = np.triu_indices(cells + 1, k=1)
    spans = k_idx - j_idx
    pair_outside = outside[:, j_idx, k_idx]
    # smallest band in which each trial already oscillates
    masked = np.where(pair_outside, spans[None, :], cells + 1)
    min_span = masked.min(axis=1)

    levels = int(np.log2(cells))
    curve = {}
    chosen = None
    values = []
    for r in range(levels + 1):
        band = cells >> r                      # H = T / 2^r in cells
        p_hat = float(np.mean(min_span <= band))
        h_val = band * grid.mesh
        curve[h_val] = p_hat
        values.append(p_hat)
        if p_hat <= alpha and chosen is None:
            chosen = h_val
    monotone = bool(np.all(np.diff(values) <= 0))  # values listed from largest H down
    none_found = chosen is None
    if none_found:
        chosen = grid.mesh
    return ContinuityProbeReport(
        window=float(chosen),
        alpha=alpha,
        delta=delta,
        probability_curve=curve,
        monotone=monotone,
        none_found=none_found,
        trials=trials,
        seed=seed,
    )
