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

import numpy as np

from .additive import LevyModel, TimeGrid
from .errors import ParameterError
from .multiplicative import batch_prefixes, map_trial_chunks, require_group
from .rng import substream
from .stats import SLACK_MULTIPLIER, binom_se, mean_se

__all__ = [
    "exhaustive_count_reference",
    "oscillation_counts_from_outside",
    "oscillation_axioms_test",
    "mc_maximum_oscillation",
    "mc_largest_step",
    "mc_expectation_bound",
    "uniform_continuity_probe",
]

TAIL_ORDERS = 4    # geometric-tail orders m = 1..4 checked by mc_expectation_bound
EXHAUSTIVE_MAX_POINTS = 16   # largest window exhaustive_count_reference enumerates


def oscillation_counts_from_outside(outside: np.ndarray) -> np.ndarray:
    """Longest-chain DP on one outside matrix or a batch of matrices of one size.

    ``outside[..., j, k]`` says whether the increment from index j to index k
    leaves the ball; an index with no edge in or out is in no chain.  Returns
    the maximal chain length per matrix.
    """
    outside = np.asarray(outside, dtype=bool)
    m = outside.shape[-1]
    best = np.zeros(outside.shape[:-2] + (m,))
    for k in range(1, m):
        cand = np.where(outside[..., :k, k], best[..., :k], -1.0).max(axis=-1)
        best[..., k] = np.maximum(cand + 1.0, 0.0)
    return best.max(axis=-1).astype(int)


def exhaustive_count_reference(outside: np.ndarray) -> int:
    """Brute-force oscillation count by enumerating all index chains.

    Independent reference for the DP; exponential in the window size, so
    limited to ``EXHAUSTIVE_MAX_POINTS`` points.
    """
    outside = np.asarray(outside, dtype=bool)
    m = outside.shape[0]
    if m > EXHAUSTIVE_MAX_POINTS:
        raise ParameterError(
            f"exhaustive reference limited to {EXHAUSTIVE_MAX_POINTS} points, got {m}")
    best = 0
    for mask in range(1, 1 << m):
        size = mask.bit_count()
        if size - 1 <= best:
            continue
        members = [i for i in range(m) if (mask >> i) & 1]
        if all(outside[a, b] for a, b in zip(members, members[1:])):
            best = size - 1
    return best


def require_two_cells(grid: TimeGrid) -> None:
    """Raise ParameterError unless ``grid`` has the 2 cells that the concatenation check cuts."""
    if grid.n_cells < 2:
        raise ParameterError(f"the concatenation check needs a grid of at least 2 cells, got {grid.n_cells}")


def oscillation_axioms_test(model: LevyModel, grid: TimeGrid, delta: float, paths: int,
                            cases: int, seed: int) -> dict:
    """Structural properties of the oscillation counter on random instances.

    Samples ``paths`` product paths of ``model`` on ``grid`` (trial i on the
    stream (seed, i)) and checks on their outside matrices, with zero
    violations allowed: monotonicity under index subsets, convergence of
    counts along exhaustive enumerations, and the +1 concatenation bound for
    windows in increasing position.
    """
    require_two_cells(grid)
    n = grid.n_cells
    group = require_group(model)
    group.require_chart_radius(delta)
    rng = substream(seed, "oscillation-axioms")
    outside = group.pairs_outside(batch_prefixes(model, grid, seed, paths), delta)
    full = np.arange(n + 1)
    full_counts = oscillation_counts_from_outside(outside)   # each path on all its points

    violations = {"monotone": 0, "exhaustive_limit": 0, "concatenation": 0}
    for which in np.arange(cases) % paths:
        target = int(full_counts[which])
        keep = rng.random(n + 1) < rng.uniform(0.3, 0.9)
        rank = np.argsort(rng.permutation(n + 1))        # each index's position in the order
        cut = int(rng.integers(1, n))
        # each subset as a mask of the full matrix: the random one, the two sides
        # of the cut and the n + 1 prefixes of the order, counted in one call
        sets = np.vstack([keep, full <= cut, full > cut, rank <= full[:, None]])
        counts = oscillation_counts_from_outside(outside[which] & sets[:, None] & sets[..., None])
        if counts[0] > target:
            violations["monotone"] += 1
        if target > counts[1] + counts[2] + 1:
            violations["concatenation"] += 1
        if counts[-1] != target or any(np.diff(counts[3:]) < 0):
            violations["exhaustive_limit"] += 1
    return {
        "cases": cases,
        "violations": violations,
        "pass": not any(violations.values()),
    }


def _any_pair_outside(group, prefixes: np.ndarray, threshold: float) -> np.ndarray:
    """Per trial: does some x(j, k), j < k, have chart norm >= threshold?"""
    return map_trial_chunks(prefixes, lambda chunk: np.triu(
        group.pairs_outside(chunk, threshold), k=1).any(axis=(1, 2)))


def _suffix_norms(group, prefixes: np.ndarray) -> np.ndarray:
    """Chart norms of the suffix increments x(j, n), shape (trials, n+1)."""
    return group.chart_norm(group.pair_increment(prefixes, slice(None), [-1]))


def _superset_check(lemma: str, model: LevyModel, grid: TimeGrid, delta: float,
                    trials: int, seed: int):
    """Shared start of the two superset-ball batteries.

    Returns the group, the certified superset radius of the squared
    delta-ball, and the report of an inequality check: ``pass`` is None while
    inconclusive, and ``slack`` is the allowed margin of three combined
    standard errors.  When the radius left the chart (None) the report is
    already the inconclusive one.
    """
    group = require_group(model)
    radius = group.ball_power_radius(delta, 2)
    report = {"lemma": lemma, "trials": trials, "seed": seed, "estimates": {}, "bound": None,
              "slack": 0.0, "pass": None, "notes": {},
              "params": {"delta": delta, "n_cells": grid.n_cells, "superset_radius": radius}}
    if radius is None:
        report["notes"] = {"inconclusive": "superset radius left the chart"}
    return group, radius, report


def mc_maximum_oscillation(model: LevyModel, grid: TimeGrid, delta: float,
                           trials: int, seed: int) -> dict:
    """Monte Carlo check of the maximum-oscillation inequality."""
    group, radius, report = _superset_check("maximum_oscillation", model, grid,
                                            delta, trials, seed)
    if radius is None:
        return report

    prefixes = batch_prefixes(model, grid, seed, trials)
    from_start = group.chart_norm(prefixes)                      # x(0, j)
    to_end = _suffix_norms(group, prefixes)

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
    report.update({
        "estimates": {"alpha_hat": alpha_hat, "p_exists_outside_superset": p_exists,
                      "p_endpoint_outside": p_end, "lhs": lhs},
        "bound": p_end,
        "slack": slack,
        "pass": passed,
        "notes": {} if passed is not None else {"inconclusive": "alpha_hat >= 1"},
    })
    return report


def mc_largest_step(model: LevyModel, grid: TimeGrid, delta: float,
                    trials: int, seed: int) -> dict:
    """Monte Carlo check of the largest-step inequality."""
    group, radius, report = _superset_check("largest_step", model, grid,
                                            delta, trials, seed)
    if radius is None:
        return report

    prefixes = batch_prefixes(model, grid, seed, trials)
    p_pairs = float(np.mean(_any_pair_outside(group, prefixes, radius)))
    p_anchor = float(np.mean(np.any(_suffix_norms(group, prefixes) >= delta, axis=1)))

    slack = SLACK_MULTIPLIER * float(np.hypot(binom_se(p_pairs, trials),
                                              binom_se(p_anchor, trials)))
    report.update({
        "estimates": {"p_any_pair_outside_superset": p_pairs,
                      "p_any_suffix_outside": p_anchor},
        "bound": p_anchor,
        "slack": slack,
        "pass": bool(p_pairs <= p_anchor + slack),
    })
    return report


def mc_expectation_bound(model: LevyModel, grid: TimeGrid, delta: float,
                         trials: int, seed: int) -> dict:
    """Expectation bound for oscillation counts with split-half estimation.

    alpha is estimated on the first half of the trials and the mean count on
    the second half, so the bound and the estimate it must dominate come from
    independent samples.  The geometric tail from the proof recursion is
    checked for orders up to ``TAIL_ORDERS``.
    """
    group = require_group(model)
    group.require_chart_radius(delta)
    if trials < 2:
        raise ParameterError(f"the split-half estimate needs trials >= 2, got {trials}")
    half = trials // 2
    prefixes = batch_prefixes(model, grid, seed, trials)

    alpha_hat = float(np.mean(_any_pair_outside(group, prefixes[:half], delta)))
    se_alpha = binom_se(alpha_hat, half)

    counts = map_trial_chunks(prefixes[half:], lambda chunk: oscillation_counts_from_outside(
        group.pairs_outside(chunk, delta)))
    mean_count = float(np.mean(counts))
    se_mean = mean_se(counts)
    histogram = {int(k): int(v) for k, v in zip(*np.unique(counts, return_counts=True))}

    report = {
        "count_distribution": histogram,
        "alpha_hat": alpha_hat,
        "alpha_ci": (alpha_hat - 1.96 * se_alpha, alpha_hat + 1.96 * se_alpha),
        "bound": None,
        "mean_count": mean_count,
        "slack": 0.0,
        "pass": None,
        "tail": {"inconclusive": "alpha_hat too close to 1"},
        "trials": trials,
        "seed": seed,
        "params": {"delta": delta, "n_cells": grid.n_cells},
    }
    if alpha_hat >= 1.0 - 10.0 * se_alpha:
        return report

    bound = alpha_hat / (1.0 - alpha_hat)
    se_bound = se_alpha / (1.0 - alpha_hat) ** 2
    slack = SLACK_MULTIPLIER * float(np.hypot(se_mean, se_bound))
    passed = bool(mean_count <= bound + slack)

    tail = {}
    n_b = trials - half
    for m in range(1, TAIL_ORDERS + 1):
        p_m = float(np.mean(counts >= m))
        geo = alpha_hat ** m
        se_geo = m * alpha_hat ** (m - 1) * se_alpha
        tslack = SLACK_MULTIPLIER * float(np.hypot(binom_se(p_m, n_b), se_geo))
        tail[f"m={m}"] = {
            "p_count_ge_m": p_m,
            "geometric_bound": geo,
            "slack": tslack,
            "pass": bool(p_m <= geo + tslack),
        }

    report.update({
        "bound": bound,
        "slack": slack,
        "pass": passed and all(entry["pass"] for entry in tail.values()),
        "tail": tail,
    })
    return report


def uniform_continuity_probe(model: LevyModel, T: float, delta: float, alpha: float,
                             trials: int, seed: int, cells: int = 64) -> dict:
    """Largest dyadic window H with P(any pair within H leaves the ball) <= alpha.

    A pair (t_j, t_k) fits inside a window of length H exactly when
    t_k - t_j <= H, so the probe reduces to banded pairwise checks; the
    probability curve is nondecreasing in H pathwise because the bands are
    nested.
    """
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    group = require_group(model)
    group.require_chart_radius(delta)
    grid = TimeGrid.uniform(T, cells)
    prefixes = batch_prefixes(model, grid, seed, trials)

    points = np.arange(cells + 1)
    spans = points[None, :] - points[:, None]            # k - j at [j, k]
    # smallest band in which each trial already oscillates
    min_span = map_trial_chunks(prefixes, lambda chunk: np.where(
        np.triu(group.pairs_outside(chunk, delta), k=1), spans, cells + 1
    ).min(axis=(1, 2)))

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
    return {
        "window": float(chosen),
        "alpha": alpha,
        "delta": delta,
        "probability_curve": curve,
        "monotone": monotone,
        "none_found": none_found,
        "trials": trials,
        "seed": seed,
    }
