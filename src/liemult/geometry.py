"""Word-length step counter, gauge metric, and exponential moment checks.

``step_count_upper`` produces a certified upper bound for the minimal number
of factors from the delta-ball needed to write a group element, for one
element (d,) or for each element of a stack (B, d) at once: it returns an
explicit factor word per element (an array of leg and commutator-gadget
blocks), re-multiplies every word, and fails loudly unless each product
reproduces its element to 1e-10 with every factor strictly inside the ball.
The words of a stack are built stage by stage for all elements together and
folded through the group's ``prefix_products``, sorted by length and a few
at a time.  The bound is an upper bound of the word-length infimum, so using
it inside the moment inequalities only strengthens what is checked.

The gauge metric is the fourth-root homogeneous norm on the p = 2
Heisenberg instance; it is left-invariant and symmetric by construction and
its triangle inequality is certified by large-scale sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .additive import LevyModel, TimeGrid
from .errors import HypothesisError, InvalidInputError, ParameterError
from .groups import HeisenbergGroup, UnipotentGroup, lp_norm, sample_scaled_vectors
from .multiplicative import batch_prefixes, map_trial_chunks, require_group
from .rng import substream
from .stats import binom_se, fit_slope, mean_se

__all__ = [
    "StepCountResult",
    "step_count_upper",
    "step_counts_batch",
    "step_triangle_test",
    "gauge_norm",
    "gauge_distance",
    "bounded_jumps_check",
    "minimal_jump_power",
    "exp_moment_estimate",
    "tail_decay_fit",
    "metric_modulus_curve",
]

CERTIFICATION_TOL = 1e-10
LEG_FRACTION = 0.9          # factor norms stay at 0.9 * delta
GADGET_FRACTION = 0.45      # commutator legs use 0.45 * delta per side
MAX_NORM_FACTOR = 3.0       # step-triangle samples norms uniformly in [0, 3 * delta)
CERTIFY_SAMPLES = 16        # exp-moment pairs recounted by the certified constructor
FOLD_CHUNK = 16             # words folded together by one prefix_products call
TAIL_LEVELS = 5             # exceedance thresholds of the tail-decay fit
MIN_EXCEEDANCES = 10        # exceedances a tail-decay level needs to enter the slope fit


@dataclass(frozen=True)
class StepCountResult:
    """Certified decomposition g = exp(G_1) ... exp(G_m), every |G_i| < delta, and the
    chart norm of g; for a stack, ``upper``, ``certified_defect`` and ``norms`` are
    arrays and the words of all elements follow one another in ``factors``."""

    upper: int | np.ndarray
    factors: np.ndarray
    certified_defect: float | np.ndarray
    norms: float | np.ndarray


def _heisenberg_count_parts(group: HeisenbergGroup, x, y, z, delta: float):
    """Leg and gadget counts, z residual and norm, for both step counters."""
    leg = LEG_FRACTION * delta
    cap = (GADGET_FRACTION * delta) ** 2
    nx = lp_norm(np.asarray(x, float), group.p)
    ny = lp_norm(np.asarray(y, float), group.q)
    m_x = np.where(nx > 0, np.ceil(nx / leg), 0.0)
    m_y = np.where(ny > 0, np.ceil(ny / leg), 0.0)
    z_res = np.asarray(z, float) - 0.5 * group.pairing(x, y)
    gadgets = np.where(z_res != 0, np.ceil(np.abs(z_res) / cap), 0.0)
    return m_x, m_y, gadgets, z_res, nx + ny + np.abs(z)


def _leg_words(totals: np.ndarray, counts: np.ndarray):
    """Per element, ``counts[i]`` equal legs totals[i] / counts[i] (none when 0)."""
    return np.repeat(totals / np.maximum(counts, 1)[:, None], counts, axis=0), counts


def _gadget_amounts(coeffs: np.ndarray, side: float):
    """Per element, the ceil(|coeff| / cap) gadget amounts b, cap = side^2, that fill
    |coeff|, flat element after element, and their counts: each takes min(cap, what
    is left), so a * b with |a| = side sums to |coeff|."""
    cap = side * side
    remaining = np.abs(coeffs)
    counts = np.ceil(remaining / cap).astype(np.int64)
    amounts = np.zeros((counts.size, counts.max(initial=0)))
    for t in range(amounts.shape[1]):
        amount = np.minimum(cap, remaining)
        remaining = remaining - amount
        amounts[:, t] = amount / side
    return amounts[np.arange(amounts.shape[1]) < counts[:, None]], counts


def _gadget_words(dim: int, ia: int, ib: int, coeffs: np.ndarray, side: float):
    """Per element, rows exp(a e_ia) exp(b e_ib) exp(-a e_ia) exp(-b e_ib) for each of
    its amounts b, a = side with the sign of its coefficient: when [e_ia, e_ib]
    commutes with both, each gadget is exp(ab [e_ia, e_ib])."""
    amounts, counts = _gadget_amounts(coeffs, side)
    a = np.repeat(np.where(coeffs >= 0, side, -side), counts)
    word = np.zeros((amounts.size, 4, dim))
    word[:, 0, ia] = a
    word[:, 1, ib] = amounts
    word[:, 2, ia] = -a
    word[:, 3, ib] = -amounts
    return word.reshape(-1, dim), 4 * counts


def _join_words(*words):
    """Per element, the rows of each (rows, lengths) word in turn.  A word holds
    the rows of every element, element after element, ``lengths[i]`` of them for
    element i."""
    rows = np.concatenate([r for r, _ in words])
    owner = np.concatenate([np.repeat(np.arange(n.size), n) for _, n in words])
    return rows[np.argsort(owner, kind="stable")], sum(n for _, n in words)


def _ordered_products(group, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Left-to-right product of each element's word of group elements, through
    ``prefix_products``.  The words are sorted by length and folded FOLD_CHUNK
    at a time, each chunk padded with identity rows to its own longest word; a
    trailing identity changes no product."""
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    out = np.zeros((lengths.size, group.dim))
    for chunk in np.split(order, range(FOLD_CHUNK, order.size, FOLD_CHUNK)):
        place = np.arange(lengths[chunk].max(initial=0))
        live = place < lengths[chunk, None]
        padded = np.zeros(live.shape + (group.dim,))
        padded[live] = rows[(starts[chunk, None] + place)[live]]
        out[chunk] = group.prefix_products(padded)[:, -1]
    return out


def _word_defects(group, factors: np.ndarray, lengths: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Chart distance between each element's ordered product of exp(factors) and its target."""
    products = _ordered_products(group, group.exp(factors), lengths)
    return group.norm(group.log(products) - group.log(targets))


def _heisenberg_factors(group: HeisenbergGroup, g: np.ndarray, delta: float):
    x, y, z = group.split(g)
    m_x, m_y, _, z_res, _ = _heisenberg_count_parts(group, x, y, z, delta)
    return _join_words(_leg_words(group.embed(a=x), m_x.astype(np.int64)),
                       _leg_words(group.embed(b=y), m_y.astype(np.int64)),
                       _gadget_words(group.dim, 0, group.N, z_res, GADGET_FRACTION * delta))


def _unipotent_factors(group: UnipotentGroup, g: np.ndarray, delta: float):
    """Level sweep: one-parameter legs for the first superdiagonal, then for
    each level L = 2, ..., n-1 commutator gadgets filling the entries (i, i+L)
    from the legs (i, i+L-1) and (i+L-1, i+L), recomputing the exact residual
    between stages.  A gadget changes only entries above its own level."""
    side = GADGET_FRACTION * delta
    n = group.n
    flat = group.to_matrix(np.arange(group.dim, dtype=float)).astype(int)  # entry -> coordinate
    first = flat[np.arange(n - 1), np.arange(1, n)]                        # the first superdiagonal
    targets = [(i, i + level) for level in range(2, n) for i in range(n - level)]
    current = np.zeros_like(g)
    words = []
    for target in [None, *targets]:     # None: the legs of the first superdiagonal
        if words:                       # fold the last stage onto the product so far
            rows, lengths = words[-1]
            current = _ordered_products(group, *_join_words(
                (current, np.ones(len(g), dtype=np.int64)), (group.exp(rows), lengths)))
        residual = group.log(group.mul(group.inv(current), g))
        if target is None:
            a1 = np.zeros_like(residual)
            a1[:, first] = residual[:, first]
            counts = np.ceil(group.norm(a1) / (LEG_FRACTION * delta)).astype(np.int64)
            words.append(_leg_words(a1, counts))
        else:
            i, j = target
            words.append(_gadget_words(group.dim, flat[i, j - 1], flat[j - 1, j],
                                       residual[:, flat[i, j]], side))
    return _join_words(*words)


def step_count_upper(group, g: np.ndarray, delta: float) -> StepCountResult:
    """Certified upper bound for the minimal ball-factor count of one element
    g of shape (d,), or of each element of a stack (B, d).

    Every call rebuilds the product of the returned factors and verifies that,
    for every element, it reproduces the element to 1e-10 with all factor
    norms strictly below delta.  On a stack, ``upper``, ``certified_defect`` and
    ``norms`` are arrays (B,) and ``factors`` holds the words of all elements,
    element after element, ``upper[i]`` rows for element i.
    """
    group.require_chart_radius(delta)
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != group.dim:
        raise InvalidInputError(f"expected an element or a stack of elements of dimension {group.dim}")
    stack = g.reshape(-1, group.dim)

    chart = group.chart_norm(stack)
    inside = (chart > 0.0) & (chart < delta)
    outside = ~(chart < delta)
    built, built_lengths = np.empty((0, group.dim)), np.zeros(len(stack), dtype=np.int64)
    if outside.any():
        if isinstance(group, HeisenbergGroup):
            construct = _heisenberg_factors
        elif isinstance(group, UnipotentGroup):
            construct = _unipotent_factors
        else:
            raise ParameterError(f"no step-count construction for {group!r}")
        built, built_lengths[outside] = construct(group, stack[outside], delta)
    factors, upper = _join_words((group.log(stack[inside]), inside.astype(np.int64)),
                                 (built, built_lengths))

    # a one-factor row is log(g), whose norm is the chart norm the split put below
    # delta, so only the constructed rows need the check
    if len(built) and float(np.max(group.norm(built))) >= delta:
        raise RuntimeError("step-count certification failed: a factor left the ball")
    defects = _word_defects(group, factors, upper, stack)
    failed = defects[defects > CERTIFICATION_TOL]
    if failed.size:
        raise RuntimeError(f"step-count certification failed: defect {failed[0]:.3e}")
    if g.ndim == 1:
        return StepCountResult(upper=int(upper[0]), factors=factors,
                               certified_defect=float(defects[0]), norms=float(chart[0]))
    return StepCountResult(upper=upper, factors=factors, certified_defect=defects, norms=chart)


def step_counts_batch(group, elements: np.ndarray, delta: float, with_norms: bool = False):
    """Step counts over an array of group elements (..., d), and with ``with_norms``
    their chart norms.  On the Heisenberg group the counts are vectorized,
    branch-identical to ``step_count_upper``, and the norms are the sum
    |x|_p + |y|_q + |z| they form, the same sum as ``group.norm``; on other
    groups both come from one ``step_count_upper`` call."""
    group.require_chart_radius(delta)
    elements = np.asarray(elements, dtype=float)
    if isinstance(group, HeisenbergGroup):
        x, y, z = group.split(elements)
        m_x, m_y, gadgets, _, norms = _heisenberg_count_parts(group, x, y, z, delta)
        full = m_x + m_y + 4.0 * gadgets
        counts = np.where(norms == 0.0, 0.0, np.where(norms < delta, 1.0, full)).astype(np.int64)
    else:
        result = step_count_upper(group, elements.reshape(-1, group.dim), delta)
        counts, norms = (v.reshape(elements.shape[:-1]) for v in (result.upper, result.norms))
    return (counts, norms) if with_norms else counts


def step_triangle_test(group, samples: int, delta: float, seed: int = 0) -> dict:
    """Subadditivity of the certified counter via factor concatenation.

    For random pairs (g, h) the concatenation of their factor lists is
    checked to be a valid ball-decomposition of gh, which certifies
    ``inf-count(gh) <= upper(g) + upper(h)``; zero violations allowed.  The
    directly recomputed counter on gh is reported for comparison but is not
    required to respect the sum (a counter computed from gh alone cannot).
    """
    rng = substream(seed, "step-triangle")
    g, h = np.stack([group.exp(sample_scaled_vectors(rng, group, MAX_NORM_FACTOR * delta, 2))
                     for _ in range(samples)], axis=1)
    gh = group.mul(g, h)
    counts = step_count_upper(group, np.concatenate([g, h, gh]), delta)
    upper_g, upper_h, upper_gh = np.split(counts.upper, 3)
    rows_g = upper_g.sum()
    defects = _word_defects(group, *_join_words(
        (counts.factors[:rows_g], upper_g),
        (counts.factors[rows_g:rows_g + upper_h.sum()], upper_h)), gh)
    violations = int(np.count_nonzero(defects > 10 * CERTIFICATION_TOL))
    worst_defect = float(np.max(defects, initial=0.0))
    direct_le_sum = int(np.count_nonzero(upper_gh <= upper_g + upper_h))
    return {
        "samples": samples,
        "delta": delta,
        "concatenation_violations": violations,
        "worst_concatenation_defect": worst_defect,
        "direct_le_sum_fraction": direct_le_sum / samples,
        "pass": violations == 0,
    }


def require_gauge_metric(group) -> None:
    """Raise ParameterError unless ``group`` is the p = 2 Heisenberg group, the one with a gauge metric."""
    if not (isinstance(group, HeisenbergGroup) and group.p == 2.0):
        raise ParameterError(f"the gauge metric needs the p = 2 Heisenberg group, got {group!r}")


def gauge_norm(group: HeisenbergGroup, v: np.ndarray) -> np.ndarray:
    """Fourth-root homogeneous gauge on the p = 2 instance."""
    require_gauge_metric(group)
    x, y, z = group.split(np.asarray(v, dtype=float))
    horizontal = group.pairing(x, x) + group.pairing(y, y)
    return (horizontal**2 + 16.0 * z * z) ** 0.25


def gauge_distance(group: HeisenbergGroup, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Left-invariant distance d(g, h) = N(inv(g) h)."""
    return gauge_norm(group, group.mul(group.inv(g), h))


def minimal_jump_power(model: LevyModel, delta: float, seed: int = 0) -> int:
    """Smallest certified n with all jump-law group increments in the
    delta-ball power n (0 for jump-free models)."""
    group = require_group(model)
    if model.jump_intensity == 0 or model.jump_law is None:
        return 0
    points = model.jump_law.extreme_points(group, substream(seed, "jump-extremes"))
    return int(np.max(step_count_upper(group, group.exp(points), delta).upper))


def bounded_jumps_check(model: LevyModel, delta: float, n_power: int,
                        seed: int = 0) -> dict:
    """Gate for the moment batteries: jump increments lie in the delta-ball
    power ``n_power``, certified by step counts on extreme support points."""
    j = minimal_jump_power(model, delta, seed)
    return {
        "pass": bool(j <= n_power),
        "max_upper": j,
        "n_power": n_power,
        "delta": delta,
    }


def require_bounded_jumps(model: LevyModel) -> None:
    """Raise HypothesisError unless ``model`` has no jumps or a declared ``bound_delta`` on them."""
    if model.jump_intensity > 0 and model.bound_delta is None:
        raise HypothesisError("the moment batteries require a bounded-jump model, got"
                              f" jump_intensity {model.jump_intensity} and no bound_delta")


def window_indices(grid: TimeGrid, r: float, u: float) -> np.ndarray:
    """Indices of the grid points strictly inside the window (r, u); ParameterError
    unless 0 <= r < u <= T and the window holds at least two of them."""
    if not (0.0 <= r < u <= grid.T):
        raise ParameterError(f"window must satisfy 0 <= r < u <= T = {grid.T}, got ({r}, {u})")
    idx = np.flatnonzero((grid.points > r) & (grid.points < u))
    if idx.size < 2:
        raise ParameterError(f"window ({r}, {u}) holds fewer than two points of the {grid.n_cells}-cell grid")
    return idx


def modulus_windows(grid: TimeGrid, window_sizes) -> list:
    """``(w, window_indices)`` of each metric modulus window, centred on T/2, the largest w
    first; ParameterError unless the sizes are a nonempty list in (0, T]."""
    sizes = sorted((float(w) for w in window_sizes), reverse=True)
    if not sizes or sizes[0] > grid.T or sizes[-1] <= 0:
        raise ParameterError(f"window sizes must be a nonempty list in (0, {grid.T}], got {window_sizes}")
    return [(w, window_indices(grid, (grid.T - w) / 2.0, (grid.T + w) / 2.0)) for w in sizes]


def _window_sup_counts(model: LevyModel, window: tuple[float, float], delta: float,
                       trials: int, seed: int, cells: int):
    """Shared start of the two windowed moment batteries.

    Samples ``trials`` prefix paths on the uniform grid of ``cells`` cells
    over (0, u] and returns the group, the indices of the grid points inside
    the window (r, u), the prefixes, the per-trial supremum of pair step
    counts over those indices and, per trial and start index, whether some
    later pair increment leaves the delta-ball (for the tail-rate estimate).
    """
    grid = TimeGrid.uniform(window[1], cells)
    idx = window_indices(grid, *window)
    require_bounded_jumps(model)
    group = require_group(model)
    prefixes = batch_prefixes(model, grid, seed, trials)
    j, k = np.triu_indices(idx.size, 1)

    def reduce(chunk):
        # only the j < k pairs; a start j exits when some (j, k) leaves the ball
        pairs = group.pair_increment(chunk[:, idx], j, k)
        counts, norms = step_counts_batch(group, pairs, delta, with_norms=True)
        exits = np.zeros((chunk.shape[0], idx.size, idx.size), dtype=bool)
        exits[:, j, k] = norms >= delta
        return counts.max(axis=1), exits.any(axis=2)
    return (group, idx, prefixes) + map_trial_chunks(prefixes, reduce)


def _moment_report(kind: str, params: dict, passed: bool | None, trials: int, seed: int,
                   **fields) -> dict:
    """Report of the exponential-moment batteries: ``fields`` over the empty
    values that an early or inconclusive return leaves."""
    return {"kind": kind, "params": params, "pass": passed, "trials": trials, "seed": seed,
            "estimate": None, "se": None, "diagnostics": {}, "tail_points": [],
            "fitted_slope": None, "q_hat": None, "notes": {}, **fields}


def _running_mean_diagnostic(values: np.ndarray) -> dict:
    running = np.cumsum(values) / np.arange(1, values.size + 1)
    tail = running[int(0.9 * values.size):]
    final = running[-1]
    drift = float((tail.max() - tail.min()) / final) if final > 0 else 0.0
    return {"last_decile_drift": drift, "threshold": 0.05, "pass": bool(drift < 0.05)}


def _partial_max_diagnostic(values: np.ndarray) -> dict:
    """Growth of the running maximum per doubling of the trial count.

    Sublinear growth in log(trials) means the last doubling adds no more
    than the earlier ones; the 5 percent-of-maximum allowance is an
    engineering convention.
    """
    n = values.size
    points = [max(1, n // 16), max(1, n // 8), max(1, n // 4), max(1, n // 2), n]
    partial = [float(values[:k].max()) for k in points]
    increments = np.diff(partial)
    final = partial[-1]
    allowance = 0.05 * final
    ok = bool(increments[-1] <= max(increments[:-1].max(), 0.0) + allowance)
    return {
        "partial_maxima": partial,
        "doubling_increments": [float(v) for v in increments],
        "allowance": allowance,
        "pass": ok,
    }


def exp_moment_estimate(model: LevyModel, window: tuple[float, float], alpha: float,
                        delta: float, trials: int, seed: int,
                        cells: int = 64) -> dict:
    """Monte Carlo estimate of E[sup over window pairs of e^(alpha * upper)].

    The certified counter dominates the word-length infimum, so the estimate
    dominates the moment of the infimum-based quantity.  Finiteness is not
    decidable from samples; the report carries two stabilization diagnostics
    instead of a bare verdict: the running mean must drift less than 5
    percent over its last decile, and the running maximum must grow
    sublinearly in log(trials).
    """
    group, idx, prefixes, sup_counts, _ = _window_sup_counts(model, window, delta,
                                                            trials, seed, cells)
    values = np.exp(alpha * sup_counts.astype(float))

    rng = substream(seed, "certify-pairs")
    t, a, b = np.array([(rng.integers(0, trials), *np.sort(rng.choice(idx, size=2, replace=False)))
                        for _ in range(CERTIFY_SAMPLES)]).T
    pairs = group.mul(group.inv(prefixes[t, a]), prefixes[t, b])   # pair_increment per pick
    direct = step_count_upper(group, pairs, delta).upper
    vector = step_counts_batch(group, pairs, delta)
    for d_count, v_count in zip(direct, vector):
        if d_count != v_count:
            raise RuntimeError(
                f"vectorized step count {v_count} disagrees with certified {d_count}"
            )

    diag_mean = _running_mean_diagnostic(values)
    diag_max = _partial_max_diagnostic(values)
    return _moment_report(
        "exp_moment", {"window": list(window), "alpha": alpha, "delta": delta, "n_cells": cells},
        bool(diag_mean["pass"] and diag_max["pass"]), trials, seed,
        estimate=float(values.mean()),
        se=mean_se(values),
        diagnostics={"running_mean": diag_mean, "partial_max": diag_max,
                     "certified_pairs": CERTIFY_SAMPLES},
        notes={"diagnostic_thresholds": "engineering conventions"},
    )


def tail_decay_fit(model: LevyModel, window: tuple[float, float], alpha: float,
                   delta: float, trials: int, seed: int, cells: int = 64) -> dict:
    """Geometric tail of the windowed exponential moment.

    Exceedance probabilities are measured at thresholds
    gamma_k = e^(2 alpha) e^(alpha k (j+1)) with j the certified jump power;
    their log-slope in k must not exceed log(q) + 0.1 where q is the largest
    per-start probability of leaving the delta-ball before the window ends.
    """
    _, _, _, sup_counts, exit_any = _window_sup_counts(model, window, delta,
                                                       trials, seed, cells)
    j_power = minimal_jump_power(model, delta, seed)

    q_hat = float(np.max(exit_any.mean(axis=0)))
    tail_points = []
    for k in range(TAIL_LEVELS):
        threshold = 2.0 + k * (j_power + 1)     # sup_upper must exceed this
        exceed = int(np.count_nonzero(sup_counts > threshold))
        p_hat = exceed / trials
        tail_points.append({
            "k": k,
            "gamma": float(np.exp(alpha * threshold)),
            "count_threshold": threshold,
            "exceedances": exceed,
            "p_hat": p_hat,
            "se": binom_se(p_hat, trials),
        })

    usable = [pt for pt in tail_points if pt["exceedances"] >= MIN_EXCEEDANCES]
    params = {"window": list(window), "alpha": alpha, "delta": delta,
              "jump_power": j_power, "n_cells": cells}
    if q_hat == 0.0 and all(pt["exceedances"] == 0 for pt in tail_points):
        # nothing ever leaves the ball: the geometric bound holds as 0 <= 0
        return _moment_report("tail_decay", params, True, trials, seed, tail_points=tail_points,
                              q_hat=q_hat, notes={"degenerate": "no exceedances at any level"})
    if len(usable) < 2 or q_hat <= 0.0:
        return _moment_report("tail_decay", params, None, trials, seed, tail_points=tail_points,
                              q_hat=q_hat,
                              notes={"inconclusive": "fewer than two usable exceedance levels"})
    xs = np.array([pt["k"] for pt in usable], dtype=float)
    ys = np.array([np.log(pt["p_hat"]) for pt in usable])
    slope = fit_slope(xs, ys)
    # binomial error propagation through the least-squares slope
    x_ctr = xs - xs.mean()
    y_var = np.array([(1.0 - pt["p_hat"]) / (trials * pt["p_hat"]) for pt in usable])
    slope_se = float(np.sqrt(np.sum(x_ctr**2 * y_var)) / np.sum(x_ctr**2))
    passed = bool(slope <= np.log(q_hat) + 0.1)
    return _moment_report(
        "tail_decay", params, passed, trials, seed, se=slope_se,
        diagnostics={"usable_levels": len(usable), "slope_se": slope_se},
        tail_points=tail_points, fitted_slope=slope, q_hat=q_hat,
    )


def metric_modulus_curve(model: LevyModel, T: float, alpha: float,
                         window_sizes: list[float], trials: int, seed: int,
                         cells: int) -> dict:
    """Shrinking-window decay of E[sup e^(alpha d(x_s, x_t)) - 1].

    Windows are nested around T/2, so the per-trial suprema are pathwise
    monotone; the curve must be nonincreasing (inversions up to one standard
    error allowed) and its final value must drop below a quarter of the
    first.
    """
    require_bounded_jumps(model)
    group = model.space
    require_gauge_metric(group)
    grid = TimeGrid.uniform(T, cells)
    windows = modulus_windows(grid, window_sizes)
    prefixes = batch_prefixes(model, grid, seed, trials)
    values, ses = [], []
    for _, idx in windows:
        j, k = np.triu_indices(idx.size, 1)
        sup_d = map_trial_chunks(prefixes[:, idx], lambda chunk: gauge_norm(
            group, group.pair_increment(chunk, j, k)).max(axis=1))
        vals = np.exp(alpha * sup_d) - 1.0
        values.append(float(vals.mean()))
        ses.append(mean_se(vals))

    inversions = [
        i for i in range(len(values) - 1)
        if values[i + 1] > values[i] + max(ses[i], ses[i + 1])
    ]
    if values[0] == 0.0:
        decayed = all(v == 0.0 for v in values)
    else:
        decayed = values[-1] < values[0] / 4.0
    passed = bool(not inversions and decayed)
    return _moment_report(
        "metric_modulus", {"T": T, "alpha": alpha, "window_sizes": [w for w, _ in windows], "n_cells": cells},
        passed, trials, seed,
        estimate=values[-1],
        se=ses[-1],
        diagnostics={"values": values, "ses": ses, "inversions": inversions,
                     "decay_target": "final < first / 4"},
    )
