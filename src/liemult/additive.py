"""Additive (independent-increment) driver processes on a Lie algebra.

A driver is drift + scaled Brownian increments + compound Poisson jumps over
a time grid.  Jumps are sampled exactly (Poisson count and placement time per
cell) and recorded as ground truth, so downstream jump detectors can be
scored against them; their vectors come from ``UniformBallJumps`` or
``DiscreteJumps``.  Sampling is a pure function of (model, grid, seed) and
per-trial streams are derived with counter-based keys, so results do not
depend on execution order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, clipped
from .groups import sample_norm_ball
from .rng import TrialStreams, substream

__all__ = [
    "TimeGrid",
    "PiecewiseConstantRate",
    "UniformBallJumps",
    "DiscreteJumps",
    "LevyModel",
    "AdditivePath",
    "sample_additive",
    "driver_paths",
]

EXTREME_DIRECTIONS = 32    # random directions beside the axes in a ball law's extreme points


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid t_0 = 0 < ... < t_n = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ParameterError("grid needs at least two points")
        if pts[0] != 0.0:
            raise ParameterError(f"grid must start at 0, got {pts[0]}")
        if not (np.all(np.diff(pts) > 0) and np.isfinite(pts[-1])):   # NaN too
            raise ParameterError("grid points must be finite and strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, T: float, cells: int) -> "TimeGrid":
        if not (0 < T < np.inf and cells >= 1 and float(cells).is_integer()):   # NaN too
            raise ParameterError(
                f"need a finite T > 0 and an integer cells >= 1, got T={T}, cells={cells}")
        return cls(np.linspace(0.0, T, int(cells) + 1))

    @property
    def n_cells(self) -> int:
        return self.points.size - 1

    @property
    def T(self) -> float:
        return float(self.points[-1])

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    def refined(self) -> "TimeGrid":
        """Grid with every cell halved."""
        mids = 0.5 * (self.points[:-1] + self.points[1:])
        out = np.empty(2 * self.n_cells + 1)
        out[0::2] = self.points
        out[1::2] = mids
        return TimeGrid(out)

    def cell_of(self, t: float | np.ndarray) -> np.ndarray:
        """Index k of the cell (t_{k-1}, t_k] containing t (t=0 maps to cell 0)."""
        return np.maximum(np.searchsorted(self.points, t, side="left") - 1, 0)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.points, other.points)


@dataclass(frozen=True)
class PiecewiseConstantRate:
    """Nonnegative piecewise-constant time rescaling s(t).

    ``breaks`` are the left endpoints starting at 0; ``rates`` the values on
    each piece (the last piece extends to infinity).  The driver is the
    stationary one run at speed s(t): drift mass, Brownian variance, and jump
    intensity over a cell all scale with the integrated rate.
    """

    breaks: np.ndarray
    rates: np.ndarray
    # the antiderivative's values at the breaks, built once; _antiderivative(breaks)
    # has these bits too, as a break's own piece adds rate * 0.0 = +0.0 to them
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if breaks.ndim != 1 or breaks.size == 0 or breaks[0] != 0.0:
            raise ParameterError("breaks must be a 1-d array starting at 0")
        if not (np.all(np.diff(breaks) > 0) and np.isfinite(breaks[-1])):   # NaN too
            raise ParameterError(f"breaks must be finite and strictly increasing,"
                                 f" got {clipped(breaks)}")
        if rates.shape != breaks.shape or not np.all((rates >= 0) & (rates < np.inf)):
            raise ParameterError(f"rates must be finite and nonnegative, one per piece,"
                                 f" got {clipped(rates)}")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "_cum",
                           np.concatenate([[0.0], np.cumsum(rates[:-1] * np.diff(breaks))]))

    def integral(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Integrated rate over [a, b], vectorized over endpoints."""
        return self._antiderivative(np.asarray(b, float)) - self._antiderivative(np.asarray(a, float))

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
        idx = np.maximum(np.searchsorted(self.breaks, t, side="right") - 1, 0)
        return self._cum[idx] + self.rates[idx] * (t - self.breaks[idx])

    def sample_times(self, rng: np.random.Generator, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
        """Draw one jump time in each cell (a[i], b[i]), with density proportional to the rate.

        All uniforms of a path come from one draw, in the order of the cells,
        so the times equal those of a cell-by-cell loop over the same stream.
        """
        total = self.integral(a, b)
        targets = self._antiderivative(a) + rng.uniform(0.0, total)
        # invert the antiderivative piece by piece
        idx = np.maximum(np.searchsorted(self._cum, targets, side="right") - 1, 0)
        rate = self.rates[idx]
        out = self.breaks[idx] + np.where(rate > 0, (targets - self._cum[idx]) / np.where(rate > 0, rate, 1.0), 0.0)
        return np.clip(out, a, b)


class UniformBallJumps:
    """Jump law: uniform on the open norm ball of the model's space, or with
    ``indices`` on its intersection with the subspace of those coordinates."""

    def __init__(self, radius: float, indices=None):
        if not radius > 0:   # NaN too
            raise ParameterError(f"radius must be positive, got {radius}")
        if radius == np.inf:
            raise ParameterError(f"radius must be finite, got {radius}")
        self.radius = float(radius)
        self.indices = idx = None if indices is None else np.asarray(indices, dtype=int)
        if idx is not None and (idx.ndim != 1 or idx.size == 0 or idx.min() < 0
                                or np.unique(idx).size < idx.size
                                or np.any(idx != np.asarray(indices))):   # no truncation
            raise ParameterError(f"indices must be distinct nonnegative coordinates,"
                                 f" got {clipped(indices)}")

    def _lift(self, space, sub: np.ndarray) -> np.ndarray:
        if self.indices is None:
            return sub
        out = np.zeros((sub.shape[0], space.dim))
        out[:, self.indices] = sub
        return out

    def check_space(self, space):
        if self.indices is not None and np.any(self.indices >= space.dim):
            raise ParameterError(f"subspace indices exceed dimension {space.dim}")

    def sample(self, rng, space, count):
        if self.indices is None:   # no lift inside the rejection loop
            return sample_norm_ball(rng, space, self.radius, count)
        # the ball of the subspace coordinates, under the norm of their lift
        sub = SimpleNamespace(dim=self.indices.size,
                              norm=lambda v: space.norm(self._lift(space, v)))
        return self._lift(space, sample_norm_ball(rng, sub, self.radius, count))

    def extreme_points(self, space, rng):
        """Support points of maximal norm: scaled coordinate axes plus random directions."""
        k = space.dim if self.indices is None else self.indices.size
        raw = rng.standard_normal((EXTREME_DIRECTIONS, k))
        pts = self._lift(space, np.concatenate([np.eye(k), -np.eye(k), raw]))
        return pts / space.norm(pts)[:, None] * self.radius


class DiscreteJumps:
    """Jump law: finitely many atoms with given probabilities."""

    def __init__(self, vectors, probs):
        self.vectors = np.asarray(vectors, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.vectors.ndim != 2 or self.probs.shape != self.vectors.shape[:1]:
            raise ParameterError("need a 2-d array of atoms and one probability per atom")
        if not np.all(np.isfinite(self.vectors)):
            raise ParameterError(f"atom vectors must be finite, got {clipped(vectors)}")
        if np.any(self.probs < 0) or not abs(self.probs.sum() - 1.0) <= 1e-12:   # NaN too
            raise ParameterError(f"probabilities must sum to 1, got {self.probs.sum()}")

    def check_space(self, space):
        if self.vectors.shape[1] != space.dim:
            raise ParameterError(f"atom vectors have dimension {self.vectors.shape[1]},"
                                 f" space has {space.dim}")

    def sample(self, rng, space, count):
        idx = rng.choice(self.probs.size, size=count, p=self.probs)
        return self.vectors[idx]

    def extreme_points(self, space, rng):
        return self.vectors


def _per_direction(dim: int, name: str, value) -> np.ndarray:
    """A finite scalar or length-``dim`` coefficient as a length-``dim`` array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim > 1 or arr.size not in (1, dim):
        raise ParameterError(f"{name} must be a scalar or have {dim} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite, got {clipped(value)}")
    return np.broadcast_to(arr, (dim,)).copy()


@dataclass(frozen=True)
class LevyModel:
    """Driver model: drift, per-direction diffusion, and compound Poisson jumps.

    Parameters
    ----------
    space : object with ``dim`` and ``norm``; a group instance or an LpSpace.
    drift : drift vector per unit time (scalar broadcasts to all directions).
    diffusion : Brownian coefficient per direction (scalar or per-direction).
    jump_intensity : Poisson rate per unit time.
    jump_law : distribution of jump vectors; required when the intensity is
        positive, and its dimension must fit ``space`` (checked here).
    scale : optional piecewise-constant time rescaling; None means stationary.
    """

    space: object
    drift: np.ndarray = 0.0
    diffusion: np.ndarray = 0.0
    jump_intensity: float = 0.0
    jump_law: object | None = None
    scale: PiecewiseConstantRate | None = None

    def __post_init__(self):
        drift = _per_direction(self.space.dim, "drift", self.drift)
        diffusion = _per_direction(self.space.dim, "diffusion", self.diffusion)
        if np.any(diffusion < 0):
            raise ParameterError("diffusion coefficients must be nonnegative")
        if not 0 <= self.jump_intensity < np.inf:   # NaN too
            raise ParameterError(
                f"jump_intensity must be finite and nonnegative, got {self.jump_intensity}")
        if self.jump_intensity > 0 and self.jump_law is None:
            raise ParameterError("a jump law is required when jump_intensity > 0")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)
        object.__setattr__(self, "jump_intensity", float(self.jump_intensity))
        if self.jump_law is not None:
            self.jump_law.check_space(self.space)

    def rate_integral(self, a, b) -> np.ndarray:
        if self.scale is None:
            return np.asarray(b, float) - np.asarray(a, float)
        return self.scale.integral(a, b)


@dataclass(frozen=True)
class AdditivePath:
    """Sampled driver path: per-cell increments plus ground-truth jumps."""

    grid: TimeGrid
    model: LevyModel
    drift_part: np.ndarray      # (n, d) deterministic mass per cell
    gauss_part: np.ndarray      # (n, d) Brownian mass per cell
    jump_times: np.ndarray      # (m,) sorted
    jump_vectors: np.ndarray    # (m, d)
    increments: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "increments", _assemble(
            self.grid, self.drift_part, self.gauss_part, self.jump_times, self.jump_vectors))

    def refine(self, seed: int, stream: tuple = ()) -> "AdditivePath":
        """Halve every cell, splitting the Brownian mass by bridge bisection.

        The fine cells' drift and variance are those of the refined grid's
        ``_DriverLaw``, and the path is coupled to this one: coarse increments
        are the exact sums of the fine ones, and each jump keeps its timestamp.
        """
        law = _DriverLaw(self.model, self.grid.refined())
        v1, v2 = law.variance[0::2], law.variance[1::2]
        vsum = v1 + v2
        safe = np.where(vsum > 0, vsum, 1.0)
        frac = np.where(vsum > 0, v1 / safe, 0.5)
        first = frac * self.gauss_part
        if self.model.diffusion.any():   # the bridge spread is 0 otherwise
            spread = np.sqrt(np.where(vsum > 0, v1 * v2 / safe, 0.0))
            noise = substream(seed, *stream, "bridge").standard_normal(self.gauss_part.shape)
            first = first + spread * noise
        gauss_fine = np.empty_like(law.drift_part)
        gauss_fine[0::2] = first
        gauss_fine[1::2] = self.gauss_part - first

        return AdditivePath(
            grid=law.grid,
            model=self.model,
            drift_part=law.drift_part,
            gauss_part=gauss_fine,
            jump_times=self.jump_times,
            jump_vectors=self.jump_vectors,
        )


def _assemble(grid: TimeGrid, drift_part, gauss_part, jump_times, jump_vectors) -> np.ndarray:
    """Per-cell increments: drift + Gaussian part, plus each jump in its cell."""
    inc = drift_part + gauss_part
    if jump_times.size:
        np.add.at(inc, grid.cell_of(jump_times), jump_vectors)
    return inc


class _DriverLaw:
    """The one owner of a (model, grid)'s per-cell law (``drift_part``, ``variance``,
    ``brownian_scale``, ``jump_rate``) and the draw of one trial's randomness."""

    def __init__(self, model: LevyModel, grid: TimeGrid):
        self.model, self.grid = model, grid
        self.lefts, self.rights = grid.points[:-1], grid.points[1:]
        mass = model.rate_integral(self.lefts, self.rights)
        self.drift_part = mass[:, None] * model.drift[None, :]
        self.variance = mass[:, None] * (model.diffusion[None, :] ** 2)
        # no Brownian stream for a diffusion-free model: sqrt(0) * N would only add +-0
        self.brownian_scale = np.sqrt(self.variance) if model.diffusion.any() else None
        self.jump_rate = model.jump_intensity * mass if model.jump_intensity > 0 else None
        # the streams the model draws from
        self.labels = ((("gauss",) if self.brownian_scale is not None else ())
                       + (("jump-counts", "jump-times", "jump-vectors")
                          if self.jump_rate is not None else ()))

    def path(self, rng) -> AdditivePath:
        """The driver path of one trial, whose stream ``label`` is ``rng(label)``."""
        return AdditivePath(self.grid, self.model, self.drift_part, *self._draw(rng))

    def _draw(self, rng):
        """Gaussian part, time-sorted jump times and jump vectors of one trial."""
        model, shape = self.model, (self.grid.n_cells, self.model.space.dim)
        gauss_part = (np.zeros(shape) if self.brownian_scale is None else
                      self.brownian_scale * rng("gauss").standard_normal(shape))
        counts = None if self.jump_rate is None else rng("jump-counts").poisson(self.jump_rate)
        total = 0 if counts is None else int(counts.sum())
        if not total:
            return gauss_part, np.empty(0), np.empty((0, model.space.dim))
        rng_times = rng("jump-times")
        cells = np.repeat(np.arange(self.grid.n_cells), counts)
        lefts, rights = self.lefts[cells], self.rights[cells]
        if model.scale is None:
            times = lefts + rng_times.uniform(size=total) * (rights - lefts)
        else:
            times = model.scale.sample_times(rng_times, lefts, rights)
        vectors = model.jump_law.sample(rng("jump-vectors"), model.space, total)
        order = np.argsort(times, kind="stable")
        return gauss_part, times[order], vectors[order]


def sample_additive(model: LevyModel, grid: TimeGrid, seed: int,
                    stream: tuple = ()) -> AdditivePath:
    """Sample one driver path; bit-identical for identical (model, grid, seed, stream).

    ``stream`` extends the derivation key.  Trial t of a battery is the stream
    ``(t,)``, which ``driver_paths`` keys for all trials at once; a trial's
    further independent paths are streams ``(t, key)``.
    """
    return _DriverLaw(model, grid).path(lambda label: substream(seed, *stream, label))


def driver_paths(model: LevyModel, grid: TimeGrid, seed: int, trials: int):
    """Yield the driver paths of trials t = 0, ..., trials - 1, each equal to
    ``sample_additive(model, grid, seed, stream=(t,))``; the constants of
    (model, grid) and the stream keys of all trials are computed once."""
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got {trials}")
    law = _DriverLaw(model, grid)
    streams = TrialStreams(seed, trials, law.labels)
    for trial in range(trials):
        yield law.path(lambda label: streams.rng(trial, label))
