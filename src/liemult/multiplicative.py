"""Group-valued (multiplicative) paths built from additive drivers.

Two constructions are provided:

* ``product_exponential`` — the time-ordered product of per-cell exponentials,
  accumulated by the group recursion g_k = g_{k-1} * exp(dX_k);
* ``heisenberg_exact`` — the closed form whose last coordinate carries the
  antisymmetrized double sum (discrete Levy area) over cell pairs.

On the Heisenberg instance both accumulate through the group's one prefix
kernel.  Both store prefix products, so the two-parameter value x(j, k) is
evaluated as inv(g_j) g_k and the cocycle identity x(j,k) x(k,l) = x(j,l)
holds up to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .additive import AdditivePath, LevyModel, TimeGrid, driver_paths, sample_additive
from .errors import GridMismatchError, InvalidInputError, ParameterError
from .groups import HeisenbergGroup
from .rng import substream
from .stats import fit_slope

# trials per slice of a prefix batch in ``map_trial_chunks``; bounds the
# (chunk, n+1, n+1, d) pairwise arrays the all-pairs batteries build
TRIAL_CHUNK = 64

__all__ = [
    "MultiplicativePath",
    "product_exponential",
    "heisenberg_exact",
    "verify_multiplicative",
    "convergence_study",
    "batch_prefixes",
]


@dataclass(frozen=True)
class MultiplicativePath:
    """Grid path of group elements with cached prefix products."""

    group: object
    grid: TimeGrid
    cell_increments: np.ndarray   # (n, d) group elements x^{t_{k-1}}_{t_k}
    prefix: np.ndarray            # (n+1, d) ordered products, prefix[0] = e

    @classmethod
    def from_increments(cls, group, grid: TimeGrid, cell_increments: np.ndarray):
        cell_increments = np.asarray(cell_increments, dtype=float)
        if cell_increments.shape != (grid.n_cells, group.dim):
            raise InvalidInputError(
                f"cell increments must have shape {(grid.n_cells, group.dim)},"
                f" got {cell_increments.shape}"
            )
        return cls(group, grid, cell_increments, group.prefix_products(cell_increments))

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def value(self, j, k) -> np.ndarray:
        """Two-parameter value x^{t_j}_{t_k} = inv(g_j) g_k; j, k may be arrays."""
        return self.group.pair_increment(self.prefix, j, k)

    def evaluate_right_limit(self, t: float) -> np.ndarray:
        """Path value at the smallest grid point >= t.

        As a function of t this is a right-continuous step function with left
        limits, the grid-level stand-in for the regularized path.
        """
        if not (0.0 <= t <= self.grid.T):
            raise ParameterError(f"t must lie in [0, {self.grid.T}], got {t}")
        idx = int(np.searchsorted(self.grid.points, t, side="left"))
        return self.prefix[idx]

    def with_corrupted_cell(self, k: int, offset: np.ndarray) -> "MultiplicativePath":
        """Fault-injection helper: translate cell increment k by a group offset.

        The cached prefix is left untouched, so the returned path is
        inconsistent on purpose and must fail verification.
        """
        require_cell(self.grid, k)
        cells = self.cell_increments.copy()
        cells[k] = self.group.mul(cells[k], offset)
        return MultiplicativePath(self.group, self.grid, cells, self.prefix)


def require_cell(grid: TimeGrid, k: int) -> None:
    """Raise ParameterError unless ``k`` indexes a cell of ``grid``, as ``with_corrupted_cell`` needs."""
    if not 0 <= k < grid.n_cells:
        raise ParameterError(f"cell must lie in 0..{grid.n_cells - 1}, got {k}")


def product_exponential(path: AdditivePath) -> MultiplicativePath:
    """Time-ordered product of exponentials of the driver's cell increments, in
    the group of the driver's model, ``path.model.space``."""
    group = path.model.space
    return MultiplicativePath.from_increments(group, path.grid, group.exp(path.increments))


def _block_paths_compatible(group: HeisenbergGroup, x_path, y_path, z_path):
    if not isinstance(group, HeisenbergGroup):
        raise InvalidInputError("the exact construction is specific to the Heisenberg instance")
    for b, path in zip("xyz", (x_path, y_path, z_path)):
        if path.model.space != group.block_spaces[b]:
            raise InvalidInputError(f"the {b} path is on {path.model.space},"
                                    f" not on block {b} = {group.block_spaces[b]}")
    if not (x_path.grid == y_path.grid == z_path.grid):
        raise GridMismatchError("the three block paths must share one grid")


def heisenberg_exact(x_path: AdditivePath, y_path: AdditivePath, z_path: AdditivePath,
                     group: HeisenbergGroup) -> MultiplicativePath:
    """Exact multiplicative construction on the Heisenberg instance.

    The last coordinate of the prefix at t_k is the z-increment plus half the discrete
    Levy area of the x and y paths over (t_0, t_k], a strictly-lower-triangular double
    sum that splits over disjoint index blocks, so the grid cocycle identity is exact.
    The path of block b must be on ``group.block_spaces[b]``, else InvalidInputError.
    """
    _block_paths_compatible(group, x_path, y_path, z_path)
    cells = group.embed(x_path.increments, y_path.increments, z_path.increments[:, 0])
    return MultiplicativePath.from_increments(group, x_path.grid, cells)


def verify_multiplicative(path: MultiplicativePath, samples: int = 1000,
                          tol: float = 1e-12, seed: int = 0) -> dict:
    """Check x(j,k) x(k,l) = x(j,l) on random triples j <= k <= l; report the
    worst defect and its triple.

    The product side is evaluated through a prefix rebuilt from the stored
    cell increments while the right-hand side uses the cached prefix, so the
    check ties the two-parameter family to the path data instead of being an
    algebraic identity; a corrupted cell or prefix entry raises the defect.
    """
    group, n = path.group, path.n_cells
    rng = substream(seed, "verify-triples")
    triples = np.sort(rng.integers(0, n + 1, size=(samples, 3)), axis=1)
    j, k, l = triples[:, 0], triples[:, 1], triples[:, 2]
    rebuilt = group.prefix_products(path.cell_increments)
    lhs = group.mul(group.pair_increment(rebuilt, j, k), group.pair_increment(rebuilt, k, l))
    rhs = path.value(j, l)
    defect = group.norm(group.log(lhs) - group.log(rhs))
    worst = int(np.argmax(defect))
    return {
        "max_defect": float(defect[worst]),
        "argmax_triple": tuple(int(v) for v in triples[worst]),
        "samples": samples,
        "tol": tol,
        "pass": bool(defect[worst] <= tol),
    }


def convergence_study(group: HeisenbergGroup, models: dict, base_grid: TimeGrid,
                      refinements: int, trials: int, seed: int) -> dict:
    """Couple paths across dyadic refinements and measure the product-limit error.

    For each mesh level the time-ordered exponential product is compared, at
    the base grid points, with the exact construction on the finest mesh of
    the same coupled driver.  Pure compound-Poisson drivers hit zero error
    once the grid separates all jumps; Brownian drivers decay at order ~1/2.
    Every level is built by ``heisenberg_exact``, and the finest level is the
    reference.
    """
    if refinements < 1 or trials < 1:
        raise ParameterError("need refinements >= 1 and trials >= 1")
    for key in ("x", "y", "z"):
        if key not in models:
            raise InvalidInputError(f"models must provide block {key!r}")

    errors = np.zeros((refinements + 1, trials))
    meshes = [base_grid.mesh / 2**r for r in range(refinements + 1)]

    for trial in range(trials):
        blocks = {
            key: sample_additive(models[key], base_grid, seed, stream=(trial, key))
            for key in ("x", "y", "z")
        }
        level_values = []
        for level in range(refinements + 1):
            path = heisenberg_exact(blocks["x"], blocks["y"], blocks["z"], group)
            level_values.append(path.prefix[:: 2**level])
            if level < refinements:
                blocks = {
                    key: p.refine(seed, stream=(trial, key, level)) for key, p in blocks.items()
                }
        for level, values in enumerate(level_values):
            errors[level, trial] = np.max(group.norm(values - level_values[-1]))

    rms = np.sqrt(np.mean(errors**2, axis=1))
    usable = rms > 1e-13
    slope = None
    if np.count_nonzero(usable) >= 2:
        slope = fit_slope(np.log(np.asarray(meshes)[usable]), np.log(rms[usable]))
    return {
        "meshes": [float(m) for m in meshes],
        "rms_errors": [float(v) for v in rms],
        "max_errors": [float(v) for v in errors.max(axis=1)],
        "fitted_slope": slope,
        "trials": trials,
        "refinements": refinements,
        "seed": seed,
    }


def batch_prefixes(model: LevyModel, grid: TimeGrid, seed: int, trials: int) -> np.ndarray:
    """Prefix products of ``trials`` driver paths in the group ``model.space``, (trials, n+1, d).

    The arguments are those of ``driver_paths``: trial ``i`` is the stream (seed, i),
    the same path as ``sample_additive(model, grid, seed, stream=(i,))``.
    """
    group = model.space
    incs = np.empty((trials, grid.n_cells, group.dim))
    for t, path in enumerate(driver_paths(model, grid, seed, trials)):
        incs[t] = path.increments
    return group.prefix_products(group.exp(incs))


def map_trial_chunks(prefixes: np.ndarray, reduce):
    """Apply ``reduce`` to consecutive ``TRIAL_CHUNK``-trial slices of a prefix
    batch (trials, n+1, d) and stack its per-trial results.

    ``reduce`` returns an array, or a tuple of arrays, with the slice's trials
    on the first axis; the result has the same form over all trials.
    """
    chunks = [reduce(prefixes[s:s + TRIAL_CHUNK])
              for s in range(0, prefixes.shape[0], TRIAL_CHUNK)]
    if isinstance(chunks[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*chunks))
    return np.concatenate(chunks)
