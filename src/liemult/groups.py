"""Concrete nilpotent Banach-Lie group and Lie algebra kernels.

Two instances are provided:

* ``HeisenbergGroup(N, p)`` — truncation of the infinite-dimensional
  Heisenberg group built on ``l^p x l^q x R`` (q the conjugate exponent) to
  the first ``N`` coordinate pairs.  Elements and algebra vectors share the
  flat coordinate layout ``[a_1..a_N, b_1..b_N, c]``; exp and log are the
  coordinate identity because the exponential is a global diffeomorphism.
* ``UnipotentGroup(n)`` — upper unitriangular ``n x n`` real matrices, any
  integer ``n >= 2``.  Flat coordinates are the strictly upper-triangular
  entries in row-major order; a group element with coordinates ``v`` is
  ``I + M(v)`` and an algebra vector is ``M(v)``, where ``M`` scatters the
  coordinates into the strict upper triangle.  ``M(v)`` is nilpotent of
  order ``n``, so the inverse, exponential and logarithm are power series
  that end at ``M(v)^(n-1)``, one truncated series for every ``n``.  Its
  norm is the spectral norm of ``M(v)``, the square root of the top
  eigenvalue of the scaled Gram matrix in one batched ``eigvalsh`` call.

All operations broadcast over leading axes, so a single element is a shape
``(d,)`` array and a batch of paths is ``(..., d)``.  Values are never
mutated in place; everything here is pure and safe to share across workers.
Block sums (norms, pairings, all-pairs chart norms) run coordinate by
coordinate over the whole batch, left to right (``coordinate_sum``): they give
the bits of a sequential sum, and each holds only its running sum and one term.

Each group has one prefix-product kernel: the Heisenberg group its closed
form, the unipotent group the fold of ``mul`` kept in matrix form.  The
generic fold of ``mul`` one cell at a time, the reference the tests compare
them against, lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParameterError
from .rng import substream

__all__ = [
    "ChartSpec",
    "LpSpace",
    "HeisenbergGroup",
    "UnipotentGroup",
    "sample_norm_ball",
]


def coordinate_sum(terms):
    """Sum a generator of per-coordinate arrays left to right, each addition over the
    whole batch; the terms are fresh arrays, never views of an input, as the first is
    added into in place, so only it and the current term are live at a time."""
    acc = next(terms)
    for term in terms:
        acc += term   # a 0-d sum is a numpy scalar, and += rebinds it
        del term   # freed before the generator makes the next one
    acc += 0.0   # a sum of -0.0 terms reads +0.0, as from np.sum
    return acc


def lp_norm(arr: np.ndarray, p: float) -> np.ndarray:
    """l^p norm over the trailing axis, as ``column_lp_norm`` of the columns unless a
    p-th power underflows or overflows (numpy's floating-point flags).  Then each row
    whose sum of powers left the normal floats (zero or subnormal, or infinite) and
    whose largest entry ``top`` is positive and finite is taken again as
    ``top * (sum (|x_i| / top)^p)^(1/p)``; every other row keeps the direct bits."""
    n = arr.shape[-1]
    try:
        with np.errstate(under="raise", over="raise"):
            return column_lp_norm((arr[..., i] for i in range(n)), p)
    except FloatingPointError:
        pass
    with np.errstate(under="ignore", over="ignore"):
        sums = _power_sum((arr[..., i] for i in range(n)), p)
        out = np.array(_root(sums, p))
        top = np.max(np.abs(arr), axis=-1)
        redo = ((sums < np.finfo(float).tiny) | (sums == np.inf)) & (top > 0) & (top < np.inf)
        rows = arr[redo] / top[redo][:, None]
        out[redo] = top[redo] * column_lp_norm((rows[:, i] for i in range(n)), p)
    return out[()]


def _power_sum(columns, p: float):
    """The sum of the p-th powers of the absolute values of coordinate columns."""
    if p == 2.0:
        return coordinate_sum(c * c for c in columns)
    # np.power, not **: a 0-d column or sum is a numpy scalar, whose ** is libm's
    # pow rather than the ufunc loop of an array, so one element's norm would not
    # be the bits of its row in a batch
    return coordinate_sum(np.power(np.abs(c), p) for c in columns)


def _root(sums, p: float):
    """The p-th root of a sum of p-th powers."""
    return np.sqrt(sums) if p == 2.0 else np.power(sums, 1.0 / p)


def column_lp_norm(columns, p: float) -> np.ndarray:
    """l^p norm of coordinate columns, taken directly as ``(sum |x_i|^p)^(1/p)``."""
    return _root(_power_sum(columns, p), p)


# the fewest candidates drawn per norm call
_BLOCK_ROWS = 1024


def sample_norm_ball(rng: np.random.Generator, space, radius: float, size: int) -> np.ndarray:
    """Draw vectors uniformly from the open norm ball of ``space``, any object
    with ``dim`` and ``norm``.

    Rejection sampling: uniform candidates from the box [-radius, radius]^dim,
    keeping those whose norm is below radius; exact for any norm whose unit ball
    is contained in the unit sup-norm box (true for all norms used here).

    The points are the first ``size`` inside candidates of the stream, whatever
    the block size.  Candidates are drawn in blocks of ``max(_BLOCK_ROWS,
    4 * missing)`` rows with one ``norm`` call each, and the generator is left
    after the last block.  So a caller that draws again from ``rng``
    (``chart-certification`` draws all its product batches from one generator)
    sees a stream that depends on ``_BLOCK_ROWS``.
    """
    if not radius > 0:   # NaN too
        raise ParameterError(f"radius must be positive, got {radius}")
    out = np.empty((size, space.dim))
    have = 0
    while have < size:
        cand = rng.uniform(-radius, radius, size=(max(_BLOCK_ROWS, 4 * (size - have)), space.dim))
        inside = cand[space.norm(cand) < radius][:size - have]
        out[have:have + len(inside)] = inside
        have += len(inside)
    return out


def sample_scaled_vectors(rng: np.random.Generator, space, radius: float,
                          size: int) -> np.ndarray:
    """Gaussian directions rescaled to norms drawn uniformly from [0, radius).

    The directions are drawn first, then the norms; a zero direction stays zero.
    """
    vecs = rng.standard_normal((size, space.dim))
    mags = rng.uniform(0.0, radius, size=size)
    norms = space.norm(vecs)
    return vecs * (mags / np.where(norms > 0, norms, 1.0))[:, None]


@dataclass(frozen=True)
class LpSpace:
    """Finite-dimensional real vector space carrying an l^p norm."""

    dim: int
    p: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"dim must be positive, got {self.dim}")
        if not (1.0 <= self.p < math.inf):
            raise ParameterError(f"p must lie in [1, inf), got {self.p}")

    def norm(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        return lp_norm(arr, self.p)


@dataclass(frozen=True)
class ChartSpec:
    """Radii and bracket bound of the logarithm chart.

    ``rho_prime`` is the injectivity radius of the chart, ``rho_double_prime``
    the radius on which products of two chart balls stay inside the chart,
    and ``bracket_bound`` a constant C with ``|[U,V]| <= C |U| |V|``.
    The radii of the built-in instances are engineering defaults certified by
    sampling, not sharp constants.
    """

    rho_prime: float
    rho_double_prime: float
    bracket_bound: float

    def __post_init__(self):
        if not 0 < self.rho_prime < math.inf:   # NaN too
            raise ParameterError(f"rho_prime must be positive and finite, got {self.rho_prime}")
        if not (0 < self.rho_double_prime < self.rho_prime):
            raise ParameterError(
                f"rho_double_prime must lie in (0, rho_prime), got {self.rho_double_prime}"
            )
        if not 0 <= self.bracket_bound < math.inf:
            raise ParameterError(
                f"bracket_bound must be finite and nonnegative, got {self.bracket_bound}")

    def certify_bracket_bound(self, group, samples: int = 10**4, seed: int = 0) -> float:
        """The worst ratio ``|[U,V]| / (C |U| |V|)`` over random standard-normal pairs,
        inf for a pair with ``C |U| |V| = 0 < |[U,V]|``; above 1 a pair breaks the bound."""
        rng = substream(seed, "chart-certify")
        u = rng.standard_normal((samples, group.dim))
        v = rng.standard_normal((samples, group.dim))
        lhs = group.norm(group.bracket(u, v))
        rhs = self.bracket_bound * group.norm(u) * group.norm(v)
        return float(np.max(np.divide(lhs, rhs, out=np.where(lhs > 0, np.inf, 0.0),
                                      where=rhs > 0)))


class _NilpotentGroup:
    """Shared machinery for the two built-in instances.

    An instance supplies ``mul``, ``inv``, ``exp``, ``log``, ``bracket`` and
    ``norm``, each broadcasting over leading axes of ``(..., d)`` arrays, and
    its own prefix-product kernel: ``HeisenbergGroup`` overrides
    ``prefix_products`` with its closed form, ``UnipotentGroup`` the
    ``_prefix_products`` hook with the matrix-form fold.

    The all-pairs chart norms evaluate only the j < k pairs, through the
    ``_pair_norms`` hook.  ``HeisenbergGroup`` overrides the hook with its block
    closed form; the generic hook needs ``norm_bounds(vec) -> (lo, hi)`` with
    ``lo <= norm(vec) <= hi`` on finite rows, and takes ``norm`` only on the
    pairs whose bounds cannot decide a comparison with delta (``UnipotentGroup``
    supplies max-abs and Frobenius).
    """

    dim: int
    nilpotency_step: int
    chart: ChartSpec

    # -- element algebra ---------------------------------------------------

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _check(self, *arrs: np.ndarray) -> list[np.ndarray]:
        out = []
        for arr in arrs:
            arr = np.asarray(arr, dtype=float)
            if arr.shape[-1:] != (self.dim,):
                raise InvalidInputError(
                    f"expected trailing dimension {self.dim}, got shape {arr.shape}"
                )
            out.append(arr)
        return out

    def _require_bch_step(self) -> None:
        """Raise ParameterError unless the BCH series up to degree 3 is exact here."""
        if self.nilpotency_step > 3:
            raise ParameterError("the BCH series is truncated at degree 3, exact only up to"
                                 f" nilpotency step 3, got step {self.nilpotency_step}")

    def bch(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Truncated Baker-Campbell-Hausdorff product, exact on nilpotency steps up to 3."""
        self._require_bch_step()
        u, v = self._check(u, v)
        uv = self.bracket(u, v)
        out = u + v + 0.5 * uv
        if self.nilpotency_step <= 2:
            return out
        return out + (self.bracket(u, uv) - self.bracket(v, uv)) / 12.0

    def chart_norm(self, g: np.ndarray) -> np.ndarray:
        """Norm of log(g); the local size of a group element."""
        return self.norm(self.log(g))

    def require_chart_radius(self, delta: float) -> None:
        """Raise ParameterError unless the delta-ball lies inside the chart."""
        if not (0 < delta < self.chart.rho_prime):
            raise ParameterError(f"delta must lie in (0, rho_prime), got {delta}")

    def ball_power_radius(self, delta: float, n: int) -> float | None:
        """Certified radius r with (U_delta)^n contained in U_r.

        Computed by iterating the BCH norm bound, which bounds the terms up to
        degree 3 and so holds up to nilpotency step 3 (ParameterError beyond);
        returns None when the recursion escapes the chart (callers must then
        avoid chart logic).
        """
        self._require_bch_step()
        if not (0 < delta < self.chart.rho_double_prime):
            raise ParameterError(
                f"delta must lie in (0, rho_double_prime={self.chart.rho_double_prime}),"
                f" got {delta}"
            )
        if n < 1:
            raise ParameterError(f"n must be a positive integer, got {n}")
        c = self.chart.bracket_bound
        r = delta
        for _ in range(n - 1):
            r_next = r + delta + 0.5 * c * r * delta
            if self.nilpotency_step == 3:
                r_next += (c * c / 12.0) * (r * r * delta + r * delta * delta)
            if r_next >= self.chart.rho_prime:
                return None
            r = r_next
        return float(r)

    # -- path kernels --------------------------------------------------------

    def prefix_products(self, increments: np.ndarray) -> np.ndarray:
        """Left-to-right products of per-cell group increments.

        ``increments`` has shape (..., n, d); the result (..., n+1, d) starts
        at the identity.
        """
        # the one entry point: a group overrides it or supplies the _prefix_products hook
        return self._prefix_products(increments)

    def pair_increment(self, prefix: np.ndarray, j, k) -> np.ndarray:
        """Two-parameter values inv(g_j) g_k from cached prefix products; each prefix
        row is inverted once and then gathered."""
        (prefix,) = self._check(prefix)
        return self.mul(self.inv(prefix)[..., j, :], prefix[..., k, :])

    def pairs_outside(self, prefix: np.ndarray, delta: float) -> np.ndarray:
        """Which two-parameter values leave the delta-ball, shape (..., n+1, n+1): the
        bits of ``pairwise_chart_norms(prefix) >= delta``, for callers that compare
        chart norms with delta and never read them."""
        return self.pairwise_chart_norms(prefix, delta) >= delta

    def pairwise_chart_norms(self, prefix: np.ndarray, delta: float | None = None) -> np.ndarray:
        """Chart norms of all two-parameter values, shape (..., n+1, n+1), symmetric
        with a zero diagonal as log(inv(g)) = -log(g); callers read the j < k pairs.

        With ``delta``, an entry is only good for comparing with delta: in a group
        with ``norm_bounds``, a pair whose bounds lie clear of delta by a relative
        1e-12 gets the deciding bound in place of its norm, which compares with
        delta as the norm does.  ``pairs_outside`` makes that comparison."""
        # the one upper-pair loop: the j < k pairs through the group's hook, mirrored
        (prefix,) = self._check(prefix)
        j, k = np.triu_indices(prefix.shape[-2], 1)
        out = np.zeros(prefix.shape[:-1] + prefix.shape[-2:-1])   # (..., m, m)
        out[..., j, k] = out[..., k, j] = self._pair_norms(prefix, j, k, delta)
        return out

    def _pair_norms(self, prefix: np.ndarray, j, k, delta: float | None) -> np.ndarray:
        # chart norms of the pairs (j[i], k[i]), or with delta values only good for
        # comparing with delta, as pairwise_chart_norms says
        logs = self.log(self.pair_increment(prefix, j, k))
        if delta is None:
            return self.norm(logs)
        # lo and hi bracket the norm; only pairs within the margin of delta, and
        # rows with a non-finite entry (on which norm raises), take the norm
        lo, hi = self.norm_bounds(logs)
        above = np.isfinite(lo) & (lo >= delta * (1.0 + 1e-12))
        norms = np.where(above, lo, hi)
        near = ~(above | (hi < delta * (1.0 - 1e-12)))
        norms[near] = self.norm(logs[near])
        return norms


class HeisenbergGroup(_NilpotentGroup):
    """Coordinate truncation of the l^p Heisenberg group.

    Parameters
    ----------
    N : number of retained coordinate pairs (the truncation order).
    p : exponent of the first block, in (1, inf); the second block carries
        the conjugate exponent q = p / (p - 1).
    chart : optional ChartSpec override.

    The algebra norm is the sum norm ``|a|_p + |b|_q + |c|`` of the ``block_spaces`` x, y, z.
    """

    nilpotency_step = 2

    def __init__(self, N: int, p: float = 2.0, chart: ChartSpec | None = None):
        if not (N >= 1 and float(N).is_integer()):   # NaN and inf too
            raise ParameterError(f"N must be a positive integer, got {N}")
        if not (1.0 < p < math.inf):
            raise ParameterError(f"p must lie in (1, inf), got {p}")
        self.N = int(N)
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.dim = 2 * self.N + 1
        self.block_spaces = {"x": LpSpace(self.N, self.p), "y": LpSpace(self.N, self.q), "z": LpSpace(1, 1.0)}
        # exp is a global diffeomorphism; the radius is an arithmetic-safety cap
        self.chart = chart or ChartSpec(
            rho_prime=1e6, rho_double_prime=2.5e5, bracket_bound=2.0
        )

    def __repr__(self):
        return f"HeisenbergGroup(N={self.N}, p={self.p})"

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split flat coordinates into the (a, b, c) blocks."""
        (v,) = self._check(v)
        return v[..., : self.N], v[..., self.N : 2 * self.N], v[..., 2 * self.N]

    def embed(self, a=None, b=None, c=0.0) -> np.ndarray:
        """Assemble flat coordinates from blocks; missing blocks are zero."""
        a = np.zeros(self.N) if a is None else np.asarray(a, dtype=float)
        b = np.zeros(self.N) if b is None else np.asarray(b, dtype=float)
        if a.shape[-1] != self.N or b.shape[-1] != self.N:
            raise InvalidInputError(f"blocks must have length N={self.N}")
        c = np.asarray(c, dtype=float)
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], c.shape)
        out = np.zeros(shape + (self.dim,))
        out[..., : self.N] = a
        out[..., self.N : 2 * self.N] = b
        out[..., 2 * self.N] = c
        return out

    def pairing(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dual pairing of the first and second blocks."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return coordinate_sum(a[..., i] * b[..., i] for i in range(a.shape[-1]))

    def mul(self, g, h):
        x1, y1, z1 = self.split(g)
        x2, y2, z2 = self.split(h)
        return self.embed(
            x1 + x2, y1 + y2, z1 + z2 + 0.5 * (self.pairing(x1, y2) - self.pairing(x2, y1))
        )

    def inv(self, g):
        (g,) = self._check(g)
        return -g

    def exp(self, vec):
        (vec,) = self._check(vec)
        return vec.copy()

    def log(self, g):
        # exp is a global diffeomorphism here; rho_prime is only an
        # arithmetic-safety cap, so log never leaves the chart
        (g,) = self._check(g)
        return g.copy()

    def bracket(self, u, v):
        x1, y1, _ = self.split(u)
        x2, y2, _ = self.split(v)
        return self.embed(c=self.pairing(x1, y2) - self.pairing(x2, y1))

    def norm(self, vec):
        a, b, c = self.split(vec)
        return lp_norm(a, self.p) + lp_norm(b, self.q) + np.abs(c)

    def chart_norm(self, g):
        return self.norm(g)   # log is the coordinate identity

    def _pair_norms(self, prefix, j, k, delta):
        # delta is ignored: these norms are already cheap.  Blocks (dx, dy, dz) of
        # inv(g_j) g_k, bit-identical to mul(inv(g_j), g_k): (-a) + b rounds as
        # b - a, and the z pairings are its products and coordinate sums, negated;
        # every block streams one coordinate's gathers at a time, so no
        # (..., pairs, N) array is built
        x, y, z = self.split(prefix)
        dz = (z[..., k] - z[..., j]) + 0.5 * (
            coordinate_sum(x[..., k, i] * y[..., j, i] for i in range(self.N))
            - coordinate_sum(x[..., j, i] * y[..., k, i] for i in range(self.N)))
        dx = (x[..., k, i] - x[..., j, i] for i in range(self.N))
        dy = (y[..., k, i] - y[..., j, i] for i in range(self.N))
        try:
            with np.errstate(under="raise", over="raise"):
                return (column_lp_norm(dx, self.p) + column_lp_norm(dy, self.q)
                        + np.abs(dz))
        except FloatingPointError:   # a lost norm: the generic route takes lp_norm's
            return super()._pair_norms(prefix, j, k, None)

    def prefix_products(self, increments):
        # same left-to-right recursion as the generic loop, vectorized:
        # g_k = g_{k-1} * inc_k picks up 0.5*(<x_{k-1}|dy_k> - <dx_k|y_{k-1}>)
        (increments,) = self._check(increments)
        dx, dy, dz = self.split(increments)
        x_after = np.cumsum(dx, axis=-2)
        y_after = np.cumsum(dy, axis=-2)
        x_before = np.concatenate([np.zeros_like(dx[..., :1, :]), x_after[..., :-1, :]], axis=-2)
        y_before = np.concatenate([np.zeros_like(dy[..., :1, :]), y_after[..., :-1, :]], axis=-2)
        z_step = dz + 0.5 * (self.pairing(x_before, dy) - self.pairing(dx, y_before))
        n = increments.shape[-2]
        out = np.zeros(increments.shape[:-2] + (n + 1, self.dim))
        out[..., 1:, : self.N] = x_after
        out[..., 1:, self.N : 2 * self.N] = y_after
        out[..., 1:, 2 * self.N] = np.cumsum(z_step, axis=-1)
        return out


class UnipotentGroup(_NilpotentGroup):
    """Upper unitriangular n x n matrices, any integer n >= 2.

    The algebra norm is the spectral (operator 2-) norm of the strictly
    upper-triangular matrix, taken as the square root of the top eigenvalue of
    its Gram matrix after scaling the entries by their largest magnitude.  It
    agrees with ``np.linalg.norm(ord=2)`` to a relative 1e-14 at any scale (to
    the subnormal spacing on subnormal norms), is exactly 0 on the zero matrix,
    and raises ``LinAlgError`` on non-finite entries.  The group is nilpotent
    of step n - 1, so ``bch`` and ``ball_power_radius`` hold for n <= 4 only.
    """

    def __init__(self, n: int, chart: ChartSpec | None = None):
        if not (n >= 2 and float(n).is_integer()):   # NaN and inf too
            raise ParameterError(f"n must be an integer >= 2, got {n}")
        self.n = n = int(n)
        self.dim = n * (n - 1) // 2
        self.nilpotency_step = n - 1
        self._rows, self._cols = np.triu_indices(n, k=1)   # row-major coordinates
        self.chart = chart or ChartSpec(
            rho_prime=0.5, rho_double_prime=0.125, bracket_bound=2.0
        )

    def __repr__(self):
        return f"UnipotentGroup(n={self.n})"

    def to_matrix(self, vec: np.ndarray) -> np.ndarray:
        """Scatter flat coordinates into a strictly upper-triangular matrix."""
        (vec,) = self._check(vec)
        out = np.zeros(vec.shape[:-1] + (self.n, self.n))
        out[..., self._rows, self._cols] = vec
        return out

    def from_matrix(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        return mat[..., self._rows, self._cols]

    def _series(self, g, div) -> np.ndarray:
        """Flat coordinates of sum_{k=1}^{n-1} m^k / div(k), m the matrix of ``g``;
        m^n = 0, so the inverse, exponential and logarithm series end there."""
        m = power = self.to_matrix(g)   # checks g
        out = m / div(1)
        for k in range(2, self.n):
            power = power @ m
            out += power / div(k)
        return self.from_matrix(out)

    def mul(self, g, h):
        a = self.to_matrix(g)
        b = self.to_matrix(h)
        return self.from_matrix(a + b + a @ b)

    def inv(self, g):
        return self._series(g, lambda k: (-1.0) ** k)

    def exp(self, vec):
        return self._series(vec, lambda k: float(math.factorial(k)))

    def log(self, g):
        return self._series(g, lambda k: (-1.0) ** (k + 1) * k)

    def _prefix_products(self, increments):
        # the reference fold kept in matrix form: each step is mul's
        # a + b + a @ b on the same (..., n, n) matrices, so it has mul's bits,
        # and the strict lower triangle stays +0.0 as in to_matrix
        steps = self.to_matrix(increments)   # checks increments
        cells = steps.shape[-3]
        out = np.zeros(steps.shape[:-3] + (cells + 1, self.n, self.n))
        acc = out[..., 0, :, :]
        for k in range(cells):
            b = steps[..., k, :, :]
            acc = acc + b + acc @ b
            out[..., k + 1, :, :] = acc
        return self.from_matrix(out)

    def bracket(self, u, v):
        a = self.to_matrix(u)
        b = self.to_matrix(v)
        return self.from_matrix(a @ b - b @ a)

    def norm(self, vec):
        # a = M(vec) / max|M(vec)| keeps a^T a clear of underflow and overflow;
        # a zero matrix keeps scale 0, so its norm is exactly 0
        (vec,) = self._check(vec)
        scale = np.abs(vec).max(axis=-1)
        if not np.isfinite(scale).all():
            raise np.linalg.LinAlgError("spectral norm of a matrix with non-finite entries")
        a = self.to_matrix(vec / np.where(scale > 0.0, scale, 1.0)[..., None])
        top = np.linalg.eigvalsh(np.swapaxes(a, -1, -2) @ a)[..., -1]
        return scale * np.sqrt(np.maximum(top, 0.0))

    def norm_bounds(self, vec):
        # max|a_ij| <= |A|_2 <= |A|_F; the Frobenius sum is taken on the entries
        # scaled by the largest, as norm scales its Gram matrix, so it neither
        # underflows nor overflows; a row with a non-finite entry is left unscaled,
        # and both its bounds are non-finite
        (vec,) = self._check(vec)
        lo = np.abs(vec).max(axis=-1)
        scaled = vec / np.where((lo > 0.0) & (lo < np.inf), lo, 1.0)[..., None]
        return lo, lo * np.sqrt((scaled * scaled).sum(axis=-1))
