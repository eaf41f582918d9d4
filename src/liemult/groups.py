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
coordinate over the whole batch in numpy's reduce order (``coordinate_sum``),
so they give the same bits as a trailing-axis ``np.sum``.

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


def coordinate_sum(terms, n: int):
    """Sum ``n`` per-coordinate arrays with the bits of ``np.sum(..., axis=-1)``
    over them stacked on a trailing axis, each addition over the whole batch.

    The order is numpy's pairwise ``add.reduce``: a left fold below 8 terms,
    8 interleaved lanes up to 128, recursive halves at ``n//2 - (n//2) % 8``
    beyond.  ``terms`` is a generator of fresh arrays, never views of an input:
    the first ones are added into in place, and at most 8 are live at a time.
    """
    terms = iter(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        acc = coordinate_sum(terms, half)
        acc += coordinate_sum(terms, n - half)
        return acc
    if n < 8:
        acc = next(terms)
        for _ in range(n - 1):
            acc += next(terms)
    else:
        lanes = [next(terms) for _ in range(8)]
        for _ in range(n // 8 - 1):
            for i in range(8):
                lanes[i] += next(terms)   # by index: a 0-d lane is a numpy scalar
        for step in (1, 2, 4):   # ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
            for i in range(0, 8, 2 * step):
                lanes[i] += lanes[i + step]
        acc = lanes[0]
        for _ in range(n % 8):
            acc += next(terms)
    acc += 0.0   # add.reduce starts from +0.0, so a sum of -0.0 terms reads +0.0
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
            return column_lp_norm((arr[..., i] for i in range(n)), n, p)
    except FloatingPointError:
        pass
    with np.errstate(under="ignore", over="ignore"):
        out = np.array(column_lp_norm((arr[..., i] for i in range(n)), n, p))
        sums = _power_sum((arr[..., i] for i in range(n)), n, p)
        top = np.max(np.abs(arr), axis=-1)
        redo = ((sums < np.finfo(float).tiny) | (sums == np.inf)) & (top > 0) & (top < np.inf)
        rows = arr[redo] / top[redo][:, None]
        out[redo] = top[redo] * column_lp_norm((rows[:, i] for i in range(n)), n, p)
    return out[()]


def _power_sum(columns, n: int, p: float):
    """The sum of the p-th powers of the absolute values of ``n`` coordinate columns."""
    if p == 2.0:
        return coordinate_sum((c * c for c in columns), n)
    # np.power, not **: a 0-d column or sum is a numpy scalar, whose ** is libm's
    # pow rather than the ufunc loop of an array, so one element's norm would not
    # be the bits of its row in a batch
    return coordinate_sum((np.power(np.abs(c), p) for c in columns), n)


def column_lp_norm(columns, n: int, p: float) -> np.ndarray:
    """l^p norm of ``n`` coordinate columns, taken directly as ``(sum |x_i|^p)^(1/p)``."""
    sums = _power_sum(columns, n, p)
    return np.sqrt(sums) if p == 2.0 else np.power(sums, 1.0 / p)


def sample_norm_ball(rng: np.random.Generator, space, radius: float, size: int) -> np.ndarray:
    """Draw vectors uniformly from the open norm ball of ``space``, any object
    with ``dim`` and ``norm``.

    Rejection sampling: uniform draws from the box [-radius, radius]^dim, keeping
    those whose norm is below radius; exact for any norm whose unit ball is
    contained in the unit sup-norm box (true for all norms used here).

    The number of candidates drawn is part of the result: a caller that draws
    again from ``rng`` (``chart-certification`` draws all its product batches
    from one generator) sees a different stream if the round sizes change,
    even when the returned points do not.  ``TestSampleNormBall`` in
    ``tests/test_groups.py`` pins the generator's next draw, so an exact
    sampler changes it knowingly.
    """
    if not radius > 0:   # NaN too
        raise ParameterError(f"radius must be positive, got {radius}")
    out = np.empty((size, space.dim))
    have = 0
    while have < size:
        batch = max(64, 4 * (size - have))
        cand = rng.uniform(-radius, radius, size=(batch, space.dim))
        good = cand[space.norm(cand) < radius]
        take = min(size - have, good.shape[0])
        out[have:have + take] = good[:take]
        have += take
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
        """Two-parameter value inv(g_j) g_k from cached prefix products."""
        (prefix,) = self._check(prefix)
        return self.mul(self.inv(prefix[..., j, :]), prefix[..., k, :])

    def pairwise_chart_norms(self, prefix: np.ndarray) -> np.ndarray:
        """Chart norms of all two-parameter values, shape (..., n+1, n+1), symmetric
        with a zero diagonal as log(inv(g)) = -log(g); callers read the j < k pairs."""
        # the one entry point: a group with a closed form overrides the hook below
        return self._pairwise_chart_norms(prefix)

    def _pairwise_chart_norms(self, prefix: np.ndarray) -> np.ndarray:
        # the generic route: only the j < k pairs are evaluated, then mirrored; the
        # m rows are inverted once and then gathered, the bits of pair_increment
        (prefix,) = self._check(prefix)
        j, k = np.triu_indices(prefix.shape[-2], 1)
        pairs = self.mul(self.inv(prefix)[..., j, :], prefix[..., k, :])
        out = np.zeros(prefix.shape[:-1] + prefix.shape[-2:-1])   # (..., m, m)
        out[..., j, k] = out[..., k, j] = self.chart_norm(pairs)
        return out


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
        return coordinate_sum((a[..., i] * b[..., i] for i in range(a.shape[-1])), a.shape[-1])

    def mul(self, g, h):
        g, h = self._check(g, h)
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
        u, v = self._check(u, v)
        x1, y1, _ = self.split(u)
        x2, y2, _ = self.split(v)
        return self.embed(c=self.pairing(x1, y2) - self.pairing(x2, y1))

    def norm(self, vec):
        (vec,) = self._check(vec)
        a, b, c = self.split(vec)
        return lp_norm(a, self.p) + lp_norm(b, self.q) + np.abs(c)

    def chart_norm(self, g):
        return self.norm(g)   # log is the coordinate identity

    def _pairwise_chart_norms(self, prefix):
        # blocks (dx, dy, dz) of inv(g_j) g_k for all pairs (j, k), bit-identical to
        # mul(inv(g_j), g_k): (-a) + b rounds as b - a, and the z pairings are its
        # products and coordinate sums, negated; dx and dy stream one coordinate
        # at a time, so no (..., m, m, N) array is built
        x, y, z = self.split(prefix)
        cross = self.pairing(x[..., :, None, :], y[..., None, :, :])   # <x_j|y_k>
        dz = (z[..., None, :] - z[..., :, None]) + 0.5 * (np.swapaxes(cross, -1, -2) - cross)
        dx = (x[..., None, :, i] - x[..., :, None, i] for i in range(self.N))
        dy = (y[..., None, :, i] - y[..., :, None, i] for i in range(self.N))
        try:
            with np.errstate(under="raise", over="raise"):
                return (column_lp_norm(dx, self.N, self.p) + column_lp_norm(dy, self.N, self.q)
                        + np.abs(dz))
        except FloatingPointError:   # a lost norm: the generic route takes lp_norm's
            return super()._pairwise_chart_norms(prefix)

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
        g, h = self._check(g, h)
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
        u, v = self._check(u, v)
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
