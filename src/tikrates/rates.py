"""Empirical convergence orders for the regularized solutions: noise-free
order in the regularization parameter, noisy order in the noise level under
the power parameter choice ``alpha = delta**(2 - mu)``, and the projection
argument showing off-range data perturbations do not move the solutions.

Grids are swept through the closed-form spectral filters, so one singular
system serves every (alpha, delta, trial) combination.  A sweep takes the
alpha grid in blocks of about 2**16 entries, in O(n) memory, and scales u+
and delta by a power of two, so no square underflows; random and in-range
noise errors come from one pair of Gram products per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._domain import in_interval
from ._fitting import best_loglog_window
from .operators import CoeffVector, SpectralOperator, _pow2_scaled
from .tikhonov import min_norm_solution, solve_normal_equations

#: Residual ceiling (log10 units) for the accepted fit window.
FIT_MAX_RESID = 0.1

#: Noise-free fits only use alphas above this multiple of the smallest
#: squared singular value; below it truncation dominates the error.
GRID_FLOOR_FACTOR = 10.0

#: Alpha grid and solution-difference tolerance of the off-range comparison.
Q_PROJECTION_ALPHAS = tuple(np.logspace(-8.0, 0.0, 9).tolist())
Q_PROJECTION_TOL = 1e-10

#: Random directions per noise level when ``trials`` is not given; the
#: worst-case family takes no ``trials``.
RANDOM_TRIALS = 32

WORST_CASE_BASIS = "worst_case_basis"
RANDOM_SPHERE = "random_sphere"
IN_RANGE = "in_range"


class DegenerateGridError(ValueError):
    """The requested sweep cannot support a rate fit."""


@dataclass(frozen=True)
class NoiseModel:
    """How data perturbations of a prescribed norm are generated.

    ``worst_case_basis`` probes every retained basis direction with both
    signs (deterministic, one trial); ``random_sphere`` draws seeded uniform
    directions; ``in_range`` pushes random vectors through the operator so
    the perturbation stays in the range.
    """

    kind: str = WORST_CASE_BASIS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (WORST_CASE_BASIS, RANDOM_SPHERE, IN_RANGE):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def directions(self, op: SpectralOperator,
                   trials: int | None = None) -> np.ndarray | None:
        """The unit-norm noise directions, one per row, that one sweep shares
        over every noise level and alpha: None for worst-case noise, whose
        error has a closed form, else ``trials`` seeded directions,
        ``RANDOM_TRIALS`` by default; worst-case noise takes no ``trials``."""
        if trials is not None and trials < 1:
            raise ValueError("trials must be at least 1")
        if self.kind == WORST_CASE_BASIS:
            if trials is not None:
                raise ValueError("trials applies to random and in-range "
                                 "noise; worst-case noise probes every basis "
                                 "direction once")
            return None
        rng = np.random.default_rng(self.seed)
        x = rng.standard_normal((RANDOM_TRIALS if trials is None else trials,
                                 op.n))
        if self.kind == IN_RANGE:
            x = x * op.sigma
        return x / np.linalg.norm(x, axis=1, keepdims=True)


@dataclass(frozen=True)
class RateFit:
    """Log-log regression of error against a grid parameter.

    The slope is fit over the largest contiguous sub-window whose residuals
    stay within ``FIT_MAX_RESID`` log10 units; ``window`` is its parameter
    range and ``clipped`` records whether grid points were discarded by the
    truncation floor.
    """

    grid: list
    slope: float
    intercept: float
    max_residual: float
    window: tuple
    clipped: bool

    def to_json(self) -> dict:
        return {"grid": [[float(a), float(b)] for a, b in self.grid],
                "slope": self.slope, "intercept": self.intercept,
                "max_residual": self.max_residual,
                "window": [self.window[0], self.window[1]],
                "clipped": self.clipped}


def _fit(xs, ys, clipped) -> RateFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)):
        raise DegenerateGridError("errors are not finite on the grid; "
                                  "nothing to fit")
    if np.any(ys <= 0.0):
        raise DegenerateGridError("errors vanish on the grid; nothing to fit")
    slope, icpt, resid, i, j = best_loglog_window(xs, ys, FIT_MAX_RESID)
    return RateFit(grid=list(zip(xs.tolist(), ys.tolist())),
                   slope=slope, intercept=icpt, max_residual=resid,
                   window=(float(xs[i]), float(xs[j - 1])), clipped=clipped)


def _check_grid(grid, decades: float, label: str) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.size < 4 or not np.all((g > 0.0) & (g < np.inf)):
        raise DegenerateGridError(
            f"{label} grid needs at least 4 positive finite points")
    g = np.sort(g)
    if g[-1] / g[0] < 10.0 ** decades * (1.0 - 1e-9):
        raise DegenerateGridError(f"{label} grid must span at least "
                                  f"{decades:g} decades")
    return g


def noise_free_rate(op: SpectralOperator, y, alpha_grid) -> RateFit:
    """Fit the decay order of the exact-data regularization error.

    The error at each alpha is the norm of the filtered bias, row by row
    over blocks of the alpha grid; alphas below ``GRID_FLOOR_FACTOR`` times
    the smallest squared singular value are clipped before fitting.
    """
    alphas = _check_grid(alpha_grid, 4.0, "alpha")
    u_dag = min_norm_solution(op, y)
    if not u_dag.coeffs.any():
        raise DegenerateGridError("zero data; fit rejected as degenerate")
    clipped = False
    if op.truncated:
        # below the floor the truncated tail, not the regularization,
        # dominates the error; exact operators have no such floor
        floor = GRID_FLOOR_FACTOR * float(op.lambdas.min())
        keep = alphas >= floor
        clipped = bool(np.any(~keep))
        alphas = alphas[keep]
        if alphas.size < 4:
            raise DegenerateGridError(
                "alpha grid lies below the truncation floor")
    rows = min(alphas.size, max(1, 2 ** 16 // op.n))
    errors = _kernel(op, u_dag, None, rows)
    errs = np.concatenate([np.ldexp(*errors(0.0, alphas[lo:lo + rows]))
                           for lo in range(0, alphas.size, rows)])
    return _fit(alphas, errs[:, 0], clipped)


def _kernel(op, u_dag: CoeffVector, dirs: np.ndarray | None, rows: int):
    """``errors(delta, alphas)`` of one sweep: the error times ``2**-e``, in
    buffers the next call overwrites, for each (alpha, noise direction) of
    at most ``rows`` alphas, and e, the exponent of max(max|u+|, delta).
    Worst-case noise (``dirs`` None) is ``+-delta`` along each basis vector,
    signed as the bias; at ``delta = 0`` a row is the bias's norm.  Seeded
    directions ``e`` expand ``||b + delta r*e||**2`` into ``||b||**2 +
    2 delta (b*r).e + delta**2 (r*r).(e*e)``."""
    sig, lam, u = op.sigma, op.sigma ** 2, u_dag.coeffs
    u_top, e_top = _pow2_scaled(u)
    # a power of two with max|u+|'s exponent, for the exponent of max(., delta)
    top = math.ldexp(0.5, e_top) if u.any() else 0.0
    dirs_sq = None if dirs is None else dirs * dirs
    den_buf, bias_buf = np.empty((rows, op.n)), np.empty((rows, op.n))

    def errors(delta, alphas):
        e = math.frexp(max(top, delta))[1]
        delta = math.ldexp(delta, -e)
        alphas = np.asarray(alphas, dtype=float)[:, None]
        den = np.add(alphas, lam, out=den_buf[:alphas.size])
        bias = np.divide(-alphas, den, out=bias_buf[:alphas.size])
        bias *= u_top if e == e_top else np.ldexp(u, -e)
        if delta == 0.0:  # np.linalg.norm's sum, without its temporary
            return np.sqrt(np.square(bias, out=bias).sum(axis=1))[:, None], e
        resp = np.divide(sig, den, out=den)
        # a dot product per row: no output depends on the block size
        bias_sq = np.array([b @ b for b in bias])[:, None]
        if dirs is None:  # (delta r)**2 + 2 delta r |b| + ||b||**2
            resp *= delta
            np.multiply(np.abs(bias, out=bias), 2.0, out=bias)
            bias *= resp
            np.add(np.square(resp, out=resp), bias, out=resp)
            return np.sqrt(np.add(resp, bias_sq, out=resp), out=resp), e
        bias *= resp  # b*r and r*r overwrite their factors
        resp *= resp
        sq = ((bias @ dirs.T) * (2.0 * delta) + bias_sq
              + delta ** 2 * (resp @ dirs_sq.T))
        # cancellation can leave a rounding-sized negative square
        return np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq), e

    return errors


def _noisy_errors(op, u_dag: CoeffVector, delta, alpha,
                  dirs: np.ndarray | None, kernel=None):
    """Worst error over the noise family at one (delta, alpha); returns
    (error, witness index).  A sweep passes its one-row ``kernel``."""
    errs, e = (kernel or _kernel(op, u_dag, dirs, 1))(delta, [alpha])
    k = int(np.argmax(errs[0]))
    return math.ldexp(float(errs[0, k]), e), k


def noisy_sweep_rows(op: SpectralOperator, y, delta_grid, mu: float,
                     noise: NoiseModel, trials: int | None = None) -> list:
    """Per-delta rows (delta, error, alpha_used, witness index) of the
    worst-case error under the parameter choice ``alpha = delta**(2 - mu)``,
    in increasing delta."""
    mu = in_interval("mu", mu, "(0, 1]")
    deltas = _check_grid(delta_grid, 3.0, "delta")
    u_dag = min_norm_solution(op, y)
    dirs = noise.directions(op, trials)
    kernel = _kernel(op, u_dag, dirs, 1)
    rows = []
    for delta in deltas:
        alpha = delta ** (2.0 - mu)
        err, k = _noisy_errors(op, u_dag, delta, alpha, dirs, kernel)
        rows.append((float(delta), err, float(alpha), k))
    return rows


def noisy_rate(op: SpectralOperator, y, delta_grid, mu: float,
               noise: NoiseModel, trials: int | None = None) -> RateFit:
    """Fit the decay order of the worst-case error under the parameter
    choice ``alpha = delta**(2 - mu)``.

    For each noise level the error is maximized over the noise family; the
    returned fit estimates ``mu / 2``.
    """
    rows = noisy_sweep_rows(op, y, delta_grid, mu, noise, trials)
    return _fit([r[0] for r in rows], [r[1] for r in rows], clipped=False)


def infimum_rate(op: SpectralOperator, y, delta: float, noise: NoiseModel,
                 alpha_grid, trials: int | None = None) -> float:
    """Worst over the noise family of the best error over the alpha grid.

    Refining the grid can only lower it, and it never exceeds the error of
    any one alpha; at ``delta = 0`` it is the least noise-free error.
    """
    delta = in_interval("delta", delta, "[0, inf)")
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0 or not np.all((alphas > 0.0) & (alphas < np.inf)):
        raise DegenerateGridError(
            "alpha grid must be positive, finite and non-empty")
    rows = min(alphas.size, max(1, 2 ** 16 // op.n))
    errors = _kernel(op, min_norm_solution(op, y),
                     noise.directions(op, trials), rows)
    best = np.inf
    for lo in range(0, alphas.size, rows):
        errs, e = errors(delta, alphas[lo:lo + rows])
        best = np.minimum(best, np.ldexp(errs.min(axis=0), e))
    return float(best.max())


@dataclass(frozen=True)
class QProjectionResult:
    """Outcome of the off-range perturbation comparison."""

    equivalent: bool
    max_difference: float
    off_range_norm: float
    in_range_norm: float


def q_projection_equivalence(op: SpectralOperator, y,
                             e_offrange) -> QProjectionResult:
    """Check that perturbing dense-operator data orthogonally to the retained
    range leaves the regularized solutions unchanged, to ``Q_PROJECTION_TOL``,
    at every alpha of ``Q_PROJECTION_ALPHAS``.

    Both solves go through the ambient normal equations, so the agreement is
    a genuine numerical fact rather than an artifact of projecting first.
    A perturbation with an in-range component yields ``equivalent=False``
    together with the observed solution difference.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    e = np.asarray(e_offrange, dtype=float).reshape(-1)
    coeffs, off = op.data_from_ambient(e)
    in_range = float(np.linalg.norm(coeffs.coeffs))
    max_diff = 0.0
    for alpha in Q_PROJECTION_ALPHAS:
        u_clean = solve_normal_equations(op, y, alpha)
        u_pert = solve_normal_equations(op, y + e, alpha)
        max_diff = max(max_diff,
                       float(np.linalg.norm(u_pert.coeffs - u_clean.coeffs)))
    return QProjectionResult(equivalent=bool(max_diff <= Q_PROJECTION_TOL),
                             max_difference=max_diff,
                             off_range_norm=float(off),
                             in_range_norm=in_range)
