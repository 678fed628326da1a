"""Empirical convergence orders for the regularized solutions: noise-free
order in the regularization parameter, noisy order in the noise level under
the power parameter choice ``alpha = delta**(2 - mu)``, and the projection
argument showing off-range data perturbations do not move the solutions.

Grids are swept through the closed-form spectral filters, so one singular
system serves every (alpha, delta, trial) combination.  Per-point results
are reduced in grid order, which keeps the output independent of any
parallel evaluation scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._domain import in_interval
from ._fitting import best_loglog_window
from .operators import CoeffVector, SpectralOperator
from .tikhonov import min_norm_solution, solve, solve_normal_equations

#: Residual ceiling (log10 units) for the accepted fit window.
FIT_MAX_RESID = 0.1

#: Noise-free fits only use alphas above this multiple of the smallest
#: squared singular value; below it truncation dominates the error.
GRID_FLOOR_FACTOR = 10.0

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

    def default_trials(self) -> int:
        return 1 if self.kind == WORST_CASE_BASIS else 32

    def directions(self, op: SpectralOperator, trials: int) -> np.ndarray:
        """Unit-norm perturbation directions, one per row."""
        rng = np.random.default_rng(self.seed)
        if self.kind == WORST_CASE_BASIS:
            eye = np.eye(op.n)
            return np.vstack([eye, -eye])
        x = rng.standard_normal((trials, op.n))
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

    The error at each alpha is evaluated through the coefficientwise filter;
    alphas below ``GRID_FLOOR_FACTOR`` times the smallest squared singular
    value are clipped before fitting.
    """
    alphas = _check_grid(alpha_grid, 4.0, "alpha")
    u_dag = min_norm_solution(op, y)
    if u_dag.norm() == 0.0:
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
    lam = op.lambdas
    filt = alphas[:, None] / (alphas[:, None] + lam[None, :])
    errors = np.sqrt((filt ** 2) @ (u_dag.coeffs ** 2))
    return _fit(alphas, errors, clipped)


def _worst_case_gain(delta, resp, bias):
    """Growth of the squared error when the data move by ``+-delta`` along
    each basis direction, the sign chosen to align with the bias."""
    return (delta * resp) ** 2 + 2.0 * delta * resp * np.abs(bias)


def _noisy_errors(op, u_dag: CoeffVector, delta, alpha, noise: NoiseModel,
                  trials: int):
    """Worst error over the noise family at one (delta, alpha); returns
    (error, witness index)."""
    lam = op.sigma ** 2
    bias = -alpha / (alpha + lam) * u_dag.coeffs
    resp = op.sigma / (alpha + lam)
    if noise.kind == WORST_CASE_BASIS:
        gain = _worst_case_gain(delta, resp, bias)
        k = int(np.argmax(gain))
        return float(np.sqrt(bias @ bias + gain[k])), k
    dirs = noise.directions(op, trials)
    shifted = bias[None, :] + delta * dirs * resp[None, :]
    errs = np.linalg.norm(shifted, axis=1)
    k = int(np.argmax(errs))
    return float(errs[k]), k


def noisy_sweep_rows(op: SpectralOperator, y, delta_grid, mu: float,
                     noise: NoiseModel, trials: int | None = None) -> list:
    """Per-delta rows (delta, error, alpha_used, witness index) of the
    worst-case error under the parameter choice ``alpha = delta**(2 - mu)``,
    in increasing delta."""
    mu = in_interval("mu", mu, "(0, 1]")
    deltas = _check_grid(delta_grid, 3.0, "delta")
    if trials is None:
        trials = noise.default_trials()
    if trials < 1:
        raise ValueError("trials must be at least 1")
    u_dag = min_norm_solution(op, y)
    rows = []
    for delta in deltas:
        alpha = delta ** (2.0 - mu)
        err, k = _noisy_errors(op, u_dag, delta, alpha, noise, trials)
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

    Refining the alpha grid can only lower the value; it never exceeds the
    error of any single parameter choice on the same grid.
    """
    delta = in_interval("delta", delta, "[0, inf)")
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    if alphas.size == 0 or not np.all((alphas > 0.0) & (alphas < np.inf)):
        raise DegenerateGridError(
            "alpha grid must be positive, finite and non-empty")
    lam = op.sigma ** 2
    u_dag = min_norm_solution(op, y)
    bias = -alphas[:, None] / (alphas[:, None] + lam[None, :]) * u_dag.coeffs
    if delta == 0.0:
        return float(np.linalg.norm(bias, axis=1).min())
    resp = op.sigma[None, :] / (alphas[:, None] + lam[None, :])
    if trials is None:
        trials = noise.default_trials()
    if noise.kind == WORST_CASE_BASIS:
        gain = _worst_case_gain(delta, resp, bias)
        errs = np.sqrt(np.sum(bias ** 2, axis=1)[:, None] + gain)  # (alpha, k)
        return float(errs.min(axis=0).max())
    dirs = noise.directions(op, trials)  # (trial, n)
    best = np.inf * np.ones(dirs.shape[0])
    for i in range(alphas.size):
        shifted = bias[i][None, :] + delta * dirs * resp[i][None, :]
        best = np.minimum(best, np.linalg.norm(shifted, axis=1))
    return float(best.max())


@dataclass(frozen=True)
class QProjectionResult:
    """Outcome of the off-range perturbation comparison."""

    equivalent: bool
    max_difference: float
    off_range_norm: float
    in_range_norm: float

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


def q_projection_equivalence(op: SpectralOperator, y, e_offrange,
                             alpha_grid=None, tol: float = 1e-10,
                             ) -> QProjectionResult:
    """Check that perturbing dense-operator data orthogonally to the retained
    range leaves the regularized solutions unchanged on an alpha grid.

    Both solves go through the ambient normal equations, so the agreement is
    a genuine numerical fact rather than an artifact of projecting first.
    A perturbation with an in-range component yields ``equivalent=False``
    together with the observed solution difference.
    """
    op._require_dense()
    tol = in_interval("tol", tol, "(-inf, inf)")
    y = np.asarray(y, dtype=float).reshape(-1)
    e = np.asarray(e_offrange, dtype=float).reshape(-1)
    if y.shape[0] != op.matrix.shape[0] or e.shape[0] != y.shape[0]:
        raise ValueError("ambient vectors must match the matrix rows")
    if alpha_grid is None:
        alpha_grid = np.logspace(-8.0, 0.0, 9)
    _, off = op.data_from_ambient(e)
    in_range = float(np.sqrt(max(e @ e - off ** 2, 0.0)))
    max_diff = 0.0
    for alpha in np.asarray(alpha_grid, dtype=float):
        u_clean = solve_normal_equations(op, y, float(alpha))
        u_pert = solve_normal_equations(op, y + e, float(alpha))
        max_diff = max(max_diff,
                       float(np.linalg.norm(u_pert.coeffs - u_clean.coeffs)))
    return QProjectionResult(equivalent=bool(max_diff <= tol),
                             max_difference=max_diff,
                             off_range_norm=float(off),
                             in_range_norm=in_range)
