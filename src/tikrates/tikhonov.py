"""Minimum-norm and Tikhonov-regularized solutions, and the squared-error
bound that a verified inhomogeneous certificate implies.

The regularized solution is computed through filter factors
``sigma / (alpha + sigma**2)`` in the singular basis, so one decomposition
serves an entire sweep over regularization parameters.  A dense operator can
alternatively be solved through its normal equations
(:func:`solve_normal_equations`), which the tests use as an independent path.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._domain import in_interval
from .operators import CoeffVector, SpectralOperator, _require_same_frame

logger = logging.getLogger(__name__)

#: Out-of-range data mass below this fraction of the data norm is zeroed.
RANGE_RTOL = 1e-13

#: Off-range mass below this fraction is arithmetic dust, not worth a warning.
RANGE_NOISE_RTOL = 1e-14

#: Additive slack in the error-bound comparison.
BOUND_TOL = 1e-12


class NotInRangeError(ValueError):
    """Data has mass on dropped directions and is not in the operator range."""


@dataclass(frozen=True)
class ErrorBoundReport:
    """Evaluation of the certificate error bound at one (delta, alpha) pair.

    ``lhs`` is the squared distance between the regularized solution from the
    perturbed data and the minimum-norm solution; ``rhs`` is

        2 / (1 - gamma) * delta**2 / alpha
        + beta**(2 / (2 - mu)) * (2 - mu) / (2 * (1 - gamma))
          * alpha**(mu / (2 - mu))

    with the certificate constants in the doubled-pairing convention.
    """

    mu: float
    beta: float
    gamma: float
    delta: float
    alpha: float
    lhs: float
    rhs: float
    holds: bool
    notes: tuple[str, ...] = field(default=())


def _as_data_coeffs(op: SpectralOperator, y) -> tuple[np.ndarray, float]:
    """Data coefficients of ``y`` and the norm of its off-range component.

    A CoeffVector must be in the data frame and is used as it is; anything
    else is a raw data array, which
    :meth:`SpectralOperator.data_from_ambient` reads as ambient data.
    """
    if isinstance(y, CoeffVector):
        _require_same_frame(y.frame, op.data)
        return y.coeffs, 0.0
    vec, off = op.data_from_ambient(y)
    return vec.coeffs, off


def min_norm_solution(op: SpectralOperator, y) -> CoeffVector:
    """Minimum-norm solution of the operator equation for in-range data.

    Coefficientwise division by the singular values on retained coordinates.
    Data mass on dropped directions beyond ``RANGE_RTOL`` of the data norm is
    rejected; smaller mass is zeroed with a logged warning.
    """
    coeffs, off = _as_data_coeffs(op, y)
    # the norm at the power of two of the largest entry: no square underflows
    e = math.frexp(max(float(np.max(np.abs(coeffs))), off))[1]
    ynorm = math.ldexp(float(np.hypot(np.linalg.norm(np.ldexp(coeffs, -e)),
                                      math.ldexp(off, -e))), e)
    if off > RANGE_RTOL * max(ynorm, 1e-300):
        raise NotInRangeError(
            f"data not in range: off-range mass {off:.3e} (norm {ynorm:.3e})")
    if off > RANGE_NOISE_RTOL * ynorm:
        warnings.warn("off-range data mass below tolerance treated as zero",
                      stacklevel=2)
        logger.info("min_norm_solution: zeroed off-range mass %.3e", off)
    return CoeffVector(coeffs / op.sigma, op.domain)


def solve(op: SpectralOperator, ytilde, alpha: float) -> CoeffVector:
    """Tikhonov-regularized solution through spectral filter factors.

    The n-th coefficient of the solution is
    ``sigma_n * y_n / (alpha + sigma_n**2)``.
    """
    alpha = in_interval("alpha", alpha, "(0, inf)")
    y, _ = _as_data_coeffs(op, ytilde)
    return CoeffVector(op.sigma * y / (alpha + op.sigma ** 2), op.domain)


def solve_normal_equations(op: SpectralOperator, ytilde,
                           alpha: float) -> CoeffVector:
    """Regularized solution via a direct factorization of the shifted normal
    equations in ambient matrix coordinates.

    Dense operators only; independent of the filter path and intended for
    cross-checks and for off-range perturbation experiments.
    """
    op._require_dense()
    alpha = in_interval("alpha", alpha, "(0, inf)")
    arr = np.asarray(ytilde, dtype=float).reshape(-1) \
        if not isinstance(ytilde, CoeffVector) else op.ambient_from_data(ytilde)
    if arr.shape[0] != op.matrix.shape[0]:
        raise ValueError("expected ambient data for the dense path")
    a = op.matrix
    gram = a.T @ a + alpha * np.eye(a.shape[1])
    x = np.linalg.solve(gram, a.T @ arr)
    return op.domain_from_ambient(x)


def error_bound(mu: float, beta: float, gamma: float, delta: float,
                alpha: float, op: SpectralOperator, y,
                ydelta) -> ErrorBoundReport:
    """Evaluate the certificate error bound for one perturbed solve.

    The constants ``(mu, beta, gamma)`` are an inhomogeneous-inequality
    certificate in the doubled-pairing convention.  The report compares the
    actual squared error against the bound and flags whether it holds.
    """
    mu = in_interval("mu", mu, "(0, 1]")
    beta = in_interval("beta", beta, "[0, inf)")
    gamma = in_interval("gamma", gamma, "[0, 1)")
    delta = in_interval("delta", delta, "[0, inf)")
    alpha = in_interval("alpha", alpha, "(0, inf)")
    ycoef, _ = _as_data_coeffs(op, y)
    ydcoef, _ = _as_data_coeffs(op, ydelta)
    actual = float(np.linalg.norm(ydcoef - ycoef))
    if actual > delta * (1.0 + 1e-9) + 1e-15:
        raise ValueError(f"perturbation norm {actual:.3e} exceeds delta {delta:.3e}")
    u_dag = min_norm_solution(op, CoeffVector(ycoef, op.data))
    u_reg = solve(op, CoeffVector(ydcoef, op.data), alpha)
    lhs = float(np.sum((u_reg.coeffs - u_dag.coeffs) ** 2))
    rhs = (2.0 / (1.0 - gamma) * delta ** 2 / alpha
           + beta ** (2.0 / (2.0 - mu)) * (2.0 - mu) / (2.0 * (1.0 - gamma))
           * alpha ** (mu / (2.0 - mu)))
    notes = ()
    if gamma == 0.0:
        notes = ("gamma = 0 accepted; the bound's derivation assumes a "
                 "strictly positive gamma but degrades continuously",)
    return ErrorBoundReport(mu=mu, beta=beta, gamma=gamma, delta=delta,
                            alpha=alpha, lhs=lhs, rhs=float(rhs),
                            holds=bool(lhs <= rhs + BOUND_TOL), notes=notes)
