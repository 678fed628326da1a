"""Spectral representation of bounded linear operators between coefficient spaces.

An operator is stored through its singular system.  Diagonal operators keep
their singular values in the order given (index n = 1, 2, ...), which for the
built-in instances is decreasing; the condition checks read that index as
depth, so they refuse a truncated section whose singular values increase.
Dense operators are decomposed once and act in their singular bases
afterwards.  Coefficient vectors are tied to a frame so that vectors from
different operators cannot be mixed up silently.

Everything here is immutable after construction and all operations are pure
functions, so the types are safe to share between threads.  The exception,
the dense matrix of a factored operator, is an idempotent cache filled on
first use: threads that race on it only compute it twice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._domain import in_interval
from .measures import DiscreteMeasure

logger = logging.getLogger(__name__)

#: Relative cutoff under which singular values of a dense matrix are dropped.
DROP_RTOL = 1e-14

#: Relative accuracy required of the stored singular system of a dense matrix.
DENSE_CHECK_RTOL = 1e-10


class FrameMismatchError(ValueError):
    """A coefficient vector was used with an operator of a different frame."""


@dataclass(frozen=True, eq=False)
class Frame:
    """Identity token for an orthonormal coefficient basis."""

    dim: int
    label: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frame({self.label!r}, dim={self.dim})"


class CoeffVector:
    """Element of a Hilbert space given by coefficients in an operator's basis.

    Parameters
    ----------
    coeffs : array_like of float
        Finite coefficients, one per basis direction of ``frame``.
    frame : Frame
        The basis the coefficients refer to.
    """

    __slots__ = ("coeffs", "frame")

    def __init__(self, coeffs, frame: Frame):
        arr = np.array(coeffs, dtype=float, copy=True).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if arr.shape[0] != frame.dim:
            raise FrameMismatchError(
                f"expected {frame.dim} coefficients for frame {frame.label!r}, "
                f"got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "frame", frame)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffVector is immutable")

    def norm(self) -> float:
        return _norm(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoeffVector(n={self.coeffs.size}, frame={self.frame.label!r})"


def _pow2_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x * 2**-e, e)``, e the ``math.frexp`` exponent of max|x|: no square
    of the copy overflows, nor all underflow; ``x`` itself when e = 0."""
    e = math.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1]
    return (x, 0) if e == 0 else (np.ldexp(x, -e), e)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of ``x``, summed at the power of two of max|x|."""
    x, e = _pow2_scaled(x)
    with np.errstate(over="ignore"):  # past the float range: inf
        return float(np.ldexp(np.linalg.norm(x), e))


def _require_same_frame(a: Frame, b: Frame) -> None:
    if a is not b:
        raise FrameMismatchError(f"frames differ: {a.label!r} vs {b.label!r}")


class SpectralOperator:
    """Bounded linear operator given by a finite singular system.

    Use :meth:`diagonal` for operators defined by singular values on an
    implicit orthonormal basis, or :meth:`from_matrix` for a dense real
    matrix whose singular system is computed once on construction.

    Attributes
    ----------
    kind : str
        ``"diagonal"`` or ``"dense"``.
    sigma : ndarray
        Retained singular values, all strictly positive.
    truncated : bool
        True when the operator is a finite section of an infinite family,
        in which case verdict-producing checks treat it as such.
    """

    __slots__ = (
        "kind", "sigma", "truncated", "dropped",
        "domain", "data", "_matrix", "_u_range", "_vt_range",
    )

    def __init__(self, *, kind, sigma, truncated, dropped,
                 matrix=None, u_range=None, vt_range=None):
        sigma = np.asarray(sigma, dtype=float)
        if sigma.ndim != 1 or sigma.size == 0:
            raise ValueError("need at least one singular value")
        # squaring is monotone on positive floats, so the extremes decide
        # whether every retained square is positive and finite
        lo, hi = float(sigma.min()), float(sigma.max())
        if not (lo > 0.0 and lo * lo > 0.0 and hi * hi < np.inf):
            raise ValueError("retained singular values must be positive, with "
                             "positive finite squares")
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "truncated", bool(truncated))
        object.__setattr__(self, "dropped", int(dropped))
        n = sigma.shape[0]
        tag = f"{kind}-{id(self):x}"
        object.__setattr__(self, "domain", Frame(n, f"{tag}-domain"))
        if kind == "diagonal":
            # Self-map on one coefficient space: domain and data coincide.
            object.__setattr__(self, "data", self.domain)
        else:
            object.__setattr__(self, "data", Frame(n, f"{tag}-data"))
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_u_range", u_range)
        object.__setattr__(self, "_vt_range", vt_range)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralOperator is immutable")

    # Constructors -----------------------------------------------------------

    @classmethod
    def diagonal(cls, singular_values, *,
                 truncated: bool = True) -> "SpectralOperator":
        """Operator acting as multiplication by ``singular_values`` on an
        orthonormal basis.

        Zero singular values are dropped and counted in ``dropped``; the
        operator acts injectively on the retained coordinates.  ``truncated``
        marks the operator as a finite section of an infinite family.
        """
        sig = np.asarray(singular_values, dtype=float).reshape(-1)
        if np.any(sig < 0.0) or not np.all(np.isfinite(sig)):
            raise ValueError("singular values must be finite and non-negative")
        keep = sig > 0.0
        dropped = int(np.count_nonzero(~keep))
        if dropped:
            logger.info("diagonal operator: dropped %d zero singular values", dropped)
        return cls(kind="diagonal", sigma=sig[keep], truncated=truncated,
                   dropped=dropped)

    @classmethod
    def from_matrix(cls, matrix) -> "SpectralOperator":
        """Exact (not truncated) operator given by a dense real matrix.

        The singular system is computed once, by a thin SVD, so an m x n
        matrix never builds an m x m or n x n factor.  Directions with
        singular value below ``DROP_RTOL`` times the largest are removed,
        and the rest is verified as in :meth:`_dense`.
        """
        mat = np.array(matrix, dtype=float, copy=True)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        if not np.all(np.isfinite(s)):
            raise ValueError("singular values overflow the float range")
        if s[0] == 0.0:
            raise ValueError("matrix is identically zero")
        k = int(np.count_nonzero(s > DROP_RTOL * s[0]))
        return cls._dense(mat, u[:, :k].copy(), s[:k], vt[:k, :].copy())

    @classmethod
    def _dense(cls, matrix, u_range, sigma, vt_range) -> "SpectralOperator":
        """Exact operator for ``matrix = u_range @ diag(sigma) @ vt_range``,
        from a singular system the caller already holds; ``matrix=None``
        means the product of the factors, formed only when read.

        The directions of the smaller matrix side beyond ``sigma`` are counted
        in ``dropped`` and logged.  The arrays are kept read-only, and the
        system is verified on seeded random vectors: the factors must be
        finite with orthonormal columns and, given a matrix, reproduce its
        action, each to ``DENSE_CHECK_RTOL`` relative error.
        """
        for a in (matrix, u_range, vt_range):
            if a is not None:
                a.setflags(write=False)
        dropped = min(u_range.shape[0], vt_range.shape[1]) - len(sigma)
        if dropped:
            logger.info("dense operator: dropped %d null directions "
                        "(sigma below %.1e * sigma_max)", dropped, DROP_RTOL)
        op = cls(kind="dense", sigma=sigma, truncated=False, dropped=dropped,
                 matrix=matrix, u_range=u_range, vt_range=vt_range)
        op._verify_singular_system()
        return op

    def _verify_singular_system(self) -> None:
        rng = np.random.default_rng(0)
        scale = float(self.sigma[0])
        u, vt = self._u_range, self._vt_range
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(vt))):
            raise ValueError("singular vectors must be finite")
        for _ in range(4):
            x = rng.standard_normal(vt.shape[1])
            # a product of the factors reproduces its own action
            err = 0.0 if self._matrix is None else np.linalg.norm(
                self._matrix @ x - u @ (self.sigma * (vt @ x)))
            if err > DENSE_CHECK_RTOL * max(scale * np.linalg.norm(x), 1e-300):
                raise ValueError("singular system fails to reproduce the matrix "
                                 f"action (error {err:.2e})")
            # the leading k entries probe the k columns of U and of V
            z = x[:self.n]
            for side, f in (("left", u), ("right", vt.T)):
                err = np.linalg.norm(f.T @ (f @ z) - z)
                if err > DENSE_CHECK_RTOL * max(np.linalg.norm(z), 1e-300):
                    raise ValueError(f"{side} singular vectors are not "
                                     f"orthonormal (error {err:.2e})")

    # Accessors ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of retained singular directions."""
        return int(self.sigma.shape[0])

    @property
    def matrix(self) -> np.ndarray | None:
        """Read-only dense matrix (None if diagonal), formed on first read."""
        if self._matrix is None and self.kind == "dense":
            mat = self._u_range @ (self.sigma[:, None] * self._vt_range)
            mat.setflags(write=False)
            object.__setattr__(self, "_matrix", mat)
        return self._matrix

    @property
    def lambdas(self) -> np.ndarray:
        """Squared singular values, the spectrum of the normal operator."""
        return self.sigma ** 2

    def vector(self, coeffs) -> CoeffVector:
        """Build a domain-side coefficient vector."""
        return CoeffVector(coeffs, self.domain)

    def data_vector(self, coeffs) -> CoeffVector:
        """Build a data-side coefficient vector."""
        return CoeffVector(coeffs, self.data)

    # Ambient interface -------------------------------------------------------

    def _require_dense(self):
        if self.kind != "dense":
            raise ValueError("operation requires a dense operator")

    def data_from_ambient(self, y_ambient) -> tuple[CoeffVector, float]:
        """Read a raw data array, which is always ambient data: one entry
        per matrix row of a dense operator, projected onto the retained left
        singular basis, or one per retained singular value of a diagonal
        operator, taken as the coefficients.  Returns the data-side vector
        and the norm of the component off the retained range (0 for a
        diagonal operator).  Coefficients are handed over directly only as
        a :class:`CoeffVector` from :meth:`data_vector`.
        """
        y = np.asarray(y_ambient, dtype=float).reshape(-1)
        if self.kind == "diagonal":
            if y.shape[0] != self.n:
                raise ValueError("ambient data length does not match the "
                                 "retained singular values")
            return CoeffVector(y, self.data), 0.0
        if y.shape[0] != self._u_range.shape[0]:
            raise ValueError("ambient data length does not match matrix rows")
        y, e = _pow2_scaled(y)
        coeffs = self._u_range.T @ y
        # explicit residual: a difference of squared norms would lose half
        # the significant digits to cancellation
        off = float(np.linalg.norm(y - self._u_range @ coeffs))
        return CoeffVector(np.ldexp(coeffs, e), self.data), math.ldexp(off, e)

    def ambient_from_data(self, y: CoeffVector) -> np.ndarray:
        self._require_dense()
        _require_same_frame(y.frame, self.data)
        return self._u_range @ y.coeffs

    def ambient_from_domain(self, u: CoeffVector) -> np.ndarray:
        self._require_dense()
        _require_same_frame(u.frame, self.domain)
        return self._vt_range.T @ u.coeffs

    def domain_from_ambient(self, x_ambient) -> CoeffVector:
        self._require_dense()
        x = np.asarray(x_ambient, dtype=float).reshape(-1)
        return CoeffVector(self._vt_range @ x, self.domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SpectralOperator(kind={self.kind!r}, n={self.n}, "
                f"dropped={self.dropped}, truncated={self.truncated})")


# Operations -------------------------------------------------------------------


def apply(op: SpectralOperator, u: CoeffVector) -> CoeffVector:
    """Apply the operator to a domain vector.

    For both kinds the action in the singular bases is multiplication of the
    n-th coefficient by ``sigma_n``; the result lives in the data frame.
    """
    _require_same_frame(u.frame, op.domain)
    return CoeffVector(op.sigma * u.coeffs, op.data)


def power_apply(op: SpectralOperator, r: float, u: CoeffVector) -> CoeffVector:
    """Apply the fractional power of the normal operator, coefficientwise
    multiplication by ``sigma_n**(2 r)``.

    Negative powers are unbounded on dropped null directions, so they are
    rejected for operators that had directions removed.
    """
    _require_same_frame(u.frame, op.domain)
    r = in_interval("r", r, "(-inf, inf)")
    if r < 0.0 and op.dropped > 0:
        raise ValueError("negative power of an operator with dropped null "
                         "directions is unbounded")
    if r == 0.0:
        return u
    return CoeffVector(op.sigma ** (2.0 * r) * u.coeffs, op.domain)


def spectral_projection_norm(op: SpectralOperator, u: CoeffVector,
                             lam: float) -> float:
    """Norm of the low-frequency component of ``u``: the projection onto the
    spectral subspace of the normal operator with spectrum in ``[0, lam]``.

    Non-decreasing and right-continuous in ``lam``; equals ``u.norm()`` once
    ``lam`` reaches the largest squared singular value.
    """
    _require_same_frame(u.frame, op.domain)
    lam = in_interval("lam", lam, "[0, inf)")
    return _norm(u.coeffs[op.lambdas <= lam])


def _spectral_atoms(op: SpectralOperator,
                    mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct squared singular values in increasing order, with the sum of
    ``mass`` (one entry per coordinate) over the coordinates at each, added
    in index order.  The grouping is made afresh on every call."""
    uniq, inverse = np.unique(op.lambdas, return_inverse=True)
    return uniq, np.bincount(inverse, weights=mass, minlength=uniq.size)


def vector_measure(op: SpectralOperator, v: CoeffVector,
                   w: CoeffVector) -> DiscreteMeasure:
    """Discrete spectral measure pairing two domain vectors.

    Atoms sit at the squared singular values with masses ``v_n * w_n``;
    coinciding atom locations are merged and exact-zero masses dropped.
    The total mass equals the inner product of ``v`` and ``w``.
    """
    _require_same_frame(v.frame, op.domain)
    _require_same_frame(w.frame, op.domain)
    lam, mass = _spectral_atoms(op, v.coeffs * w.coeffs)
    keep = mass != 0.0
    return DiscreteMeasure(lam[keep], mass[keep])
