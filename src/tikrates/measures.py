"""Discrete measures on the non-negative half line and the bounds used by the
certificate constructions: a Cauchy-Schwarz bound between three spectral
measures, a tail bound for weighted integrals under a mass-growth premise,
and the half-mass split point of the two-sided estimate.

Measures are purely atomic here.  Integrals are finite sums over atoms, so
every bound is evaluated exactly in floating point rather than by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._domain import in_interval

#: Relative slack used when verifying non-strict inequalities in floats.
REL_TOL = 1e-12


class MeasurePremiseError(ValueError):
    """The mass-growth premise of the tail bound fails; carries a witness atom."""

    def __init__(self, message: str, witness_lambda: float):
        super().__init__(message)
        self.witness_lambda = witness_lambda


class DiscreteMeasure:
    """Finite signed measure on [0, inf) given as (location, mass) atoms.

    Locations are strictly increasing and non-negative.  The empty measure
    is allowed.
    """

    __slots__ = ("lambdas", "masses")

    def __init__(self, lambdas, masses):
        lam = np.array(lambdas, dtype=float).reshape(-1)
        m = np.array(masses, dtype=float).reshape(-1)
        if lam.shape != m.shape:
            raise ValueError("locations and masses must have equal length")
        if lam.size:
            if not (np.isfinite(lam).all() and np.isfinite(m).all()):
                raise ValueError("atoms must be finite")
            if lam.min() < 0.0:
                raise ValueError("atom locations must be non-negative")
            if not (lam[1:] > lam[:-1]).all():
                raise ValueError("atom locations must be strictly increasing")
        lam.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "masses", m)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self) -> int:
        return self.lambdas.shape[0]

    def weighted_sum(self, power: float, a: float = 0.0,
                     b: float = np.inf) -> float:
        """Sum of ``mass * lambda**power`` over atoms in [a, b].

        The window needs ``0 <= a <= b`` (``b = inf`` is unbounded); a
        negative power with an atom at zero inside the window is rejected.
        """
        power = in_interval("power", power, "(-inf, inf)")
        if not 0.0 <= a <= b:
            raise ValueError("need 0 <= a <= b")
        mask = (self.lambdas >= a) & (self.lambdas <= b)
        lam, m = self.lambdas[mask], self.masses[mask]
        if power < 0.0 and lam.size and lam[0] == 0.0:
            raise ValueError("negative power with an atom at zero")
        if not lam.size:
            return 0.0
        return float(np.sum(m * lam ** power))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiscreteMeasure(atoms={len(self)})"


@dataclass(frozen=True)
class SplitPoint:
    """Half-mass split of a measure's total variation.

    ``a_lambda`` is the variation mass on [0, Lambda], ``b_lambda`` the mass
    on [Lambda, inf); both are at least half of the total ``a_inf``.
    """

    lam: float
    a_lambda: float
    b_lambda: float
    a_inf: float


def cs_measure_bound(mu_dd: DiscreteMeasure, mu_uu: DiscreteMeasure,
                     mu_du: DiscreteMeasure, a: float, b: float,
                     rho: float) -> tuple[float, float]:
    """Cauchy-Schwarz bound between the three pairing measures of a triple.

    Returns ``(lhs, rhs)`` where ``lhs`` is the total variation of the mixed
    measure on [a, b] and ``rhs`` is the product of the square roots of the
    ``lambda**(-rho)``-weighted mass of ``mu_dd`` and the ``lambda**rho``-
    weighted mass of ``mu_uu`` on the same window.  The bound ``lhs <= rhs``
    holds whenever the measures come from one (operator, v, w) triple.
    """
    rho = in_interval("rho", rho, "(-inf, inf)")
    lhs, rhs = _cs_rows([(mu.lambdas[None], mu.masses[None])
                         for mu in (mu_dd, mu_uu, mu_du)],
                        np.array([a]), np.array([b]), np.array([rho]))
    return float(lhs[0]), float(rhs[0])


def _cs_rows(measures, a, b, rho):
    """:func:`cs_measure_bound` of each row of three ``(lambdas, masses)``
    stacks, NaN marking an empty slot, on windows [a, b].  Rows with equal
    rho and window atom counts are summed together, along rows as in a
    one-row call, with rho a float: ``np.power`` has scalar fast paths."""
    if not np.all((0.0 <= a) & (a <= b)):
        raise ValueError("need 0 <= a <= b")
    keep = [(lam >= a[:, None]) & (lam <= b[:, None]) for lam, _ in measures]
    for (lam, _), k, neg in zip(measures, keep, (rho > 0.0, rho < 0.0)):
        if np.any(neg[:, None] & k & (lam == 0.0)):
            raise ValueError("negative power with an atom at zero")
    groups = np.array([rho] + [k.sum(axis=1) for k in keep]).T
    lhs, wd, wu = np.empty((3, a.size))
    for g in np.unique(groups, axis=0):
        rows = np.flatnonzero((groups == g).all(axis=1))
        (lam_dd, dd), (lam_uu, uu), (_, du) = [
            [x[rows][k[rows]].reshape(rows.size, -1) for x in measure]
            for measure, k in zip(measures, keep)]
        wd[rows] = np.sum(dd * lam_dd ** -float(g[0]), axis=1)
        wu[rows] = np.sum(uu * lam_uu ** float(g[0]), axis=1)
        lhs[rows] = np.sum(np.abs(du), axis=1)
    if np.any(wd < 0.0) or np.any(wu < 0.0):
        raise ValueError("diagonal measures must be non-negative on the window")
    return lhs, np.sqrt(wd) * np.sqrt(wu)


def tail_integral_bound(mu: DiscreteMeasure, nu: float, rho: float, C: float,
                        Lambda: float) -> tuple[float, float]:
    """Bound the ``lambda**(-rho)``-weighted tail mass of a non-negative
    measure whose cumulative mass grows at most like ``C * lambda**nu``.

    Returns ``(lhs, rhs)`` with ``lhs`` the exact tail sum over atoms at or
    above ``Lambda`` and ``rhs = C * rho / (rho - nu) * Lambda**(nu - rho)``;
    the bound asserts ``lhs <= rhs``.

    The premise is verified in the for-every-lambda sense, which for an atomic
    measure reduces to the inclusive cumulative mass at each atom: mass up to
    and including an atom must stay below ``C * lambda**nu`` there, since the
    half-open cumulative jumps past that value immediately above the atom.
    A ``Lambda`` beyond the support is allowed and yields ``(0.0, rhs)``.
    """
    nu = in_interval("nu", nu, "[0, inf)")
    rho = in_interval("rho", rho, "(-inf, inf)")
    if rho <= nu:
        raise ValueError("rho must exceed nu")
    C = in_interval("C", C, "(0, inf)")
    Lambda = in_interval("Lambda", Lambda, "(0, inf)")
    if np.any(mu.masses < 0.0):
        raise ValueError("measure must be non-negative")
    cum = np.cumsum(mu.masses)
    bound = C * mu.lambdas ** nu
    bad = cum > bound * (1.0 + REL_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise MeasurePremiseError(
            f"cumulative mass {cum[i]:.6g} exceeds {bound[i]:.6g} at "
            f"lambda={mu.lambdas[i]:.6g}", float(mu.lambdas[i]))
    lhs = mu.weighted_sum(-rho, Lambda, np.inf)
    rhs = C * rho / (rho - nu) * Lambda ** (nu - rho)
    return lhs, float(rhs)


def _split_rows(lambdas: np.ndarray, masses: np.ndarray):
    """:func:`split_point` of each row of ``masses`` on the atoms ``lambdas``,
    as arrays ``(lam, a_lambda, b_lambda, a_inf)``; sums run in atom order."""
    below = np.cumsum(np.abs(masses), axis=1)
    total = below[:, -1]
    idx = np.argmax(below >= 0.5 * total[:, None], axis=1)
    rows = np.arange(below.shape[0])
    above = total - np.where(idx > 0, below[rows, idx - 1], 0.0)
    return lambdas[idx], below[rows, idx], above, total


def split_point(mu_du: DiscreteMeasure) -> SplitPoint:
    """Smallest atom where the from-below variation mass reaches half the
    total; by minimality the from-above mass at that atom is at least half
    as well.  A zero measure splits vacuously at the first atom.
    """
    if len(mu_du) == 0:
        raise ValueError("measure must have at least one atom")
    row = _split_rows(mu_du.lambdas, mu_du.masses[None, :])
    return SplitPoint(*(float(x[0]) for x in row))
