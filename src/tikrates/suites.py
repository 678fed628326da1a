"""Batch verification suites for the measure-level inequalities; used by the
command line and by the acceptance tests."""

from __future__ import annotations

import numpy as np

from ._domain import check_count
from .measures import (DiscreteMeasure, MeasurePremiseError, _cs_rows,
                       _split_rows, tail_integral_bound)

CS_RHOS = (-1.0, 0.0, 0.5, 1.0, 2.0)

SPLIT_MAX_ATOMS = 6
SPLIT_MAX_MASS = 4


def cs_bound_suite(count: int = 10000, seed: int = 0) -> dict:
    """Random (operator, v, w, rho, window) instances of the Cauchy-Schwarz
    measure bound.  Returns counters and the worst signed margin rhs - lhs.
    The draws go into padded stacks, sorted once, and through the kernel of
    ``cs_measure_bound`` at once; each measure keeps the atoms of non-zero
    mass, as ``operators.vector_measure`` does."""
    check_count("count", count)
    rng = np.random.default_rng(seed)
    size, ab = np.empty(count, dtype=int), np.empty((count, 2))
    sig, vw = np.full((count, 24), np.inf), np.zeros((2, count, 24))
    for i in range(count):
        n = size[i] = rng.integers(3, 25)
        s = sig[i, :n] = rng.uniform(0.3, 1.5, n)
        vw[:, i, :n] = rng.standard_normal(n), rng.standard_normal(n)
        lo, hi = s.min(), s.max()
        ab[i] = ((0.0, hi * hi * 1.1) if rng.random() < 0.5 else
                 np.sort(rng.uniform(lo * lo * 0.9, hi * hi * 1.1, 2)))
    order = np.argsort(sig, axis=1)
    lam = np.take_along_axis(sig, order, axis=1) ** 2
    v, w = np.take_along_axis(vw, order[None], axis=2)
    valid = np.arange(24) < size[:, None]
    if not (np.isfinite(vw).all() and np.isfinite(lam[valid]).all()
            and (lam[:, 1:] > lam[:, :-1])[valid[:, 1:]].all()):
        raise ValueError("atoms must be finite and strictly increasing")
    mass = np.stack([v * v, w * w, v * w])
    lhs, rhs = _cs_rows([(np.where(m != 0.0, lam, np.nan), m) for m in mass],
                        *ab.T, np.resize(CS_RHOS, count))
    margin = rhs - lhs
    return {"instances": count, "violations": int(np.sum(margin < -1e-12)),
            "worst_margin": float(margin.min())}


def tail_bound_suite(count: int = 2000, seed: int = 0) -> dict:
    """Random premise-passing instances of the weighted tail bound.

    The constant is taken as the sharp cumulative-mass envelope of each
    measure (times a random slack), so the premise holds by construction;
    instances drawn with an arbitrary constant that fails the premise are
    counted separately as rejected.
    """
    check_count("count", count)
    rng = np.random.default_rng(seed)
    checked = rejected = violations = 0
    worst_ratio = np.inf
    for _ in range(count):
        n = int(rng.integers(2, 30))
        lam = np.unique(rng.uniform(1e-4, 4.0, n))
        masses = rng.uniform(0.0, 1.0, lam.size) * rng.uniform(0.1, 2.0) \
            * lam ** rng.uniform(0.2, 1.5)
        mu = DiscreteMeasure(lam, masses)
        nu = float(rng.uniform(0.1, 1.5))
        rho = nu + float(rng.uniform(0.1, 2.0))
        envelope = float(np.max(np.cumsum(masses) / lam ** nu))
        if rng.random() < 0.8:
            c = envelope * float(rng.uniform(1.0, 3.0))
        else:
            c = envelope * float(rng.uniform(0.2, 0.999))  # premise should fail
        pick = rng.random()
        if pick < 0.7:
            big = float(lam[rng.integers(0, lam.size)])
        elif pick < 0.85:
            big = float(lam[-1] * rng.uniform(1.1, 3.0))  # beyond the support
        else:
            big = float(lam[0] * rng.uniform(0.5, 1.0))
        try:
            lhs, rhs = tail_integral_bound(mu, nu, rho, c, big)
        except MeasurePremiseError:
            rejected += 1
            continue
        checked += 1
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
        if lhs > 0.0:
            worst_ratio = min(worst_ratio, rhs / lhs)
    return {"instances": count, "premise_passing": checked,
            "premise_rejected": rejected, "violations": violations,
            "worst_rhs_over_lhs": float(worst_ratio)}


def _split_oracle(lambdas, masses):
    """Definition-level scan of each row of ``masses``: smallest atom whose
    from-below variation mass reaches half the total, with interval sums
    taken literally over the masks ``l_j <= l_i`` and ``l_j >= l_i``."""
    av = np.abs(masses)[:, None, :]
    below = np.where(lambdas <= lambdas[:, None], av, 0.0).sum(axis=2)
    above = np.where(lambdas >= lambdas[:, None], av, 0.0).sum(axis=2)
    total = np.abs(masses).sum(axis=1)
    idx = np.argmax(below >= 0.5 * total[:, None], axis=1)
    rows = np.arange(masses.shape[0])
    return lambdas[idx], below[rows, idx], above[rows, idx], total


def split_point_suite() -> dict:
    """Exhaustive half-mass check over all integer-mass measures with up to
    ``SPLIT_MAX_ATOMS`` atoms and masses in 1..``SPLIT_MAX_MASS``, one array
    pass per atom count through the kernel of ``measures.split_point`` and
    against the literal-interval oracle."""
    cases = violations = 0
    for k in range(1, SPLIT_MAX_ATOMS + 1):
        lambdas = np.arange(1.0, k + 1.0)
        masses = np.indices((SPLIT_MAX_MASS,) * k).reshape(k, -1).T + 1.0
        lam, a_lam, b_lam, a_inf = _split_rows(lambdas, masses)
        lam_o, below_o, above_o, total_o = _split_oracle(lambdas, masses)
        ok = ((lam == lam_o)
              & (np.abs(a_lam - below_o) <= 1e-12)
              & (np.abs(b_lam - above_o) <= 1e-12)
              & (a_lam >= 0.5 * a_inf - 1e-12)
              & (b_lam >= 0.5 * a_inf - 1e-12)
              & (np.abs(a_inf - total_o) <= 1e-12))
        cases += masses.shape[0]
        violations += int(np.count_nonzero(~ok))
    return {"cases": cases, "violations": violations}
