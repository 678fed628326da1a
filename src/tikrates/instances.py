"""Named problem instances: the three explicit diagonal examples with their
documented verdicts, plus synthetic well-posed and random instances.

Expected verdicts are data, not assertions, so a conformance run can print
claim-versus-computed tables and CI can gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditions as cond
from ._domain import in_interval
from .operators import CoeffVector, SpectralOperator

INSTANCE_NAMES = ("counter26", "harmonic4", "remark_nu_gap", "identity",
                  "finite_rank", "random_diag")


@dataclass(frozen=True)
class NamedInstance:
    name: str
    op: SpectralOperator
    y: CoeffVector
    u_dagger: CoeffVector
    expected: dict
    n: int


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def build(name: str, n: int = 60, seed: int = 0) -> NamedInstance:
    """Construct a named instance at truncation ``n``.

    counter26      geometric spectrum sigma_n = 2**-n with solution 2**(-n/2);
                   smoothness certified strictly below 1/2 and refuted at 1/2,
                   homogeneous inequality certified at 1/2.
    harmonic4      sigma_n = n**-1/2 with solution 1/n; spectral tail of
                   order 1 but the inhomogeneous inequality fails at mu = 1.
    remark_nu_gap  sigma_n = n**-2 2**-n with the counter26 solution;
                   smoothness certified below 1/2 yet the homogeneous
                   inequality at 1/2 is defeated by basis vectors.
    identity       unit spectrum, well-posed; everything certifies.
    finite_rank    exact dense rank-deficient operator, spectrum bounded
                   away from zero.
    random_diag    seeded geometric spectrum with a solution built from a
                   decaying source element.
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    idx = np.arange(1, n + 1, dtype=float)
    C, R = cond.CERTIFIED, cond.REFUTED_AT_N

    if name == "counter26":
        op = SpectralOperator.diagonal(2.0 ** -idx, note="counter26 section")
        d = 2.0 ** (-idx / 2.0)
        y = 2.0 ** (-1.5 * idx)
        expected = {(cond.STANDARD_SC, 0.5): R,
                    (cond.STANDARD_SC, 0.45): C,
                    (cond.STANDARD_SC, 0.4): C,
                    (cond.STANDARD_SC, 0.3): C,
                    (cond.HVI, 0.5): C,
                    (cond.SPECTRAL_TAIL, 0.5): C}
    elif name == "harmonic4":
        op = SpectralOperator.diagonal(idx ** -0.5, note="harmonic4 section")
        d = 1.0 / idx
        y = idx ** -1.5
        expected = {(cond.SPECTRAL_TAIL, 1.0): C,
                    (cond.IVI, 1.0): R}
    elif name == "remark_nu_gap":
        op = SpectralOperator.diagonal(idx ** -2.0 * 2.0 ** -idx,
                                       note="remark_nu_gap section")
        d = 2.0 ** (-idx / 2.0)
        y = idx ** -2.0 * 2.0 ** (-1.5 * idx)
        expected = {(cond.STANDARD_SC, 0.45): C,
                    (cond.STANDARD_SC, 0.4): C,
                    (cond.STANDARD_SC, 0.3): C,
                    (cond.HVI, 0.5): R}
    elif name == "identity":
        op = SpectralOperator.diagonal(np.ones(n), truncated=False,
                                       note="identity, well-posed")
        d = 2.0 ** (-idx / 2.0)
        y = d.copy()
        expected = {(cond.STANDARD_SC, p): C for p in (0.5, 1.0, 1.5, 2.0)}
        expected.update({(cond.HVI, p): C for p in (0.25, 0.5, 0.75, 1.0)})
        expected.update({(cond.SVI, p): C for p in (0.5, 1.0, 1.5, 2.0)})
        expected.update({(cond.SPECTRAL_TAIL, p): C for p in (0.5, 1.0, 1.5)})
        expected.update({(cond.IVI, 2.0 / 3.0): C, (cond.IVI, 1.0): C})
    elif name == "finite_rank":
        rng = np.random.default_rng(seed)
        k = max(3, n // 4)
        sig = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
        u_mat = _orthogonal(rng, n)[:, :k]
        v_mat = _orthogonal(rng, n)[:, :k]
        op = SpectralOperator.from_matrix(u_mat @ (sig[:, None] * v_mat.T),
                                          note="finite_rank instance")
        d = rng.uniform(0.3, 1.0, op.n) * rng.choice([-1.0, 1.0], op.n)
        y = op.sigma * d
        expected = {(cond.STANDARD_SC, 0.5): C,
                    (cond.STANDARD_SC, 1.0): C,
                    (cond.SVI, 2.0): C,
                    (cond.IVI, 1.0): C}
    elif name == "random_diag":
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.5, 0.85)
        nu0 = rng.uniform(0.3, 1.0)
        sig = rng.uniform(0.5, 2.0) * q ** idx
        op = SpectralOperator.diagonal(sig, note=f"random_diag seed={seed}")
        r = rng.uniform(0.6, 0.9)
        omega = r ** idx * rng.uniform(0.4, 1.0, n) * rng.choice([-1.0, 1.0], n)
        d = sig ** nu0 * omega
        y = sig * d
        expected = {(cond.STANDARD_SC, round(nu0, 6)): C,
                    (cond.HVI, round(min(nu0, 1.0), 6)): C,
                    (cond.SPECTRAL_TAIL, round(nu0, 6)): C}
    else:
        raise ValueError(f"unknown instance {name!r}; "
                         f"choose from {INSTANCE_NAMES}")
    return NamedInstance(name=name, op=op,
                         y=op.data_vector(y) if op.kind == "dense"
                         else op.vector(y),
                         u_dagger=op.vector(d),
                         expected=expected, n=n)


def derive_ivi_constants(inst: NamedInstance, mu: float, *,
                         seed: int = 0) -> tuple[float, float]:
    """Constants for an inhomogeneous check, derived through the certificate
    chain when available and falling back to fixed generic values."""
    mu = in_interval("mu", mu, "(0, 1]")
    nu = mu / (2.0 - mu)
    rep = cond.check_hvi(inst.op, inst.u_dagger, nu, seed=seed)
    if rep.verdict == cond.CERTIFIED:
        _, beta, gamma = cond.ivi_from_hvi_report(rep)
        return beta, gamma
    return 4.0 * (1.0 + inst.u_dagger.norm()), 0.0 if mu == 1.0 else 0.5


def _check_ivi(inst: NamedInstance, mu: float, seed: int, beta=None,
               gamma=None):
    if beta is None or gamma is None:
        dbeta, dgamma = derive_ivi_constants(inst, mu, seed=seed)
        beta = dbeta if beta is None else beta
        gamma = dgamma if gamma is None else gamma
    return cond.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma, seed=seed)


#: Condition name -> check call ``(inst, param, seed, beta=None, gamma=None)``.
#: Only ivi reads ``beta`` and ``gamma``; it derives the missing ones through
#: :func:`derive_ivi_constants`.
CHECKS = {
    cond.STANDARD_SC: lambda inst, nu, seed, **_:
        cond.check_standard_sc(inst.op, inst.u_dagger, nu),
    cond.HVI: lambda inst, nu, seed, **_:
        cond.check_hvi(inst.op, inst.u_dagger, nu, seed=seed),
    cond.SVI: lambda inst, nu, seed, **_:
        cond.check_svi(inst.op, inst.u_dagger, nu, seed=seed),
    cond.SPECTRAL_TAIL: lambda inst, nu, seed, **_:
        cond.check_spectral_tail(inst.op, inst.u_dagger, nu),
    cond.IVI: _check_ivi,
}


def run_battery(inst: NamedInstance, *, seed: int = 0) -> list[dict]:
    """Run every expected (condition, parameter) check of an instance.

    Returns one row per check with the computed report and a match flag.
    """
    rows = []
    for (condition, param), want in sorted(inst.expected.items()):
        rep = CHECKS[condition](inst, param, seed)
        rows.append({"instance": inst.name, "condition": condition,
                     "parameter": param, "expected": want,
                     "computed": rep.verdict, "match": rep.verdict == want,
                     "report": rep})
    return rows
