"""Named problem instances: the three explicit diagonal examples with their
documented verdicts, plus synthetic well-posed and random instances.

Expected verdicts are data, not assertions, so a conformance run can print
claim-versus-computed tables and CI can gate on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conditions as cond
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


def _orthogonal(rng, n: int, k: int) -> np.ndarray:
    # Haar-distributed k columns: the sign-fixed thin QR of n x k normals
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
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
    finite_rank    dense n x n operator of rank k = max(3, n // 4), spectrum
                   in [0.5, 2]; keeps the sign-fixed QR factors of n x k
                   normals as U and V (no SVD) and forms the matrix on read.
    random_diag    seeded geometric spectrum with a solution built from a
                   decaying source element.
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    idx = np.arange(1, n + 1, dtype=float)
    C, R = cond.CERTIFIED, cond.REFUTED_AT_N

    if name == "counter26":
        op = SpectralOperator.diagonal(np.exp2(-idx))
        d = np.exp2(-idx / 2.0)
        y = np.exp2(-1.5 * idx)
        expected = {(cond.STANDARD_SC, 0.5): R,
                    (cond.STANDARD_SC, 0.45): C,
                    (cond.STANDARD_SC, 0.4): C,
                    (cond.STANDARD_SC, 0.3): C,
                    (cond.HVI, 0.5): C,
                    (cond.SPECTRAL_TAIL, 0.5): C}
    elif name == "harmonic4":
        op = SpectralOperator.diagonal(idx ** -0.5)
        d = 1.0 / idx
        y = idx ** -1.5
        expected = {(cond.SPECTRAL_TAIL, 1.0): C,
                    (cond.IVI, 1.0): R}
    elif name == "remark_nu_gap":
        op = SpectralOperator.diagonal(idx ** -2.0 * np.exp2(-idx))
        d = np.exp2(-idx / 2.0)
        y = idx ** -2.0 * np.exp2(-1.5 * idx)
        expected = {(cond.STANDARD_SC, 0.45): C,
                    (cond.STANDARD_SC, 0.4): C,
                    (cond.STANDARD_SC, 0.3): C,
                    (cond.HVI, 0.5): R}
    elif name == "identity":
        op = SpectralOperator.diagonal(np.ones(n), truncated=False)
        d = np.exp2(-idx / 2.0)
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
        u_mat = _orthogonal(rng, n, k)
        v_mat = _orthogonal(rng, n, k)
        op = SpectralOperator._dense(None, u_mat, sig, v_mat.T)
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
        op = SpectralOperator.diagonal(sig)
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
    return NamedInstance(name=name, op=op, y=op.data_vector(y),
                         u_dagger=op.vector(d), expected=expected)


def derive_ivi_constants(inst: NamedInstance,
                         mu: float) -> tuple[float, float]:
    """Constants for an inhomogeneous check, as :func:`conditions.check_ivi`
    derives them through the certificate chain."""
    rep = cond.check_ivi(inst.op, inst.u_dagger, mu)
    return rep.constants["beta"], rep.constants["gamma"]


#: Condition name -> check call ``(inst, param)``.  Only the ivi call also
#: takes ``beta`` and ``gamma``; :func:`conditions.check_ivi` derives the
#: ones left ``None``.
CHECKS = {
    cond.STANDARD_SC: lambda inst, nu:
        cond.check_standard_sc(inst.op, inst.u_dagger, nu),
    cond.HVI: lambda inst, nu: cond.check_hvi(inst.op, inst.u_dagger, nu),
    cond.SVI: lambda inst, nu: cond.check_svi(inst.op, inst.u_dagger, nu),
    cond.SPECTRAL_TAIL: lambda inst, nu:
        cond.check_spectral_tail(inst.op, inst.u_dagger, nu),
    cond.IVI: lambda inst, mu, beta=None, gamma=None:
        cond.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma),
}


def run_battery(inst: NamedInstance) -> list[dict]:
    """Run every expected (condition, parameter) check of an instance.

    Returns one row per check with the computed report and a match flag.
    """
    rows = []
    for (condition, param), want in sorted(inst.expected.items()):
        rep = CHECKS[condition](inst, param)
        rows.append({"instance": inst.name, "condition": condition,
                     "parameter": param, "expected": want,
                     "computed": rep.verdict, "match": rep.verdict == want,
                     "report": rep})
    return rows
