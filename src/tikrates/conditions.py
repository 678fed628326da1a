"""Source-condition checks for the minimum-norm solution of a spectral
operator equation, and the conversions between their certificates.

Five conditions are covered:

``standard_sc``
    range-type smoothness: the solution lies in the range of the normal
    operator raised to ``nu / 2``;
``hvi``
    homogeneous variational inequality
    ``2 <u+, u>  <=  beta ||L u||**nu ||u||**(1 - nu)``;
``ivi``
    inhomogeneous variational inequality
    ``2 <u+, u>  <=  beta ||L u||**mu + gamma ||u||**2``;
``svi``
    symmetrized variational inequality
    ``2 <u+, u>  <=  beta ||L*L u||**(nu/2) ||u||**(1 - nu/2)``;
``spectral_tail``
    low-frequency mass decay ``||E_[0,lam] u+||**2 <= C**2 lam**nu``.

Verdicts are relative to the stored truncation: ``Certified`` means the
defining inequality holds with the reported constants on the retained
coordinates (for the variational conditions this is backed by rigorous
upper-bound constructions, not just sampling), ``RefutedAtN`` means an
explicit witness family defeats every constant under a divergence proxy,
and ``Inconclusive`` is the honest default when a finite section cannot
distinguish slow convergence from divergence.

Constant conventions.  The homogeneous and symmetrized checks report
``beta`` for the pairing form ``<u+, u> <= beta * Phi(u)``; the doubled form
of the defining inequality uses twice that value.  The converters
(:func:`ssc_to_hvi_certificate`, :func:`hvi_to_ivi_certificate`,
:func:`scr_to_vi_certificate`) operate in the doubled convention, so a
pairing-form ``beta`` must be doubled first; :func:`ivi_from_hvi_report`
does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._domain import in_interval
from ._fitting import ls_line
from .operators import (CoeffVector, SpectralOperator, _require_same_frame,
                        _spectral_atoms)

CERTIFIED = "Certified"
REFUTED_AT_N = "RefutedAtN"
INCONCLUSIVE = "Inconclusive"

STANDARD_SC = "standard_sc"
HVI = "hvi"
IVI = "ivi"
SVI = "svi"
SPECTRAL_TAIL = "spectral_tail"

# Classifier thresholds.  GROWTH_SLOPE is the log-log divergence proxy used
# throughout; the term-decay constants separate geometrically decaying tails
# from flat and power-law ones at desk-scale truncations.
GROWTH_SLOPE = 0.05
FLAT_SUM_FRAC = 0.05
GEO_TERM_SLOPE = -0.02
POWER_FIT_RESID = 0.02
POWER_DIVERGENT = -1.02
POWER_CONVERGENT = -1.15
TAIL_SLOPE_TOL = 0.05
REL_SLACK = 1e-9
_MIN_FIT_POINTS = 5

DEFAULT_RANDOM_PROBES = 1000


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check at one parameter.

    ``constants`` holds the certificate (keys among ``beta``, ``beta_lower``,
    ``gamma``, ``C``, ``omega_norm``, plus per-check extras), ``diagnostics``
    the series backing the verdict as (index or lambda, value) pairs, and
    ``witness`` a description of the extremal probe.
    """

    condition: str
    parameter: float
    verdict: str
    constants: dict
    diagnostics: list
    truncation: int
    witness: dict | None = None
    notes: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "parameter": self.parameter,
            "verdict": self.verdict,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "diagnostics": [[float(a), float(b)] for a, b in self.diagnostics],
            "truncation": self.truncation,
            "witness": self.witness,
            "notes": list(self.notes),
        }


# Certificate conversions --------------------------------------------------


def ssc_to_hvi_certificate(omega_norm: float) -> float:
    """Doubled-form homogeneous constant implied by a range certificate with
    source element norm ``omega_norm``: ``beta = 2 * omega_norm``."""
    return 2.0 * in_interval("omega_norm", omega_norm, "[0, inf)")


def hvi_to_ivi_certificate(beta: float, nu: float) -> tuple[float, float, float]:
    """Split a doubled-form homogeneous certificate into an inhomogeneous one.

    Returns ``(mu, beta', gamma)`` with ``mu = 2 nu / (1 + nu)``,
    ``beta' = (1 + nu) / 2 * beta**(2 / (1 + nu))`` and
    ``gamma = (1 - nu) / 2``; the split is sharp in the scalar sense.
    """
    beta = in_interval("beta", beta, "[0, inf)")
    nu = in_interval("nu", nu, "(0, 1]")
    mu = 2.0 * nu / (1.0 + nu)
    beta_prime = (1.0 + nu) / 2.0 * beta ** (2.0 / (1.0 + nu))
    gamma = (1.0 - nu) / 2.0
    return mu, beta_prime, gamma


def scr_to_vi_certificate(C: float, nu: float, rho: float) -> float:
    """Doubled-form variational constant implied by a spectral tail of order
    ``nu`` with constant ``C``: ``4 C / (1 - nu/rho)**(nu / (2 rho))``.

    ``rho = 1`` certifies the homogeneous inequality, ``rho = 2`` the
    symmetrized one; ``rho`` must exceed ``nu``.
    """
    C = in_interval("C", C, "[0, inf)")
    nu = in_interval("nu", nu, "(-inf, inf)")
    rho = in_interval("rho", rho, "(-inf, inf)")
    if rho <= nu:
        raise ValueError("rho must exceed nu")
    return 4.0 * C / (1.0 - nu / rho) ** (nu / (2.0 * rho))


def ivi_from_hvi_report(report: ConditionReport) -> tuple[float, float, float]:
    """Inhomogeneous certificate from a certified homogeneous report.

    Doubles the pairing-form ``beta`` into the doubled convention before
    applying :func:`hvi_to_ivi_certificate`.
    """
    if report.condition != HVI or report.verdict != CERTIFIED:
        raise ValueError("need a certified homogeneous-inequality report")
    return hvi_to_ivi_certificate(2.0 * report.constants["beta"], report.parameter)


# Probe families ------------------------------------------------------------


class _Family:
    """Component arrays of one probe family, indexed by a deterministic
    integer sequence (basis index, head length, window start, ...).

    ``ip`` is the pairing with the solution, ``nrm`` the vector norm and
    ``pnm`` the norm after the rho-power of the normal operator.
    """

    __slots__ = ("label", "index", "ip", "nrm", "pnm", "ordered")

    def __init__(self, label, index, ip, nrm, pnm, ordered):
        self.label = label
        self.index = np.asarray(index)
        self.ip = np.asarray(ip, dtype=float)
        self.nrm = np.asarray(nrm, dtype=float)
        self.pnm = np.asarray(pnm, dtype=float)
        self.ordered = ordered


def _cum_family(label, weights, d, wpow, m_index) -> _Family:
    """Family of truncated weighted sums u_m = sum_{n <= m} w_n phi_n."""
    ip = np.cumsum(d * weights)
    nrm = np.sqrt(np.cumsum(weights ** 2))
    pnm = np.sqrt(np.cumsum(wpow * weights ** 2))
    return _Family(label, m_index, ip, nrm, pnm, ordered=True)


# Inverse weights of deep spectra overflow; the probe scans zero every
# non-finite ratio, so the floating-point warnings carry no information.
@np.errstate(over="ignore", invalid="ignore")
def probe_families(op: SpectralOperator, u_dagger: CoeffVector, rho: float,
                   *, seed: int = 0,
                   n_random: int = DEFAULT_RANDOM_PROBES) -> list[_Family]:
    """Deterministic structured probes plus seeded random vectors.

    The structured families are the ones on which refutations are achieved:
    single basis directions, truncated copies of the solution (plain and
    reweighted by powers of the singular values), flat averaging heads, and
    sliding windows of the inverse-weighted profile.
    """
    _require_same_frame(u_dagger.frame, op.domain)
    d = u_dagger.coeffs
    sig = op.sigma
    n = op.n
    m_index = np.arange(1, n + 1)
    wpow = sig ** (2.0 * rho)

    fams = [
        _Family("basis", m_index, d, np.ones(n), sig ** rho, ordered=True),
        _cum_family("head", d, d, wpow, m_index),
        _cum_family("head_flat", np.sign(d), d, wpow, m_index),
    ]
    w_inv = d / np.where(sig > 0, sig ** rho, 1.0)
    if np.all(np.isfinite(w_inv)):
        fams.append(_cum_family("head_inv_weight", w_inv, d, wpow, m_index))
        for width in (4, 8, 16):
            if n > width:
                sq = w_inv ** 2
                ip = _window_sums(d * w_inv, width)
                nrm = np.sqrt(_window_sums(sq, width))
                pnm = np.sqrt(_window_sums(wpow * sq, width))
                fams.append(_Family(f"window{width}_inv_weight",
                                    np.arange(1, n - width + 2),
                                    ip, nrm, pnm, ordered=True))
    fams.append(_cum_family("head_fwd_weight", d * sig ** rho, d, wpow, m_index))
    # suffix copies of the solution
    ip = np.cumsum((d * d)[::-1])[::-1]
    nrm = np.sqrt(ip)
    pnm = np.sqrt(np.cumsum((wpow * d * d)[::-1])[::-1])
    fams.append(_Family("tail", m_index, ip, nrm, pnm, ordered=True))

    if n_random > 0:
        rng = np.random.default_rng(seed)
        ips, nrms, pnms = [], [], []
        sign = np.sign(d)
        for start in range(0, n_random, 256):
            block = min(256, n_random - start)
            x = rng.standard_normal((block, n))
            half = block // 2
            x[half:] = np.abs(x[half:]) * sign  # sign-aligned half probes
            ips.append(x @ d)
            nrms.append(np.linalg.norm(x, axis=1))
            pnms.append(np.sqrt((x ** 2) @ wpow))
        fams.append(_Family("random", np.arange(n_random),
                            np.concatenate(ips), np.concatenate(nrms),
                            np.concatenate(pnms), ordered=False))
    return fams


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    # direct sliding sums; a cumsum difference would cancel catastrophically
    # on spectra spanning hundreds of orders of magnitude
    return np.convolve(values, np.ones(width), mode="valid")


def _trace_window(n_points: int) -> int:
    """First index (0-based) of the divergence window: the last two decades,
    skipping the pre-asymptotic head below index 6."""
    return max(6, n_points // 100) - 1


def _divergent(index: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """Divergence proxy: positive, non-decreasing values over the trace
    window whose log-log slope reaches ``GROWTH_SLOPE``."""
    lo = _trace_window(len(values))
    idx = np.asarray(index, dtype=float)[lo:]
    val = values[lo:]
    if val.size < _MIN_FIT_POINTS or np.any(val <= 0.0) or not np.all(np.isfinite(val)):
        return False, 0.0
    if np.any(np.diff(val) < -REL_SLACK * val[:-1]):
        return False, 0.0
    if val[-1] <= val[0] * (1.0 + REL_SLACK):
        return False, 0.0
    slope, _, _ = ls_line(np.log(idx), np.log(val))
    return slope >= GROWTH_SLOPE, slope


def _decimate(xs, ys, cap: int = 160) -> list:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size <= cap:
        return list(zip(xs.tolist(), ys.tolist()))
    pick = np.unique(np.geomspace(1, xs.size, cap).astype(int) - 1)
    return list(zip(xs[pick].tolist(), ys[pick].tolist()))


# Range-type smoothness ------------------------------------------------------


def check_standard_sc(op: SpectralOperator, u_dagger: CoeffVector,
                      nu: float) -> ConditionReport:
    """Classify membership of the solution in the range of the normal
    operator to the power ``nu / 2`` from the growth of the partial sums
    ``S_m = sum_{n <= m} sigma_n**(-2 nu) u_n**2``.

    On an exact finite operator the membership is unconditional and the
    certificate norm is ``sqrt(S_N)``.  On a truncated section the tail
    terms are classified: geometric decay certifies, flat or growing terms
    and power-law tails with exponent at or above -1 refute, borderline
    tails stay inconclusive.
    """
    nu = in_interval("nu", nu, "(0, 2]")
    _require_same_frame(u_dagger.frame, op.domain)
    d = u_dagger.coeffs
    n = op.n
    terms = d ** 2 * op.sigma ** (-2.0 * nu)
    partial = np.cumsum(terms)
    total = float(partial[-1])
    m_index = np.arange(1, n + 1)
    diag = _decimate(m_index, partial)

    def report(verdict, constants, witness=None, notes=()):
        return ConditionReport(STANDARD_SC, nu, verdict, constants, diag,
                               n, witness, tuple(notes))

    if total == 0.0:
        return report(CERTIFIED, {"omega_norm": 0.0})
    omega = float(np.sqrt(total))
    if not op.truncated:
        return report(CERTIFIED, {"omega_norm": omega},
                      notes=("exact finite operator: range membership is "
                             "unconditional",))

    lo_dec = max(1, -(-n // 10))  # ceil(n / 10), start of the last decade
    tail_frac = float((total - partial[lo_dec - 1]) / total)
    if tail_frac <= FLAT_SUM_FRAC:
        return report(CERTIFIED, {"omega_norm": omega,
                                  "tail_fraction": tail_frac})

    w0 = max(0, n // 2 - 1)
    t_w = terms[w0:]
    n_w = m_index[w0:].astype(float)
    pos = t_w > 0.0
    if np.count_nonzero(pos) < _MIN_FIT_POINTS:
        residual = float(t_w.sum())
        if residual <= 1e-12 * total:
            return report(CERTIFIED, {"omega_norm": omega})
        return report(INCONCLUSIVE, {"omega_norm_partial": omega},
                      notes=("too few positive tail terms to classify",))

    log_t = np.log(t_w[pos])
    geo_slope, _, _ = ls_line(n_w[pos], log_t)
    pow_slope, _, pow_resid = ls_line(np.log(n_w[pos]), log_t)
    s_slope, _, _ = ls_line(np.log(m_index[lo_dec - 1:].astype(float)),
                            np.log(partial[lo_dec - 1:]))
    strictly_growing = bool(np.all(np.diff(partial[lo_dec - 1:]) > 0.0))

    fit_stats = {"term_slope": geo_slope, "power_exponent": pow_slope,
                 "power_resid": pow_resid, "sum_slope": s_slope}
    if geo_slope >= -1e-3 and strictly_growing and s_slope >= GROWTH_SLOPE:
        return report(REFUTED_AT_N, {"omega_norm_partial": omega, **fit_stats},
                      witness={"kind": "partial_sums", "S_N": total,
                               "sum_slope": s_slope})
    if pow_resid <= POWER_FIT_RESID:
        if pow_slope >= POWER_DIVERGENT and strictly_growing:
            return report(REFUTED_AT_N, {"omega_norm_partial": omega, **fit_stats},
                          witness={"kind": "power_law_terms",
                                   "exponent": pow_slope})
        if pow_slope <= POWER_CONVERGENT:
            tail_bound = float(t_w[pos][-1] * n / max(-pow_slope - 1.0, 1e-12))
            return report(CERTIFIED, {"omega_norm": omega,
                                      "tail_estimate": tail_bound, **fit_stats})
        return report(INCONCLUSIVE, {"omega_norm_partial": omega, **fit_stats},
                      notes=("power-law tail too close to the divergence "
                             "boundary at this truncation",))
    if geo_slope <= GEO_TERM_SLOPE:
        r = float(np.exp(geo_slope))
        tail_bound = float(t_w[pos][-1] * r / (1.0 - r)) if r < 1.0 else np.inf
        return report(CERTIFIED, {"omega_norm": omega,
                                  "tail_estimate": tail_bound, **fit_stats})
    if s_slope < GROWTH_SLOPE:
        return report(CERTIFIED, {"omega_norm": omega, **fit_stats})
    return report(INCONCLUSIVE, {"omega_norm_partial": omega, **fit_stats},
                  notes=("tail growth neither clearly bounded nor clearly "
                         "divergent at this truncation",))


# Spectral tail --------------------------------------------------------------


def check_spectral_tail(op: SpectralOperator, u_dagger: CoeffVector,
                        nu: float) -> ConditionReport:
    """Check the low-frequency mass decay of the solution.

    Evaluates ``T(lam) = ||E_[0,lam] u+||**2`` at every distinct squared
    singular value; the supremum of ``T / lam**nu`` over all lambda is
    attained on those atoms.  Certification additionally requires the decay
    exponent of ``T`` over the smallest spectral decades to reach ``nu``
    within tolerance, so that the constant is stable under deeper truncation.
    """
    nu = in_interval("nu", nu, "(0, 2)")
    _require_same_frame(u_dagger.frame, op.domain)
    lam_u, mass = _spectral_atoms(op, u_dagger.coeffs ** 2)
    t_cum = np.cumsum(mass)
    n = op.n
    diag = _decimate(lam_u, t_cum)

    def report(verdict, constants, witness=None, notes=()):
        return ConditionReport(SPECTRAL_TAIL, nu, verdict, constants, diag,
                               n, witness, tuple(notes))

    if t_cum[-1] == 0.0:
        return report(CERTIFIED, {"C": 0.0})
    ratios = t_cum / lam_u ** nu
    c_hat = float(ratios.max())
    c_const = float(np.sqrt(c_hat))
    k_max = int(np.argmax(ratios))
    witness = {"lambda": float(lam_u[k_max]), "ratio": c_hat}

    if not op.truncated:
        return report(CERTIFIED, {"C": c_const},
                      witness=witness,
                      notes=("exact finite operator: mass vanishes below the "
                             "smallest squared singular value",))

    pos = t_cum > 0.0
    if not np.any(pos[: max(1, len(lam_u) // 2)]):
        # support gap: no low-frequency mass at all in the lower half
        return report(CERTIFIED, {"C": c_const}, witness=witness,
                      notes=("solution mass vanishes on the lower spectrum",))

    lam_pos, t_pos = lam_u[pos], t_cum[pos]
    in_win = lam_pos <= 100.0 * lam_pos[0]
    if np.count_nonzero(in_win) < 4:
        in_win = np.zeros(lam_pos.size, dtype=bool)
        in_win[: min(4, lam_pos.size)] = True
    lw, tw = lam_pos[in_win], t_pos[in_win]
    if lw.size < 2:
        return report(INCONCLUSIVE, {"C_hat": c_hat},
                      notes=("not enough distinct low atoms to fit a decay "
                             "exponent",))
    slope_t, _, _ = ls_line(np.log(lw), np.log(tw))
    ratio_w = tw / lw ** nu
    growing_down = bool(np.all(np.diff(ratio_w) <= ratio_w[1:] * REL_SLACK)
                        and ratio_w[0] > ratio_w[-1] * (1.0 + REL_SLACK))
    constants = {"C": c_const, "tail_exponent": slope_t}
    if slope_t >= nu - TAIL_SLOPE_TOL:
        return report(CERTIFIED, constants, witness=witness)
    if growing_down and (slope_t - nu) <= -GROWTH_SLOPE:
        return report(REFUTED_AT_N,
                      {"C_hat": c_hat, "tail_exponent": slope_t},
                      witness=witness,
                      notes=("mass ratio grows toward the low spectrum",))
    return report(INCONCLUSIVE, {"C_hat": c_hat, "tail_exponent": slope_t},
                  witness=witness)


# Homogeneous / symmetrized variational inequalities -------------------------


def _split_upper_bound(op, d, nu, rho):
    """Rigorous pairing-form constant from the half-mass split applied to
    the coefficient sums: ``2 * max_k G_k**(nu/(2 rho)) * T_k**((1-nu/rho)/2)``
    with ``G`` the inverse-weighted mass above an atom and ``T`` the plain
    mass at or below it.  Returns the bound and its per-depth trace.
    """
    lam = op.lambdas
    order = np.argsort(lam, kind="stable")
    lam_s = lam[order]
    d2 = (d ** 2)[order]
    with np.errstate(over="ignore"):
        g_terms = d2 * lam_s ** (-rho)
    t_cum = np.cumsum(d2)
    g_cum = np.cumsum(g_terms[::-1])[::-1]
    with np.errstate(invalid="ignore"):
        h = 2.0 * g_cum ** (nu / (2.0 * rho)) * t_cum ** ((1.0 - nu / rho) / 2.0)
    h = np.where(np.isfinite(h), h, np.inf)
    # depth order: largest lambda first, deeper truncation to the right
    return h[::-1]


def _check_pairing_vi(op, u_dagger, nu, rho, condition, seed, n_random):
    _require_same_frame(u_dagger.frame, op.domain)
    d = u_dagger.coeffs
    n = op.n
    if not np.any(d):
        return ConditionReport(condition, nu, CERTIFIED,
                               {"beta": 0.0, "beta_lower": 0.0}, [], n)

    expo = nu / rho
    fams = probe_families(op, u_dagger, rho, seed=seed, n_random=n_random)
    beta_lower = 0.0
    lower_witness = None
    for fam in fams:
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = fam.pnm ** expo * fam.nrm ** (1.0 - expo)
            ratios = np.where(denom > 0.0, fam.ip / denom, 0.0)
        ratios = np.where(np.isfinite(ratios), ratios, 0.0)
        k = int(np.argmax(ratios))
        if ratios[k] > beta_lower:
            beta_lower = float(ratios[k])
            lower_witness = {"family": fam.label, "index": int(fam.index[k]),
                             "ratio": float(ratios[k])}
        # trace growth only signifies divergence on a truncated section;
        # an exact finite problem always has a finite supremum
        if fam.ordered and op.truncated:
            div, slope = _divergent(fam.index, ratios)
            if div:
                trace = _decimate(fam.index, ratios)
                return ConditionReport(
                    condition, nu, REFUTED_AT_N,
                    {"beta_lower": beta_lower, "trace_slope": slope},
                    trace, n,
                    witness={"family": fam.label, "index": int(fam.index[k]),
                             "ratio": float(ratios[k]),
                             "ip": float(fam.ip[k]), "norm": float(fam.nrm[k]),
                             "pnorm": float(fam.pnm[k])},
                    notes=("witness ratios grow without bound along the "
                           f"family {fam.label!r}",))

    candidates = {}
    h = _split_upper_bound(op, d, nu, rho)
    beta_direct = float(np.max(h))
    if np.isfinite(beta_direct):
        if not op.truncated:
            candidates["beta_direct"] = beta_direct
        else:
            run_max = np.maximum.accumulate(h)
            lo = _trace_window(n)
            depth = np.arange(1, n + 1, dtype=float)[lo:]
            vals = run_max[lo:]
            if vals.size >= 2 and vals[0] > 0.0:
                slope, _, _ = ls_line(np.log(depth), np.log(vals))
                if slope < GROWTH_SLOPE:
                    candidates["beta_direct"] = beta_direct

    tail_c = None
    if nu < min(rho, 2.0) and 0.0 < nu:
        tail_rep = check_spectral_tail(op, u_dagger, nu)
        if tail_rep.verdict == CERTIFIED:
            tail_c = tail_rep.constants["C"]
            candidates["beta_from_tail"] = scr_to_vi_certificate(tail_c, nu, rho)

    diag = _decimate(np.arange(1, n + 1), h)
    if not candidates:
        return ConditionReport(condition, nu, INCONCLUSIVE,
                               {"beta_lower": beta_lower}, diag, n,
                               witness=lower_witness,
                               notes=("no stable upper bound available at "
                                      "this truncation",))
    beta = min(candidates.values())
    if beta < beta_lower * (1.0 - REL_SLACK):
        return ConditionReport(condition, nu, INCONCLUSIVE,
                               {"beta_lower": beta_lower, **candidates},
                               diag, n, witness=lower_witness,
                               notes=("upper bound fell below an observed "
                                      "ratio; numerical inconsistency",))
    constants = {"beta": float(beta), "beta_lower": beta_lower, **candidates}
    if tail_c is not None:
        constants["tail_C"] = float(tail_c)
    return ConditionReport(condition, nu, CERTIFIED, constants, diag, n,
                           witness=lower_witness)


def check_hvi(op: SpectralOperator, u_dagger: CoeffVector, nu: float, *,
              seed: int = 0,
              n_random: int = DEFAULT_RANDOM_PROBES) -> ConditionReport:
    """Check the homogeneous variational inequality at parameter ``nu``.

    The reported ``beta`` is the pairing-form constant, certified through
    the smaller of the half-mass split bound and the spectral-tail route;
    ``beta_lower`` is the largest ratio observed on the probe families.
    """
    nu = in_interval("nu", nu, "(0, 1]")
    return _check_pairing_vi(op, u_dagger, nu, 1.0, HVI, seed, n_random)


def check_svi(op: SpectralOperator, u_dagger: CoeffVector, nu: float, *,
              seed: int = 0,
              n_random: int = DEFAULT_RANDOM_PROBES) -> ConditionReport:
    """Check the symmetrized variational inequality at parameter ``nu``;
    same conventions as :func:`check_hvi` with the normal operator in place
    of the forward map."""
    nu = in_interval("nu", nu, "(0, 2]")
    return _check_pairing_vi(op, u_dagger, nu, 2.0, SVI, seed, n_random)


# Inhomogeneous variational inequality ---------------------------------------


def _needed_beta(ip, nrm, pnm, mu, gamma):
    """Smallest beta making the inhomogeneous inequality hold on the ray
    through one probe, optimized over the scale in closed form.

    For ``mu = 1`` the supremum sits at vanishing scale and equals
    ``2 ip / ||L u||``; for ``mu < 1`` with positive ``gamma`` the optimum
    is interior; with ``gamma = 0`` and ``mu < 1`` no finite beta works for
    a probe with positive pairing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if mu == 1.0:
            need = 2.0 * ip / pnm
        elif gamma == 0.0:
            need = np.where(ip > 0.0, np.inf, 0.0)
        else:
            t_star = 2.0 * ip * (1.0 - mu) / ((2.0 - mu) * gamma * nrm ** 2)
            val = 2.0 * ip * t_star ** (1.0 - mu) - gamma * nrm ** 2 * t_star ** (2.0 - mu)
            need = val / pnm ** mu
    need = np.where(ip > 0.0, need, 0.0)
    return np.where(np.isnan(need), 0.0, need)


def check_ivi(op: SpectralOperator, u_dagger: CoeffVector, mu: float,
              beta: float, gamma: float, *, seed: int = 0,
              n_random: int = DEFAULT_RANDOM_PROBES) -> ConditionReport:
    """Verify supplied inhomogeneous-inequality constants ``(beta, gamma)``
    in the doubled convention at parameter ``mu``.

    Every probe is swept over all positive scales (in closed form; the
    inequality is not scale-invariant).  The verdict is ``RefutedAtN`` when
    some probe needs a larger beta than supplied, or when the needed beta
    diverges along an ordered family, defeating every constant.
    """
    mu = in_interval("mu", mu, "(0, 1]")
    beta = in_interval("beta", beta, "[0, inf)")
    gamma = in_interval("gamma", gamma, "[0, 1)")
    _require_same_frame(u_dagger.frame, op.domain)
    n = op.n
    if not np.any(u_dagger.coeffs):
        return ConditionReport(IVI, mu, CERTIFIED,
                               {"beta": beta, "gamma": gamma}, [], n)

    fams = probe_families(op, u_dagger, 1.0, seed=seed, n_random=n_random)
    worst_need = 0.0
    worst_witness = None
    worst_trace = []
    for fam in fams:
        need = _needed_beta(fam.ip, fam.nrm, fam.pnm, mu, gamma)
        k = int(np.argmax(need))
        if need[k] > worst_need:
            worst_need = float(need[k])
            worst_witness = {"family": fam.label, "index": int(fam.index[k]),
                             "needed_beta": float(need[k]),
                             "ip": float(fam.ip[k]), "norm": float(fam.nrm[k]),
                             "pnorm": float(fam.pnm[k])}
            worst_trace = _decimate(fam.index, need) if fam.ordered else []
        if fam.ordered and op.truncated:
            div, slope = _divergent(fam.index, need)
            if div:
                return ConditionReport(
                    IVI, mu, REFUTED_AT_N,
                    {"beta": beta, "gamma": gamma,
                     "needed_beta": float(need[k]), "trace_slope": slope},
                    _decimate(fam.index, need), n,
                    witness={"family": fam.label, "index": int(fam.index[k]),
                             "needed_beta": float(need[k]),
                             "ip": float(fam.ip[k]), "norm": float(fam.nrm[k]),
                             "pnorm": float(fam.pnm[k])},
                    notes=("needed beta grows without bound along the family "
                           f"{fam.label!r}; no constants can hold",))
    if worst_need > beta * (1.0 + REL_SLACK) + 1e-12:
        return ConditionReport(IVI, mu, REFUTED_AT_N,
                               {"beta": beta, "gamma": gamma,
                                "needed_beta": worst_need},
                               worst_trace, n, witness=worst_witness)
    return ConditionReport(IVI, mu, CERTIFIED,
                           {"beta": beta, "gamma": gamma,
                            "needed_beta": worst_need},
                           worst_trace, n, witness=worst_witness)
