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
distinguish slow convergence from divergence.  The checks read a truncated
section's index as depth and refuse one whose singular values increase.

The variational checks read deterministic probe families, each with one
job: the extremal t-family ``u+ / (sigma**(2 rho) + t)`` carries every
supremum (``beta_lower`` and the ivi needed beta), and the ordered
structured families carry the refutations through a divergence trace
along depth, which an exact section lacks, so it builds the t-family
alone.  Each family is built on first read and kept, so a scan that
refutes along an early family builds none of the later ones.

Scale.  Every condition is positively homogeneous in the solution, so
each check computes on one copy ``u+ * 2**-e`` only, e the ``math.frexp``
exponent of max|u+|: u+ and ``2**k u+`` share it, and so their verdicts.
Reported values are restored by their degree in u+: the betas, ``tail_C``,
``C``, ``omega_norm``, pairing ratios and a witness's ``ip`` by ``2**e``;
``S_N``, ``tail_estimate``, ``C_hat`` and the partial sums and masses of
ssc and the tail by ``2**(2 e)``; ivi's needed beta by ``2**((2 - mu) e)``;
slopes not at all.  A witness's ``norm`` and ``pnorm`` are those of its
probe built from the copy.  A restored value past the float range reads
inf, but a certificate whose constants leave it refuses the check.

Constant conventions.  The homogeneous and symmetrized checks report
``beta`` for the pairing form ``<u+, u> <= beta * Phi(u)``; the doubled form
of the defining inequality uses twice that value.  The converters
(:func:`ssc_to_hvi_certificate`, :func:`hvi_to_ivi_certificate`,
:func:`scr_to_vi_certificate`) operate in the doubled convention, so a
pairing-form ``beta`` must be doubled first; :func:`ivi_from_hvi_report`
does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._domain import in_interval
from ._fitting import ls_line
from .operators import (CoeffVector, SpectralOperator, _pow2_scaled,
                        _require_same_frame, _spectral_atoms)

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
GEO_TERM_SLOPE = -0.02
POWER_FIT_RESID = 0.02
POWER_DIVERGENT = -1.02
POWER_CONVERGENT = -1.15
TAIL_SLOPE_TOL = 0.05
REL_SLACK = 1e-9
_MIN_FIT_POINTS = 5

#: Log-spaced points of the t-family grid, which spans ``w_min / T_MARGIN``
#: to ``w_max * T_MARGIN`` for the weights ``w = lambda**rho``.
T_GRID_POINTS = 400
T_MARGIN = 1e3
#: Most (index, value) pairs kept in a report's diagnostics series.
DIAGNOSTIC_POINTS = 160


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
    try:
        beta_prime = (1.0 + nu) / 2.0 * beta ** (2.0 / (1.0 + nu))
    except OverflowError:
        raise ValueError("beta' = (1 + nu)/2 beta**(2/(1 + nu)) overflows "
                         "the float range") from None
    gamma = (1.0 - nu) / 2.0
    return mu, beta_prime, gamma


def scr_to_vi_certificate(C: float, nu: float, rho: float) -> float:
    """Doubled-form variational constant implied by a spectral tail of order
    ``nu`` with constant ``C``: ``4 C / (1 - nu/rho)**(nu / (2 rho))``.

    ``rho = 1`` certifies the homogeneous inequality, ``rho = 2`` the
    symmetrized one; ``rho`` must exceed ``nu``.
    """
    C = in_interval("C", C, "[0, inf)")
    nu = in_interval("nu", nu, "(0, inf)")
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
    ``pnm`` the norm after the rho-power of the normal operator.  ``build``
    returns the three; the family calls it on first read and keeps them, so
    a scan that stops early builds no later family.
    """

    __slots__ = ("label", "index", "ordered", "_arrays")

    def __init__(self, label, index, build, *, ordered):
        self.label, self.index, self.ordered = label, index, ordered
        self._arrays = build

    def _read(self, k):
        if callable(self._arrays):
            # the floating-point state that probe_families builds under
            with np.errstate(over="ignore", invalid="ignore"):
                self._arrays = self._arrays()
        return self._arrays[k]

    ip = property(lambda self: self._read(0))
    nrm = property(lambda self: self._read(1))
    pnm = property(lambda self: self._read(2))


def _sum_family(label, index, d, w, wpow, total) -> _Family:
    """Weighted sums ``sum w_n phi_n`` over the prefixes, suffixes or sliding
    windows that ``total`` sums an array over: pairing ``total(d w)``, norm
    ``sqrt(total(w**2))``, rho-power norm ``sqrt(total(wpow w**2))``."""
    def build():
        sq = w ** 2
        ip, nrm, pnm = total(d * w), total(sq), total(wpow * sq)
        # roots in place: builds run mid-scan, while the scan holds scores
        return ip, np.sqrt(nrm, out=nrm), np.sqrt(pnm, out=pnm)
    return _Family(label, index, build, ordered=True)


# Inverse weights of deep spectra overflow; the probe scans zero every
# non-finite ratio, so the floating-point warnings carry no information.
@np.errstate(over="ignore", invalid="ignore")
def probe_families(op: SpectralOperator, u_dagger: CoeffVector, rho: float,
                   *, seed: int = 0) -> list[_Family]:
    """On a truncated section the ordered structured probes, then the
    extremal t-family of :func:`_t_family`; on an exact one the t-family.

    The t-family carries every supremum: the largest pairing ratio and ivi
    needed beta.  Structured families carry the refutations, each some
    verdict no other decides, through a divergence trace along depth:
    basis directions, heads and suffixes of the solution, flat heads, and
    heads and 4-, 8-, 16-wide windows of ``u+ / sigma**rho``.  Each family
    builds its arrays on first read, so a scan that refutes along an early
    family builds none after it.

    Every family is built from the scaled copy of the solution that the
    checks read, and is deterministic.  ``seed`` is accepted and ignored: the
    benchmark's scaling sweep (``perfbench/sweep.py``) still passes it.
    """
    d = _solution(op, u_dagger)[0].coeffs
    t_fam = _Family("t_family", np.arange(T_GRID_POINTS + 2),
                    lambda: _t_family(op, d, rho), ordered=False)
    if not op.truncated:
        return [t_fam]
    sig = op.sigma
    n = op.n
    m_index = np.arange(1, n + 1)
    wpow = sig ** (2.0 * rho)

    fams = [
        _Family("basis", m_index, lambda: (d, np.ones(n), sig ** rho),
                ordered=True),
        _sum_family("head", m_index, d, d, wpow, np.cumsum),
        _sum_family("head_flat", m_index, d, np.sign(d), wpow, np.cumsum),
    ]
    w_inv = d / sig ** rho
    if np.all(np.isfinite(w_inv)):
        fams.append(_sum_family("head_inv_weight", m_index, d, w_inv, wpow,
                                np.cumsum))
        for width in (4, 8, 16):
            if n > width:
                fams.append(_sum_family(
                    f"window{width}_inv_weight", np.arange(1, n - width + 2),
                    d, w_inv, wpow, partial(_window_sums, width=width)))
    # suffix copies of the solution
    fams.append(_sum_family("tail", m_index, d, d, wpow,
                            lambda v: np.cumsum(v[::-1])[::-1]))
    return [*fams, t_fam]


def _t_family(op: SpectralOperator, d: np.ndarray, rho: float):
    """``ip``, ``nrm`` and ``pnm`` of the curve ``u_t = u+ / (w + t)``,
    ``w = lambda**rho``, at t = 0, on ``T_GRID_POINTS`` log-spaced t and at
    t = inf, in grid order.

    By KKT on a diagonal system the pairing ratio, and at ``rho = 1`` the
    ivi needed beta, peak on this curve.  Over the spectral atoms with
    masses m: ``ip = sum m / (w + t)``, ``nrm**2 = sum m / (w + t)**2``,
    ``pnm**2 = sum w m / (w + t)**2``, on chunks of about 2**14 entries.
    The checks are scale-invariant, so each ``u_t`` is scaled by ``e**r``,
    ``r = max(log t, log w_min)``, and built from ``rho log lambda`` and
    ``log t``: neither ``lambda**rho`` nor t underflows on deep spectra.
    """
    lam, mass = _spectral_atoms(op, d ** 2)
    s = rho * np.log(lam)
    margin = np.log(T_MARGIN)
    tau = np.concatenate(([-np.inf], np.linspace(
        s[0] - margin, s[-1] + margin, T_GRID_POINTS)))
    r = np.maximum(tau, s[0])
    rest = np.exp(tau - r)  # t e**-r; 0 at t = 0
    ip, nrm, pnm = (np.empty(tau.size + 1) for _ in range(3))
    rows = max(1, 2 ** 14 // s.size)
    # two buffers serve every chunk, so the loop allocates no arrays
    ws_buf, v_buf = np.empty((rows, s.size)), np.empty((rows, s.size))
    for lo in range(0, tau.size, rows):
        hi = min(lo + rows, tau.size)
        ws, v = ws_buf[:hi - lo], v_buf[:hi - lo]
        # e**(s - r), capped where the term is negligible anyway
        np.subtract(s, r[lo:hi, None], out=ws)
        np.exp(np.minimum(ws, 700.0, out=ws), out=ws)
        np.add(ws, rest[lo:hi, None], out=v)
        np.divide(1.0, v, out=v)  # e**r / (w + t)
        ip[lo:hi] = v @ mass
        ws *= v
        ws *= v  # w v**2 e**-r
        pnm[lo:hi] = ws @ mass
        v *= v
        nrm[lo:hi] = v @ mass
    # t = inf: the solution itself, scaled by 1
    ip[-1] = nrm[-1] = mass.sum()
    pnm[-1] = np.exp(s - s[-1]) @ mass
    pnm = np.sqrt(pnm, out=pnm) * np.exp(np.append(r, s[-1]) / 2.0)
    return ip, np.sqrt(nrm, out=nrm), pnm


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    # direct sliding sums; a cumsum difference would cancel catastrophically
    # on spectra spanning hundreds of orders of magnitude
    return np.convolve(values, np.ones(width), mode="valid")


def _trace_window(n_points: int) -> int:
    """First index (0-based) of the divergence window: the last two decades,
    skipping the pre-asymptotic head below index 6."""
    return max(6, n_points // 100) - 1


def _grows(index: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """Growth rule for positive values: the log-log slope reaches
    ``GROWTH_SLOPE``, or the positive increments of ``values**2`` follow a
    power law whose exponent reaches ``POWER_DIVERGENT``, the terms of a
    divergent series such as the ``1/n`` of ``values**2 ~ log(n)``.  Returns
    the verdict and the log-log slope."""
    x = np.log(np.asarray(index, dtype=float))
    slope, _, _ = ls_line(x, np.log(values))
    if slope >= GROWTH_SLOPE:
        return True, slope
    # scaled to at most 1 so that the squares cannot overflow
    inc = np.diff((values / values.max()) ** 2)
    pos = inc > 0.0
    if np.count_nonzero(pos) < _MIN_FIT_POINTS:
        return False, slope
    expo, _, resid = ls_line(x[1:][pos], np.log(inc[pos]))
    return bool(resid <= POWER_FIT_RESID and expo >= POWER_DIVERGENT), slope


def _divergent(index: np.ndarray, values: np.ndarray) -> tuple[bool, float]:
    """Divergence proxy for finite scores, such as the pairing ratios:
    positive, non-decreasing values over the trace window that grow by
    :func:`_grows`."""
    lo = _trace_window(len(values))
    idx = np.asarray(index, dtype=float)[lo:]
    val = values[lo:]
    if val.size < _MIN_FIT_POINTS or np.any(val <= 0.0):
        return False, 0.0
    if np.any(np.diff(val) < -REL_SLACK * val[:-1]):
        return False, 0.0
    if val[-1] <= val[0] * (1.0 + REL_SLACK):
        return False, 0.0
    return _grows(idx, val)


def _solution(op, u_dagger: CoeffVector) -> tuple[CoeffVector, int]:
    """The copy ``u+ * 2**-e`` that the checks read, and e, on a section
    whose index reads as depth: a truncated one's singular values must not
    increase."""
    _require_same_frame(u_dagger.frame, op.domain)
    if op.truncated and np.any(op.sigma[1:] > op.sigma[:-1]):
        raise ValueError("a truncated section must list its singular values "
                         "in non-increasing order")
    d, e = _pow2_scaled(u_dagger.coeffs)
    return (u_dagger if e == 0 else CoeffVector(d, op.domain)), e


def _scale(x, degree: float, e: int):
    """``x * 2**(degree * e)`` with one rounding; inf past the float range."""
    k = degree * e
    with np.errstate(over="ignore"):
        return np.ldexp(x * 2.0 ** (k % 1.0), int(k // 1.0))


#: Degree in u+ of the reported values, by key in a report's constants and
#: witness; :func:`_restored` takes the diagnostics' and any other.
_DEGREES = {**dict.fromkeys(("S_N", "tail_estimate", "C_hat"), 2.0),
            **dict.fromkeys(("beta", "beta_lower", "beta_direct", "tail_C",
                             "beta_from_tail", "C", "omega_norm", "ip",
                             "omega_norm_partial", "ratio"), 1.0)}


def _restored(rep, e: int, diagnostics: float, **degrees) -> ConditionReport:
    """``rep``, computed on ``u+ * 2**-e``, as the report on u+, with the
    diagnostics' degree and any others given (see the module's Scale)."""
    degree = {**_DEGREES, **degrees}
    def up(values: dict) -> dict:
        return {k: float(_scale(v, degree[k], e)) if k in degree else v
                for k, v in values.items()}
    constants = up(rep.constants)
    finite = np.isfinite([*constants.values()]).all()
    if rep.verdict == CERTIFIED and not finite:
        raise ValueError(f"the {rep.condition} certificate leaves the float "
                         "range at this scale of the solution")
    if e == 0:
        return rep
    xs, ys = np.reshape(rep.diagnostics, (-1, 2)).T
    diag = list(zip(xs.tolist(), _scale(ys, diagnostics, e).tolist()))
    return replace(rep, constants=constants, diagnostics=diag,
                   witness=rep.witness and up(rep.witness))


def _decimate(xs, ys) -> list:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size <= DIAGNOSTIC_POINTS:
        return list(zip(xs.tolist(), ys.tolist()))
    pick = np.unique(np.geomspace(1, xs.size, DIAGNOSTIC_POINTS).astype(int) - 1)
    return list(zip(xs[pick].tolist(), ys[pick].tolist()))


# Range-type smoothness ------------------------------------------------------


def check_standard_sc(op: SpectralOperator, u_dagger: CoeffVector,
                      nu: float) -> ConditionReport:
    """Classify membership of the solution in the range of the normal
    operator to the power ``nu / 2`` from the growth of the partial sums
    ``S_m`` of the terms ``sigma**(-2 nu) u**2``.

    On an exact finite operator the membership is unconditional and the
    certificate norm is ``sqrt(S_N)``.  On a truncated section a term is one
    spectral atom's, in depth order: depth counts atoms.  The terms of the
    second half are classified: flat or growing terms under growing sums
    and power-law terms with exponent at or above -1 refute; steeper power
    laws, geometric decay, sums that stop growing and a negligible remainder
    certify; other tails stay inconclusive.  A non-finite ``S_N`` of the
    scaled copy raises ``ValueError``.
    """
    nu = in_interval("nu", nu, "(0, 2]")
    v, e = _solution(op, u_dagger)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (v.coeffs * op.sigma ** -nu) ** 2
        if op.truncated:  # one term per atom, in depth order
            terms = _spectral_atoms(op, terms)[1][::-1]
        partial = np.cumsum(terms)
    total = float(partial[-1])
    if not np.isfinite(total):
        raise ValueError(f"u+**2 sigma**(-2 nu) overflows at nu = {nu:g}")
    n = terms.size
    m_index = np.arange(1, n + 1)
    diag = _decimate(m_index, partial)

    def report(verdict, constants, witness=None, notes=()):
        return _restored(ConditionReport(STANDARD_SC, nu, verdict, constants,
                                         diag, op.n, witness, tuple(notes)),
                         e, 2.0)

    omega = float(np.sqrt(total))
    if not op.truncated:
        return report(CERTIFIED, {"omega_norm": omega},
                      notes=("exact finite operator: range membership is "
                             "unconditional",))

    lo_dec = max(1, -(-n // 10))  # ceil(n / 10), start of the last decade
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
    # growth is read at the positive terms of the last decade; a zero run
    # after the last of them that outlasts every gap ends the support
    at = np.flatnonzero(terms[lo_dec - 1:] > 0.0) + (lo_dec - 1)
    s_grows, s_slope = _grows(at + 1, partial[at])
    growing = bool(n - 1 - at[-1] < np.diff(at).max())

    fit_stats = {"term_slope": geo_slope, "power_exponent": pow_slope,
                 "power_resid": pow_resid, "sum_slope": s_slope}
    if geo_slope >= -1e-3 and growing and s_grows:
        return report(REFUTED_AT_N, {"omega_norm_partial": omega, **fit_stats},
                      witness={"kind": "partial_sums", "S_N": total,
                               "sum_slope": s_slope})
    if pow_resid <= POWER_FIT_RESID:
        # within 1e-9 of a threshold counts as its convergent side
        expo = pow_slope - 1e-9
        if expo >= POWER_DIVERGENT and growing:
            return report(REFUTED_AT_N, {"omega_norm_partial": omega, **fit_stats},
                          witness={"kind": "power_law_terms",
                                   "exponent": pow_slope})
        if expo <= POWER_CONVERGENT:
            tail_bound = float(t_w[pos][-1] * n / (-pow_slope - 1.0))
            return report(CERTIFIED, {"omega_norm": omega,
                                      "tail_estimate": tail_bound, **fit_stats})
        return report(INCONCLUSIVE, {"omega_norm_partial": omega, **fit_stats},
                      notes=("power-law tail too close to the divergence "
                             "boundary at this truncation",))
    if geo_slope <= GEO_TERM_SLOPE:
        r = float(np.exp(geo_slope))
        tail_bound = float(t_w[pos][-1] * r / (1.0 - r))
        return report(CERTIFIED, {"omega_norm": omega,
                                  "tail_estimate": tail_bound, **fit_stats})
    if not s_grows:
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
    attained on those atoms.  On a truncated section certification also
    needs the log-log slope of ``T`` over the atoms up to 100 times the
    lowest one with positive ``T`` to reach ``nu`` within tolerance, so
    that the constant is stable under deeper truncation, unless the lower
    half of the atoms carries no mass; a lower slope refutes if
    ``T / lam**nu`` grows toward the low spectrum there.  A ``lam**nu``
    that underflows raises ``ValueError``.
    """
    nu = in_interval("nu", nu, "(0, 2)")
    v, e = _solution(op, u_dagger)
    lam_u, mass = _spectral_atoms(op, v.coeffs ** 2)
    t_cum = np.cumsum(mass)
    diag = _decimate(lam_u, t_cum)

    def report(verdict, constants, witness=None, notes=()):
        return _restored(ConditionReport(SPECTRAL_TAIL, nu, verdict,
                                         constants, diag, op.n, witness,
                                         tuple(notes)), e, 2.0, ratio=2.0)

    if t_cum[-1] == 0.0:
        return report(CERTIFIED, {"C": 0.0})
    if lam_u[0] ** nu == 0.0:
        raise ValueError(f"lambda**nu underflows at nu = {nu:g}")
    with np.errstate(over="ignore"):  # inf: refused if it certifies
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
    mass at or below it.  Returns the per-depth trace; its max is the bound.
    """
    lam = op.lambdas
    order = np.argsort(lam, kind="stable")
    lam_s = lam[order]
    d2 = (d ** 2)[order]
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf maps to inf
        g_terms = d2 * lam_s ** (-rho)
    t_cum = np.cumsum(d2)
    g_cum = np.cumsum(g_terms[::-1])[::-1]
    with np.errstate(invalid="ignore"):
        h = 2.0 * g_cum ** (nu / (2.0 * rho)) * t_cum ** ((1.0 - nu / rho) / 2.0)
    h = np.where(np.isfinite(h), h, np.inf)
    # depth order: largest lambda first, deeper truncation to the right
    return h[::-1]


def _witness(fam, k, **score) -> dict:
    return {"family": fam.label, "index": int(fam.index[k]), **score,
            "ip": float(fam.ip[k]), "norm": float(fam.nrm[k]),
            "pnorm": float(fam.pnm[k])}


@np.errstate(divide="ignore", invalid="ignore")
def _pairing_ratios(fam, expo):
    denom = fam.pnm ** expo * fam.nrm ** (1.0 - expo)
    ratios = np.where(denom > 0.0, fam.ip / denom, 0.0)
    return np.where(np.isfinite(ratios), ratios, 0.0)


def _check_pairing_vi(op, u_dagger, nu, rho, condition, fams):
    """Pairing-form check on the probe families ``fams`` built at ``rho``:
    ``beta`` is the split bound (``beta_direct``) where it stands, else half
    of :func:`scr_to_vi_certificate` (``beta_from_tail``, with ``tail_C``)."""
    d = u_dagger.coeffs
    n = op.n
    if not np.any(d):
        return ConditionReport(condition, nu, CERTIFIED,
                               {"beta": 0.0, "beta_lower": 0.0}, [], n)

    # beta_lower is the largest positive ratio; the scan stops at the first
    # ordered family whose ratios diverge (only a truncated section has one)
    beta_lower, lower_witness = 0.0, None
    for fam in fams:
        ratios = _pairing_ratios(fam, nu / rho)
        k = int(np.argmax(ratios))
        if ratios[k] > beta_lower:
            beta_lower = float(ratios[k])
            lower_witness = {"family": fam.label, "index": int(fam.index[k]),
                             "ratio": beta_lower}
        if not fam.ordered:
            continue
        div, slope = _divergent(fam.index, ratios)
        if div:
            return ConditionReport(
                condition, nu, REFUTED_AT_N,
                {"beta_lower": beta_lower, "trace_slope": slope},
                _decimate(fam.index, ratios), n,
                witness=_witness(fam, k, ratio=float(ratios[k])),
                notes=("witness ratios grow without bound along the "
                       f"family {fam.label!r}",))

    h = _split_upper_bound(op, d, nu, rho)
    beta_direct = float(np.max(h))
    lo = _trace_window(n)
    run_max = np.maximum.accumulate(h)[lo:]
    route = {}
    if np.isfinite(beta_direct) and (not op.truncated or (
            run_max.size >= 2 and run_max[0] > 0.0
            and not _grows(np.arange(lo + 1, n + 1), run_max)[0])):
        route = {"beta_direct": beta_direct}
    elif nu < min(rho, 2.0):
        # a tail of constant C bounds every split value by half its doubled
        # form, so the tail route decides only where the split bound fails
        try:
            tail_rep = check_spectral_tail(op, u_dagger, nu)
        except ValueError:  # lambda**nu underflows or C overflows
            tail_rep = None
        if tail_rep is not None and tail_rep.verdict == CERTIFIED:
            tail_c = tail_rep.constants["C"]
            route = {"beta_from_tail":
                     scr_to_vi_certificate(tail_c, nu, rho) / 2.0,
                     "tail_C": tail_c}

    diag = _decimate(np.arange(1, n + 1), h)
    if not route:
        return ConditionReport(condition, nu, INCONCLUSIVE,
                               {"beta_lower": beta_lower}, diag, n,
                               witness=lower_witness,
                               notes=("no stable upper bound available at "
                                      "this truncation",))
    beta = next(iter(route.values()))  # the constant the route certifies
    if beta < beta_lower * (1.0 - REL_SLACK):
        return ConditionReport(condition, nu, INCONCLUSIVE,
                               {"beta_lower": beta_lower, **route},
                               diag, n, witness=lower_witness,
                               notes=("upper bound fell below an observed "
                                      "ratio; numerical inconsistency",))
    return ConditionReport(condition, nu, CERTIFIED,
                           {"beta": beta, "beta_lower": beta_lower, **route},
                           diag, n, witness=lower_witness)


def check_hvi(op: SpectralOperator, u_dagger: CoeffVector,
              nu: float) -> ConditionReport:
    """Check the homogeneous variational inequality at parameter ``nu``.

    The reported ``beta`` is the pairing-form constant, certified through
    the half-mass split bound where it stands, else the spectral-tail route.
    ``beta_lower`` is the largest ratio on the probe families, only the
    t-family on an exact section.  The supremum of the ratio lies on the
    t-family's curve, so unless a structured family refutes first,
    ``beta_lower`` is that supremum up to the t grid's spacing (within
    about 1e-4 relative).
    """
    nu = in_interval("nu", nu, "(0, 1]")
    v, e = _solution(op, u_dagger)
    return _restored(_check_pairing_vi(op, v, nu, 1.0, HVI,
                                       probe_families(op, v, 1.0)),
                     e, 1.0)


def check_svi(op: SpectralOperator, u_dagger: CoeffVector,
              nu: float) -> ConditionReport:
    """Check the symmetrized variational inequality at parameter ``nu``;
    same conventions as :func:`check_hvi` with the normal operator in place
    of the forward map, and the split bound, the tail route and the
    t-family built at ``rho = 2``."""
    nu = in_interval("nu", nu, "(0, 2]")
    v, e = _solution(op, u_dagger)
    return _restored(_check_pairing_vi(op, v, nu, 2.0, SVI,
                                       probe_families(op, v, 2.0)),
                     e, 1.0)


# Inhomogeneous variational inequality ---------------------------------------


def _needed_beta(fam, mu, gamma):
    """Smallest beta making the inhomogeneous inequality hold on the ray
    through each probe of a family, optimized over the scale in closed form.

    For ``mu = 1`` the supremum sits at vanishing scale and equals
    ``2 ip / ||L u||``; for ``mu < 1`` with positive ``gamma`` the optimum
    is interior; with ``gamma = 0`` and ``mu < 1`` no finite beta works for
    a probe with positive pairing.
    """
    ip, nrm, pnm = fam.ip, fam.nrm, fam.pnm
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if mu == 1.0:
            need = 2.0 * ip / pnm
        elif gamma == 0.0:
            need = np.where(ip > 0.0, np.inf, 0.0)
        else:
            t_star = 2.0 * ip * (1.0 - mu) / ((2.0 - mu) * gamma * nrm ** 2)
            val = 2.0 * ip * t_star ** (1.0 - mu) - gamma * nrm ** 2 * t_star ** (2.0 - mu)
            need = val / pnm ** mu
    # a probe whose rho-power norm underflows scores 0, as in the ratios
    need = np.where((ip > 0.0) & (pnm > 0.0), need, 0.0)
    return np.where(np.isnan(need), 0.0, need)


def check_ivi(op: SpectralOperator, u_dagger: CoeffVector, mu: float,
              beta: float | None = None,
              gamma: float | None = None) -> ConditionReport:
    """Verify inhomogeneous-inequality constants ``(beta, gamma)`` in the
    doubled convention at parameter ``mu``.

    The inequality is equivalent to the homogeneous one at ``nu = mu / (2 -
    mu)``, checked first on the same probe families; where that is refuted,
    so is this one for any constants, with its witness.  A constant left
    ``None`` is derived through :func:`ivi_from_hvi_report` when it
    certifies, else ``beta = 4 (1 + ||u+||)`` with ``gamma = 0`` at ``mu =
    1`` and ``1/2`` below.  Otherwise every probe of the t-family, on which
    the needed beta peaks, is swept over all positive scales (in closed
    form; the inequality is not scale-invariant), and the verdict is
    ``RefutedAtN`` when some probe needs a larger beta than the constants
    give.  A chained beta that underflows at the scale of u+ is refused.
    """
    mu = in_interval("mu", mu, "(0, 1]")
    v, e = _solution(op, u_dagger)
    deg = 2.0 - mu  # at fixed gamma, the degree in u+ of the needed beta
    fams = probe_families(op, v, 1.0)
    hvi = _check_pairing_vi(op, v, mu / deg, 1.0, HVI, fams)
    if hvi.verdict == CERTIFIED:
        derived = ivi_from_hvi_report(_restored(hvi, e, 1.0))[1:]
    else:
        derived = 4.0 * (1.0 + u_dagger.norm()), 0.0 if mu == 1.0 else 0.5
    chained = beta is None and hvi.verdict == CERTIFIED
    beta = in_interval("beta", derived[0] if beta is None else beta, "[0, inf)")
    gamma = in_interval("gamma", derived[1] if gamma is None else gamma, "[0, 1)")
    # beta on the copy, where the needed beta is read; a chained one as the
    # copy's hvi gives it, since its restore can leave the float range
    beta_s = ivi_from_hvi_report(hvi)[1] if chained else _scale(beta, -deg, e)
    if chained and beta == 0.0 < beta_s:
        raise ValueError("the ivi certificate leaves the float range at this "
                         "scale of the solution")
    n = op.n
    # beta is in u+'s units already; a refutation's diagnostics are the
    # hvi's pairing ratios, and otherwise none
    if hvi.verdict == REFUTED_AT_N:
        return _restored(ConditionReport(
            IVI, mu, REFUTED_AT_N,
            {"beta": beta, "gamma": gamma,
             "trace_slope": hvi.constants["trace_slope"]},
            hvi.diagnostics, n, witness=hvi.witness,
            notes=("the equivalent homogeneous inequality at nu = "
                   f"{hvi.parameter:.6g} is refuted along the family "
                   f"{hvi.witness['family']!r}; no constants can hold",)),
            e, 1.0, beta=0.0)

    need = _needed_beta(fams[-1], mu, gamma)  # on the t-family, the last
    k = int(np.argmax(need))
    worst_need = float(need[k])
    refuted = worst_need > beta_s * (1.0 + REL_SLACK) + 1e-12
    return _restored(ConditionReport(
        IVI, mu, REFUTED_AT_N if refuted else CERTIFIED,
        {"beta": beta, "gamma": gamma, "needed_beta": worst_need}, [], n,
        witness=_witness(fams[-1], k, needed_beta=worst_need)
        if worst_need > 0.0 else None), e, deg, beta=0.0, needed_beta=deg)
