"""Every guarded public scalar parameter rejects NaN, +-inf and every finite
value outside its domain with ``ValueError("<name> must lie in <interval>")``,
and accepts a value inside it.  Every other input guard rejects its bad
input with a ``ValueError`` that names the fault."""

import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates._fitting import ls_line
from tikrates.cli import _load_instance
from tikrates.instances import derive_ivi_constants
from tikrates.measures import (DiscreteMeasure, cs_measure_bound,
                               tail_integral_bound)
from tikrates.rates import _fit, noisy_sweep_rows
from tikrates.suites import cs_bound_suite, tail_bound_suite

C26 = tk.build("counter26", 20)
OP, U, Y = C26.op, C26.u_dagger, C26.y
DENSE = tk.build("finite_rank", 16)
Y_AMB = DENSE.op.ambient_from_data(DENSE.y)
M = DiscreteMeasure([0.5, 1.0, 2.0], [0.1, 0.2, 0.3])
DELTAS = np.logspace(-6.0, -2.0, 9)
ALPHAS = np.logspace(-8.0, 0.0, 9)
REALS = "(-inf, inf)"


def _ivi(mu=1.0, beta=10.0, gamma=0.5):
    return tk.check_ivi(OP, U, mu, beta, gamma)


def _bound(mu=1.0, beta=1.0, gamma=0.5, delta=0.1, alpha=1e-2):
    return tk.error_bound(mu, beta, gamma, delta, alpha, OP, Y, Y)


def _tail(nu=0.5, rho=1.5, C=10.0, Lambda=1.0):
    return tail_integral_bound(M, nu, rho, C, Lambda)


# (function, parameter, domain, call with the parameter set to v, a value
# inside the domain)
ROWS = [
    ("ssc_to_hvi_certificate", "omega_norm", "[0, inf)",
     lambda v: tk.ssc_to_hvi_certificate(v), 1.0),
    ("hvi_to_ivi_certificate", "beta", "[0, inf)",
     lambda v: tk.hvi_to_ivi_certificate(v, 0.5), 1.0),
    ("hvi_to_ivi_certificate", "nu", "(0, 1]",
     lambda v: tk.hvi_to_ivi_certificate(1.0, v), 0.5),
    ("scr_to_vi_certificate", "C", "[0, inf)",
     lambda v: tk.scr_to_vi_certificate(v, 0.5, 1.0), 1.0),
    ("scr_to_vi_certificate", "nu", "(0, inf)",
     lambda v: tk.scr_to_vi_certificate(1.0, v, 1.0), 0.5),
    ("scr_to_vi_certificate", "rho", REALS,
     lambda v: tk.scr_to_vi_certificate(1.0, 0.5, v), 1.0),
    ("check_standard_sc", "nu", "(0, 2]",
     lambda v: tk.check_standard_sc(OP, U, v), 0.5),
    ("check_spectral_tail", "nu", "(0, 2)",
     lambda v: tk.check_spectral_tail(OP, U, v), 0.5),
    ("check_hvi", "nu", "(0, 1]", lambda v: tk.check_hvi(OP, U, v), 0.5),
    ("check_svi", "nu", "(0, 2]", lambda v: tk.check_svi(OP, U, v), 1.0),
    ("check_ivi", "mu", "(0, 1]", lambda v: _ivi(mu=v), 1.0),
    ("check_ivi", "beta", "[0, inf)", lambda v: _ivi(beta=v), 10.0),
    ("check_ivi", "gamma", "[0, 1)", lambda v: _ivi(gamma=v), 0.5),
    ("derive_ivi_constants", "mu", "(0, 1]",
     lambda v: derive_ivi_constants(C26, v), 1.0),
    ("solve", "alpha", "(0, inf)", lambda v: tk.solve(OP, Y, v), 1e-3),
    ("solve_normal_equations", "alpha", "(0, inf)",
     lambda v: tk.solve_normal_equations(DENSE.op, Y_AMB, v), 1e-3),
    ("error_bound", "mu", "(0, 1]", lambda v: _bound(mu=v), 1.0),
    ("error_bound", "beta", "[0, inf)", lambda v: _bound(beta=v), 1.0),
    ("error_bound", "gamma", "[0, 1)", lambda v: _bound(gamma=v), 0.5),
    ("error_bound", "delta", "[0, inf)", lambda v: _bound(delta=v), 0.1),
    ("error_bound", "alpha", "(0, inf)", lambda v: _bound(alpha=v), 1e-2),
    ("noisy_sweep_rows", "mu", "(0, 1]",
     lambda v: noisy_sweep_rows(OP, Y, DELTAS, v, tk.NoiseModel()), 1.0),
    ("infimum_rate", "delta", "[0, inf)",
     lambda v: tk.infimum_rate(OP, Y, v, tk.NoiseModel(), ALPHAS), 1e-3),
    ("power_apply", "r", REALS, lambda v: tk.power_apply(OP, v, U), 0.5),
    ("spectral_projection_norm", "lam", "[0, inf)",
     lambda v: tk.spectral_projection_norm(OP, U, v), 0.5),
    ("DiscreteMeasure.weighted_sum", "power", REALS,
     lambda v: M.weighted_sum(v), 1.0),
    ("cs_measure_bound", "rho", REALS,
     lambda v: cs_measure_bound(M, M, M, 0.0, 3.0, v), 1.0),
    ("tail_integral_bound", "nu", "[0, inf)", lambda v: _tail(nu=v), 0.5),
    ("tail_integral_bound", "rho", REALS, lambda v: _tail(rho=v), 1.5),
    ("tail_integral_bound", "C", "(0, inf)", lambda v: _tail(C=v), 10.0),
    ("tail_integral_bound", "Lambda", "(0, inf)",
     lambda v: _tail(Lambda=v), 1.0),
]


def _finite_outside(interval):
    """Strategy for finite floats outside ``interval``, or None if every
    finite float lies inside it."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    below = (lambda x: x < lo) if interval[0] == "[" else (lambda x: x <= lo)
    above = (lambda x: x > hi) if interval[-1] == "]" else (lambda x: x >= hi)
    parts = []
    if np.isfinite(lo):
        parts.append(st.floats(max_value=lo, allow_nan=False,
                               allow_infinity=False).filter(below))
    if np.isfinite(hi):
        parts.append(st.floats(min_value=hi, allow_nan=False,
                               allow_infinity=False).filter(above))
    return st.one_of(parts) if parts else None


@pytest.mark.parametrize("param, interval, call, inside",
                         [pytest.param(*row[1:], id=f"{row[0]}-{row[1]}")
                          for row in ROWS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_guarded_parameter_domains(param, interval, call, inside, data):
    call(inside)
    bad = [np.nan, np.inf, -np.inf]
    outside = _finite_outside(interval)
    if outside is not None:
        bad.append(data.draw(outside, label="outside"))
    for value in bad:
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == f"{param} must lie in {interval}"


M_NEG = DiscreteMeasure([0.5, 1.0], [0.1, -0.5])


def _nan_corner(a):
    a = a.copy()
    a[0, 0] = np.nan
    return a


def _load(tmp_path, spec):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    return _load_instance(argparse.Namespace(instance=str(path), n=60, seed=0))


# (call, taking a scratch directory, with a bad input; expected message)
REJECTIONS = {
    "ls_line-one-point": (lambda tmp: ls_line([1.0], [2.0]),
                          "at least two points"),
    "measure-unequal-lengths": (lambda tmp: DiscreteMeasure([1.0, 2.0], [1.0]),
                                "equal length"),
    "measure-non-finite-atom": (lambda tmp: DiscreteMeasure([1.0], [np.nan]),
                                "atoms must be finite"),
    "diagonal-negative": (
        lambda tmp: tk.SpectralOperator.diagonal([1.0, -1.0]),
        "finite and non-negative"),
    "diagonal-non-finite": (
        lambda tmp: tk.SpectralOperator.diagonal([1.0, np.inf]),
        "finite and non-negative"),
    "matrix-1d": (lambda tmp: tk.SpectralOperator.from_matrix([1.0, 2.0]),
                  "two-dimensional"),
    "matrix-non-finite": (
        lambda tmp: tk.SpectralOperator.from_matrix([[1.0, np.nan]]),
        "entries must be finite"),
    "matrix-overflowing-spectrum": (
        lambda tmp: tk.SpectralOperator.from_matrix(np.full((2, 2), 1e308)),
        "singular values overflow"),
    "matrix-all-zero": (
        lambda tmp: tk.SpectralOperator.from_matrix(np.zeros((3, 2))),
        "identically zero"),
    # the matrix is formed from the scaled factors, so it reproduces its own
    # action; only the orthonormality probe sees the scaling
    "dense-scaled-left-factor": (
        lambda tmp: tk.SpectralOperator._dense(
            (1.01 * DENSE.op._u_range) @ (DENSE.op.sigma[:, None]
                                          * DENSE.op._vt_range),
            1.01 * DENSE.op._u_range, DENSE.op.sigma, DENSE.op._vt_range),
        "left singular vectors are not orthonormal"),
    "dense-non-finite-factor": (
        lambda tmp: tk.SpectralOperator._dense(
            None, _nan_corner(DENSE.op._u_range), DENSE.op.sigma,
            DENSE.op._vt_range),
        "singular vectors must be finite"),
    "hvi-to-ivi-overflow": (
        lambda tmp: tk.hvi_to_ivi_certificate(1e300, 0.5),
        "overflows the float range"),
    "ambient-wrong-length": (
        lambda tmp: DENSE.op.data_from_ambient(np.ones(Y_AMB.size + 1)),
        "does not match matrix rows"),
    "q-projection-wrong-length-e": (
        lambda tmp: tk.q_projection_equivalence(DENSE.op, Y_AMB,
                                                np.zeros(Y_AMB.size - 1)),
        "does not match matrix rows"),
    "q-projection-wrong-length-y": (
        lambda tmp: tk.q_projection_equivalence(DENSE.op, Y_AMB[:-1],
                                                np.zeros(Y_AMB.size)),
        "expected ambient data for the dense path"),
    "cs-negative-diagonal-measure": (
        lambda tmp: cs_measure_bound(M_NEG, M, M, 0.0, 3.0, 1.0),
        "diagonal measures must be non-negative"),
    "tail-negative-masses": (
        lambda tmp: tail_integral_bound(M_NEG, 0.5, 1.5, 10.0, 1.0),
        "measure must be non-negative"),
    "noise-free-grid-below-floor": (
        lambda tmp: tk.noise_free_rate(OP, Y, np.logspace(-30.0, -20.0, 9)),
        "below the truncation floor"),
    "infimum-empty-grid": (
        lambda tmp: tk.infimum_rate(OP, Y, 1e-3, tk.NoiseModel(), []),
        "non-empty"),
    "cs-bound-suite-empty": (lambda tmp: cs_bound_suite(0),
                             "count must be at least 1"),
    "tail-bound-suite-empty": (lambda tmp: tail_bound_suite(0),
                               "count must be at least 1"),
    "cs-bound-suite-fractional": (lambda tmp: cs_bound_suite(2.5),
                                  "count must be at least 1, as an integer"),
    "cs-bound-suite-bool": (lambda tmp: cs_bound_suite(True),
                            "count must be at least 1, as an integer"),
    "tail-bound-suite-fractional": (lambda tmp: tail_bound_suite(2.5),
                                    "count must be at least 1, as an integer"),
    "tail-bound-suite-bool": (lambda tmp: tail_bound_suite(True),
                              "count must be at least 1, as an integer"),
    "fit-zero-errors": (lambda tmp: _fit([1.0, 2.0, 3.0, 4.0],
                                         [1.0, 0.0, 1.0, 1.0], False),
                        "errors vanish"),
    "operator-file-without-y": (lambda tmp: _load(tmp, {"diagonal": [1.0]}),
                                "must provide 'y'"),
    "operator-file-without-operator": (lambda tmp: _load(tmp, {"y": [1.0]}),
                                       "needs 'diagonal' or 'matrix'"),
}


@pytest.mark.parametrize("call, message", REJECTIONS.values(),
                         ids=REJECTIONS.keys())
def test_input_guards_reject_with_their_message(call, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)
