"""Tests for the condition checkers and certificate conversions."""

import json
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates import conditions as cond
from tikrates.instances import CHECKS

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


def _check(condition, inst, param):
    """The report of ``condition`` at ``param`` on an instance, run through
    the CHECKS table as the command line runs it."""
    return getattr(cond, CHECKS[condition])(inst.op, inst.u_dagger, param)


# Converters -----------------------------------------------------------------

def test_hvi_to_ivi_certificate_values():
    mu, beta, gamma = tk.hvi_to_ivi_certificate(TWO_SQRT2, 0.5)
    assert mu == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert beta == pytest.approx(3.0, rel=1e-12)
    assert gamma == 0.25
    mu, beta, gamma = tk.hvi_to_ivi_certificate(0.0, 0.7)
    assert (beta, gamma) == (0.0, pytest.approx(0.15))
    assert mu == pytest.approx(1.4 / 1.7)
    assert tk.hvi_to_ivi_certificate(2.0, 1.0) == (1.0, 2.0, 0.0)


def test_ssc_to_hvi_certificate_values():
    assert tk.ssc_to_hvi_certificate(1.0) == 2.0
    assert tk.ssc_to_hvi_certificate(0.0) == 0.0
    with pytest.raises(ValueError):
        tk.ssc_to_hvi_certificate(-1.0)


def test_scr_to_vi_certificate_values():
    got = tk.scr_to_vi_certificate(np.sqrt(2.0), 0.5, 1.0)
    assert got == pytest.approx(6.727171322029716, rel=1e-13)
    got = tk.scr_to_vi_certificate(1.0, 1.0, 2.0)
    assert got == pytest.approx(4.756828460010884, rel=1e-13)
    assert tk.scr_to_vi_certificate(0.0, 0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        tk.scr_to_vi_certificate(1.0, 1.0, 1.0)


# Range-type smoothness -------------------------------------------------------

def test_ssc_geometric_instance_verdicts():
    inst = tk.build("counter26", 60)
    assert tk.check_standard_sc(inst.op, inst.u_dagger, 0.5).verdict \
        == tk.REFUTED_AT_N
    rep = tk.check_standard_sc(inst.op, inst.u_dagger, 0.4)
    assert rep.verdict == tk.CERTIFIED
    # geometric closed form of the source-element norm
    r = 2.0 ** -0.2
    expected = np.sqrt(r * (1.0 - r ** 60) / (1.0 - r))
    assert rep.constants["omega_norm"] == pytest.approx(expected, rel=1e-12)


def test_ssc_first_basis_vector_certifies_at_every_parameter():
    inst = tk.build("counter26", 60)
    e1 = inst.op.vector(np.eye(inst.op.n)[0])
    for nu in (0.3, 1.0, 2.0):
        rep = tk.check_standard_sc(inst.op, e1, nu)
        assert rep.verdict == tk.CERTIFIED
        assert rep.constants["omega_norm"] == pytest.approx(
            inst.op.sigma[0] ** -nu, rel=1e-12)


def test_ssc_harmonic_power_law_split():
    inst = tk.build("harmonic4", 200)
    assert tk.check_standard_sc(inst.op, inst.u_dagger, 1.0).verdict \
        == tk.REFUTED_AT_N
    assert tk.check_standard_sc(inst.op, inst.u_dagger, 0.5).verdict \
        == tk.CERTIFIED


def test_ssc_certifies_noisy_power_law_terms_whose_sums_stop_growing():
    # u_k = k**-1.5 with amplitudes in [0.4, 1] under sigma_k = 1/k lies in
    # the range below nu = 1; the noisy terms fit neither a power law nor a
    # geometric decay, so only the stalled partial sums certify
    k = np.arange(1, 251, dtype=float)
    op = tk.SpectralOperator.diagonal(1.0 / k)
    u = op.vector(k ** -1.5 * np.random.default_rng(0).uniform(0.4, 1.0, 250))
    for nu in (0.25, 0.5, 0.75):
        rep = tk.check_standard_sc(op, u, nu)
        assert rep.verdict == tk.CERTIFIED
        assert rep.constants["power_resid"] > cond.POWER_FIT_RESID
        assert rep.constants["term_slope"] > cond.GEO_TERM_SLOPE
        assert rep.constants["sum_slope"] < cond.GROWTH_SLOPE


def test_ssc_exact_operator_always_certifies():
    inst = tk.build("finite_rank", 40, seed=2)
    for nu in (0.5, 1.0, 2.0):
        assert tk.check_standard_sc(inst.op, inst.u_dagger, nu).verdict \
            == tk.CERTIFIED


# sigma_k = 1/k at n = 60: u = 1/k gives the terms k**(2 nu - 2), which
# converge only below nu = 1/2; zeros inside the support must not hide that,
# while a support that ends before the section leaves the verdict open
def _harmonic_ssc_case(zero):
    k = np.arange(1, 61, dtype=float)
    u = 1.0 / k
    u[zero(k)] = 0.0
    op = tk.SpectralOperator.diagonal(1.0 / k)
    return op, op.vector(u)


# verdicts at nu = 0.25, 0.5, 1 and 2
CRRR = (tk.CERTIFIED,) + (tk.REFUTED_AT_N,) * 3
CIII = (tk.CERTIFIED,) + (tk.INCONCLUSIVE,) * 3


@pytest.mark.parametrize("zero, verdicts", [
    (lambda k: k < 0, CRRR),
    (lambda k: k <= 10, CRRR),
    (lambda k: k % 2 == 1, CRRR),
    (lambda k: k % 2 == 0, CRRR),
    (lambda k: k > 55, CIII),
], ids=["full", "zero_head", "zero_odd", "zero_even", "support_ends"])
def test_ssc_reads_growth_at_the_positive_terms(zero, verdicts):
    op, u = _harmonic_ssc_case(zero)
    for nu, want in zip((0.25, 0.5, 1.0, 2.0), verdicts):
        rep = tk.check_standard_sc(op, u, nu)
        assert rep.verdict == want, nu
        assert all(np.isfinite(v) for v in rep.constants.values())


@pytest.mark.parametrize("n", [60, 250])
@pytest.mark.parametrize("zeros", [3, 6, 10, 20])
def test_documented_ssc_verdicts_survive_a_zero_head(n, zeros):
    for name in tk.INSTANCE_NAMES:
        inst = tk.build(name, n)
        coeffs = inst.u_dagger.coeffs.copy()
        coeffs[:zeros] = 0.0
        u = tk.CoeffVector(coeffs, inst.u_dagger.frame)
        for (condition, nu), want in inst.expected.items():
            if condition == tk.STANDARD_SC:
                assert tk.check_standard_sc(inst.op, u, nu).verdict == want, \
                    (name, nu)


@pytest.mark.parametrize("truncated", [True, False])
def test_ssc_zero_solution_certifies_with_zero_norm(truncated):
    op = tk.SpectralOperator.diagonal(1.0 / np.arange(1, 61),
                                      truncated=truncated)
    rep = tk.check_standard_sc(op, op.vector(np.zeros(60)), 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants == {"omega_norm": 0.0}


def test_ssc_too_few_positive_tail_terms_is_inconclusive():
    # one positive term in the second half, and it is not negligible
    op = tk.SpectralOperator.diagonal(0.9 ** np.arange(1, 61))
    u = np.zeros(60)
    u[:5] = u[59] = 1.0
    rep = tk.check_standard_sc(op, op.vector(u), 0.5)
    assert rep.verdict == tk.INCONCLUSIVE
    assert rep.notes == ("too few positive tail terms to classify",)


def test_ssc_parameter_validation():
    inst = tk.build("counter26", 20)
    for nu in (0.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            tk.check_standard_sc(inst.op, inst.u_dagger, nu)


# Homogeneous inequality ------------------------------------------------------

def test_hvi_geometric_instance_certified_below_paper_constant():
    inst = tk.build("counter26", 60)
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["beta"] <= TWO_SQRT2
    assert rep.constants["beta_lower"] <= rep.constants["beta"] + 1e-12


def test_hvi_split_bound_decides_without_the_tail_route():
    inst = tk.build("counter26", 60)
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    assert rep.constants["beta"] == rep.constants["beta_direct"]
    assert "beta_from_tail" not in rep.constants
    assert "tail_C" not in rep.constants


def test_hvi_tail_route_decides_where_the_split_bound_fails():
    # sigma_k = 1/k, u_k = 1/k past a zero head of 10: the split bound's
    # running maximum still grows at n = 60, the tail of order 1 certifies
    k = np.arange(1, 61)
    op = tk.SpectralOperator.diagonal(1.0 / k)
    u = op.vector(np.where(k > 10, 1.0 / k, 0.0))
    rep = tk.check_hvi(op, u, 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert "beta_direct" not in rep.constants
    c_const = rep.constants["tail_C"]
    assert c_const == tk.check_spectral_tail(op, u, 0.5).constants["C"]
    assert rep.constants["beta"] == rep.constants["beta_from_tail"]
    assert rep.constants["beta"] == tk.scr_to_vi_certificate(c_const, 0.5, 1.0) / 2.0
    assert rep.constants["beta_lower"] <= rep.constants["beta"]


def test_hvi_remark_instance_refuted_by_basis_vectors():
    inst = tk.build("remark_nu_gap", 60)
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    assert rep.verdict == tk.REFUTED_AT_N
    assert rep.witness["family"] == "basis"
    # pairing against the n-th basis vector grows linearly in n
    assert rep.witness["ratio"] == pytest.approx(rep.witness["index"],
                                                 rel=1e-9)


def test_hvi_zero_solution_trivially_certified():
    inst = tk.build("counter26", 20)
    rep = tk.check_hvi(inst.op, inst.op.vector(np.zeros(20)), 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["beta"] == 0.0


def test_hvi_harmonic_refuted_at_parameter_one():
    inst = tk.build("harmonic4", 200)
    assert tk.check_hvi(inst.op, inst.u_dagger, 1.0).verdict \
        == tk.REFUTED_AT_N


@pytest.mark.parametrize("n", [60, 1_000, 10_000, 100_000])
def test_harmonic_logarithmic_growth_refutes_at_every_depth(n):
    # the needed constant grows like sqrt(log n): its log-log slope falls
    # below GROWTH_SLOPE near n = 2e4, while the increments of its square
    # keep following the divergent 1/n
    inst = tk.build("harmonic4", n)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 1.0)
    # at nu = 1 the homogeneous inequality is equivalent to range membership
    assert hvi.verdict == tk.REFUTED_AT_N
    assert tk.check_standard_sc(inst.op, inst.u_dagger, 1.0).verdict \
        == tk.REFUTED_AT_N
    # twice the beta a growing split bound would have certified
    ivi = tk.check_ivi(inst.op, inst.u_dagger, 1.0, 14.0, 0.0)
    assert ivi.verdict == tk.REFUTED_AT_N
    assert "trace_slope" in ivi.constants  # refuted by growth, not by beta
    # and with the constants check_ivi derives itself
    assert tk.check_ivi(inst.op, inst.u_dagger, 1.0).verdict \
        == tk.REFUTED_AT_N
    assert tk.check_hvi(inst.op, inst.u_dagger, 0.5).verdict == tk.CERTIFIED


def test_hvi_converted_range_certificate_verifies():
    inst = tk.build("counter26", 60)
    ssc = tk.check_standard_sc(inst.op, inst.u_dagger, 0.4)
    beta = tk.ssc_to_hvi_certificate(ssc.constants["omega_norm"])
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.4)
    assert rep.verdict == tk.CERTIFIED
    # doubled-form certificate: no probe pairing may exceed half of it
    assert 2.0 * rep.constants["beta_lower"] <= beta * (1.0 + 1e-9)


def test_hvi_parameter_validation():
    inst = tk.build("counter26", 20)
    for nu in (0.0, 1.2):
        with pytest.raises(ValueError):
            tk.check_hvi(inst.op, inst.u_dagger, nu)


# Symmetrized inequality ------------------------------------------------------

def test_svi_geometric_instance_certified():
    inst = tk.build("counter26", 60)
    rep = tk.check_svi(inst.op, inst.u_dagger, 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert np.isfinite(rep.constants["beta"])


def test_svi_range_of_normal_operator_at_parameter_two():
    rng = np.random.default_rng(17)
    idx = np.arange(1, 41, dtype=float)
    op = tk.SpectralOperator.diagonal(0.7 ** idx)
    omega = op.vector(0.8 ** idx * rng.uniform(0.5, 1.0, 40))
    u_dag = tk.power_apply(op, 1.0, omega)
    rep = tk.check_svi(op, u_dag, 2.0)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["beta"] == pytest.approx(2.0 * omega.norm(),
                                                  rel=1e-9)


def test_svi_remark_instance_refuted():
    inst = tk.build("remark_nu_gap", 60)
    assert tk.check_svi(inst.op, inst.u_dagger, 0.5).verdict \
        == tk.REFUTED_AT_N


@pytest.mark.parametrize("name, nu", [("counter26", 1.0), ("remark_nu_gap", 0.5)])
def test_svi_deep_section_refutes_without_overflow_warnings(name, nu):
    inst = tk.build(name, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = tk.check_svi(inst.op, inst.u_dagger, nu)
    assert rep.verdict == tk.REFUTED_AT_N


@pytest.mark.parametrize("name, n, seed, condition, message", [
    ("random_diag", 1000, 0, cond.SPECTRAL_TAIL, "lambda**nu underflows"),
    ("counter26", 500, 0, cond.STANDARD_SC, "sigma**(-2 nu) overflows"),
])
def test_non_finite_spectral_powers_refuse(name, n, seed, condition, message):
    inst = tk.build(name, n, seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        _check(condition, inst, 1.9)


@pytest.mark.parametrize("sigma, u, condition, nu, outcome", [
    # lambda**1.03 is subnormal, so T / lambda**nu overflows to C = inf
    ([1e-150] * 2, [0.75, 0.5], cond.SPECTRAL_TAIL, 1.03,
     "certificate leaves the float range"),
    # the split bound is infinite and the tail route has no finite C
    ([1e-150] * 2, [0.75, 0.5], cond.SVI, 1.03, tk.INCONCLUSIVE),
    # each term is finite, their sum is not
    ([1e-77] * 10, [0.75] * 10, cond.STANDARD_SC, 2.0,
     "sigma**(-2 nu) overflows"),
])
def test_exact_sections_certify_no_constant_past_the_float_range(
        sigma, u, condition, nu, outcome):
    # max|u+| lies in [1/2, 1), so the check reads u+ unscaled
    op = tk.SpectralOperator.diagonal(sigma, truncated=False)
    inst = SimpleNamespace(op=op, u_dagger=op.vector(u))
    if outcome == tk.INCONCLUSIVE:
        assert _check(condition, inst, nu).verdict == outcome
    else:
        with pytest.raises(ValueError, match=re.escape(outcome)):
            _check(condition, inst, nu)


@pytest.mark.parametrize("n, seed, nu", [(500, 2, 1.5), (1000, 0, 1.0),
                                         (1000, 0, 1.5)])
def test_svi_skips_the_non_finite_routes_of_a_deep_spectrum(n, seed, nu):
    # lambda**1.5 underflows at the deep end of these spectra, and at
    # n = 1000 so do the squared solution coefficients there
    inst = tk.build("random_diag", n, seed)
    rep = tk.check_svi(inst.op, inst.u_dagger, nu)
    assert rep.constants
    assert all(np.isfinite(v) for v in rep.constants.values())
    if nu == 1.5:
        assert "beta_from_tail" not in rep.constants


# Inhomogeneous inequality ----------------------------------------------------

def test_ivi_geometric_chain_certifies():
    inst = tk.build("counter26", 60)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    mu, beta, gamma = tk.ivi_from_hvi_report(hvi)
    rep = tk.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["needed_beta"] <= beta


def test_ivi_undoubled_constants_fail_on_the_solution_itself():
    # the scalar conversion applied to the pairing-form constant is too small
    inst = tk.build("counter26", 60)
    rep = tk.check_ivi(inst.op, inst.u_dagger, 2.0 / 3.0, 3.0, 0.25)
    assert rep.verdict == tk.REFUTED_AT_N
    assert rep.constants["needed_beta"] > 3.0


def test_ivi_harmonic_refuted_for_any_constants():
    inst = tk.build("harmonic4", 1000)
    for beta, gamma in ((2.0, 0.0), (50.0, 0.9), (1e3, 0.5)):
        rep = tk.check_ivi(inst.op, inst.u_dagger, 1.0, beta, gamma)
        assert rep.verdict == tk.REFUTED_AT_N
        assert rep.witness["family"] == "head_flat"


def test_ivi_gamma_zero_below_parameter_one_needs_nonpositive_pairing():
    inst = tk.build("counter26", 30)
    rep = tk.check_ivi(inst.op, inst.u_dagger, 0.5, 100.0, 0.0)
    assert rep.verdict == tk.REFUTED_AT_N


def test_ivi_zero_solution_certified():
    inst = tk.build("counter26", 20)
    rep = tk.check_ivi(inst.op, inst.op.vector(np.zeros(20)), 1.0, 0.0, 0.0)
    assert rep.verdict == tk.CERTIFIED


# harmonic4 has tail order 1, so hvi holds below nu = 1 and short sections
# still refute some; counter26 at n = 500 has probes whose power norm
# underflows
@pytest.mark.parametrize("name, n, mu", [
    *[("harmonic4", n, mu) for n in (20, 60) for mu in (0.5, 2.0 / 3.0, 0.8)],
    ("counter26", 500, 0.5),
])
def test_derived_ivi_agrees_with_the_equivalent_hvi(name, n, mu):
    inst = tk.build(name, n)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, mu / (2.0 - mu))
    rep = tk.check_ivi(inst.op, inst.u_dagger, mu)
    assert rep.verdict == hvi.verdict
    if hvi.verdict == tk.REFUTED_AT_N:
        assert rep.witness == hvi.witness
        assert rep.diagnostics == hvi.diagnostics
        assert rep.constants["trace_slope"] == hvi.constants["trace_slope"]


def test_ivi_scores_probes_with_an_underflowed_power_norm_zero():
    inst = tk.build("counter26", 500)
    fams = cond.probe_families(inst.op, inst.u_dagger, 1.0)
    underflowed = 0
    for fam in fams:
        lost = (fam.ip > 0.0) & (fam.pnm == 0.0)
        underflowed += np.count_nonzero(lost)
        for gamma in (0.0, 0.25):
            need = cond._needed_beta(fam, 0.5, gamma)
            assert np.all(need[lost] == 0.0)
            assert np.all(cond._pairing_ratios(fam, 1.0 / 3.0)[lost] == 0.0)
    assert underflowed > 0
    rep = tk.check_ivi(inst.op, inst.u_dagger, 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert np.isfinite(rep.constants["needed_beta"])


def test_ivi_parameter_validation():
    inst = tk.build("counter26", 20)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("name", ["harmonic4", "identity"])
def test_ivi_with_derived_constants_builds_the_probe_families_once(
        name, monkeypatch):
    inst = tk.build(name, 60)
    calls = []
    build_families = cond.probe_families

    def counted(*args, **kwargs):
        calls.append(args)
        return build_families(*args, **kwargs)

    monkeypatch.setattr(cond, "probe_families", counted)
    rep = _check(tk.IVI, inst, 1.0)
    assert len(calls) == 1
    assert rep.verdict == inst.expected[(tk.IVI, 1.0)]


def _count_t_family_builds(monkeypatch) -> list:
    calls = []
    build_t_family = cond._t_family

    def counted(*args):
        calls.append(args)
        return build_t_family(*args)

    monkeypatch.setattr(cond, "_t_family", counted)
    return calls


@pytest.mark.parametrize("n", [60, 10_000])
def test_refuting_scan_builds_no_later_family(n, monkeypatch):
    inst = tk.build("harmonic4", n)
    calls = _count_t_family_builds(monkeypatch)
    rep = tk.check_ivi(inst.op, inst.u_dagger, 1.0)
    assert rep.verdict == tk.REFUTED_AT_N
    assert rep.witness["family"] == "head_flat"
    assert calls == []


@pytest.mark.parametrize("check", [tk.check_hvi, tk.check_ivi])
def test_certifying_scan_builds_the_t_family_once(check, monkeypatch):
    # ivi with derived constants scans the families twice, for the
    # equivalent hvi and for the needed beta, and builds them once
    inst = tk.build("identity", 60)
    calls = _count_t_family_builds(monkeypatch)
    rep = check(inst.op, inst.u_dagger, 1.0)
    assert rep.verdict == tk.CERTIFIED
    assert len(calls) == 1


def _chain_cases():
    rd = tk.build("random_diag", 60)
    (nu0,) = [p for c, p in rd.expected if c == tk.HVI]
    return [("counter26", 2.0 / 3.0), ("identity", 2.0 / 3.0),
            ("identity", 1.0), ("random_diag", 2.0 * nu0 / (1.0 + nu0))]


@pytest.mark.parametrize("name, mu", _chain_cases())
def test_ivi_derives_the_constants_of_the_certificate_chain(name, mu):
    inst = tk.build(name, 60)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, mu / (2.0 - mu))
    assert hvi.verdict == tk.CERTIFIED
    _, beta, gamma = tk.ivi_from_hvi_report(hvi)
    rep = tk.check_ivi(inst.op, inst.u_dagger, mu)
    assert (rep.constants["beta"], rep.constants["gamma"]) == (beta, gamma)
    assert rep.verdict == tk.CERTIFIED


def test_ivi_falls_back_to_generic_constants_without_a_chain():
    inst = tk.build("harmonic4", 60)
    assert tk.check_hvi(inst.op, inst.u_dagger, 1.0).verdict != tk.CERTIFIED
    rep = tk.check_ivi(inst.op, inst.u_dagger, 1.0)
    assert rep.constants["beta"] == 4.0 * (1.0 + inst.u_dagger.norm())
    assert rep.constants["gamma"] == 0.0
    assert rep.verdict == tk.REFUTED_AT_N


@pytest.mark.parametrize("name, mu, given", [
    ("identity", 1.0, {"gamma": 0.25}),
    ("counter26", 2.0 / 3.0, {"beta": 5.0}),
    ("harmonic4", 1.0, {"beta": 14.0}),
    ("harmonic4", 0.5, {"gamma": 0.1}),
])
def test_ivi_keeps_a_supplied_constant_and_derives_the_other(name, mu, given):
    inst = tk.build(name, 60)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, mu / (2.0 - mu))
    if hvi.verdict == tk.CERTIFIED:
        _, beta, gamma = tk.ivi_from_hvi_report(hvi)
    else:
        beta = 4.0 * (1.0 + inst.u_dagger.norm())
        gamma = 0.0 if mu == 1.0 else 0.5
    rep = tk.check_ivi(inst.op, inst.u_dagger, mu, **given)
    want = {"beta": beta, "gamma": gamma, **given}
    assert {k: rep.constants[k] for k in want} == want


# Spectral tail ---------------------------------------------------------------

def test_tail_geometric_instance_constant_is_sqrt2():
    inst = tk.build("counter26", 60)
    rep = tk.check_spectral_tail(inst.op, inst.u_dagger, 0.5)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["C"] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_tail_harmonic_instance_order_one():
    inst = tk.build("harmonic4", 500)
    rep = tk.check_spectral_tail(inst.op, inst.u_dagger, 1.0)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants["C"] == pytest.approx(np.sqrt(np.pi ** 2 / 6.0),
                                               rel=1e-2)


def test_tail_top_supported_solution_certifies_every_order():
    inst = tk.build("counter26", 60)
    e1 = inst.op.vector(np.eye(inst.op.n)[0])
    for nu in (0.3, 1.0, 1.9):
        rep = tk.check_spectral_tail(inst.op, e1, nu)
        assert rep.verdict == tk.CERTIFIED


def test_tail_refuted_above_the_true_order():
    inst = tk.build("counter26", 60)
    rep = tk.check_spectral_tail(inst.op, inst.u_dagger, 0.9)
    assert rep.verdict == tk.REFUTED_AT_N


def test_tail_zero_solution_certifies_where_lambda_power_underflows():
    # lambda**1.9 underflows at the lowest atoms; a zero solution needs none
    op = tk.SpectralOperator.diagonal(np.logspace(0.0, -100.0, 50))
    rep = tk.check_spectral_tail(op, op.vector(np.zeros(50)), 1.9)
    assert rep.verdict == tk.CERTIFIED
    assert rep.constants == {"C": 0.0}


def test_tail_parameter_validation():
    inst = tk.build("counter26", 20)
    for nu in (0.0, 2.0):
        with pytest.raises(ValueError):
            tk.check_spectral_tail(inst.op, inst.u_dagger, nu)


# Depth order -----------------------------------------------------------------

# one parameter in the domain of each check
DEPTH_PARAMS = {tk.STANDARD_SC: 0.4, tk.HVI: 0.5, tk.SVI: 1.0,
                tk.SPECTRAL_TAIL: 0.5, tk.IVI: 1.0}


def _reordered(name, order, truncated=True):
    inst = tk.build(name, 60)
    op = tk.SpectralOperator.diagonal(inst.op.sigma[order],
                                      truncated=truncated)
    return SimpleNamespace(op=op,
                           u_dagger=op.vector(inst.u_dagger.coeffs[order]))


# reversed, and sorted but for one adjacent pair deep in the section
ORDERS = {"reversed": np.arange(60)[::-1],
          "one_swap": np.r_[0:40, 41, 40, 42:60]}


@pytest.mark.parametrize("condition", DEPTH_PARAMS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ["counter26", "remark_nu_gap"])
def test_checks_refuse_a_section_out_of_depth_order(name, order, condition):
    inst = _reordered(name, ORDERS[order])
    with pytest.raises(ValueError, match="non-increasing order"):
        _check(condition, inst, DEPTH_PARAMS[condition])


@pytest.mark.parametrize("condition", DEPTH_PARAMS)
def test_checks_accept_exact_sections_in_any_order_and_ties(condition):
    exact = _reordered("counter26", ORDERS["reversed"], truncated=False)
    assert _check(condition, exact, DEPTH_PARAMS[condition]).verdict \
        == tk.CERTIFIED
    flat = tk.SpectralOperator.diagonal(np.ones(20))
    ties = SimpleNamespace(op=flat,
                           u_dagger=flat.vector(np.exp2(-np.arange(20))))
    _check(condition, ties, DEPTH_PARAMS[condition])


# Cross-condition properties --------------------------------------------------

def test_certified_hvi_implies_projection_bound_at_every_atom():
    """A certified pairing constant bounds the low-frequency mass directly."""
    for name, nu in (("counter26", 0.5), ("random_diag", None)):
        inst = tk.build(name, 60, seed=9)
        if nu is None:
            nu = min(1.0, [p for c, p in inst.expected if c == tk.HVI][0])
        rep = tk.check_hvi(inst.op, inst.u_dagger, nu)
        assert rep.verdict == tk.CERTIFIED
        beta = rep.constants["beta"]
        for lam in np.sort(inst.op.lambdas):
            e_norm = tk.spectral_projection_norm(inst.op, inst.u_dagger, lam)
            assert e_norm ** 2 <= beta * lam ** (nu / 2.0) * e_norm \
                * (1.0 + 1e-9) + 1e-300


def test_certified_tail_constant_converts_into_both_inequalities():
    """A certified tail dominates every probe of the homogeneous and the
    symmetrized inequality through the constructive conversion constant."""
    for seed in range(8):
        inst = tk.build("random_diag", 60, seed=seed)
        nu = min(0.95, [p for c, p in inst.expected
                        if c == tk.SPECTRAL_TAIL][0])
        tail = tk.check_spectral_tail(inst.op, inst.u_dagger, nu)
        assert tail.verdict == tk.CERTIFIED
        c_const = tail.constants["C"]
        for rho, checker in ((1.0, tk.check_hvi), (2.0, tk.check_svi)):
            beta = tk.scr_to_vi_certificate(c_const, nu, rho)
            rep = checker(inst.op, inst.u_dagger, nu)
            assert rep.verdict == tk.CERTIFIED
            assert 2.0 * rep.constants["beta_lower"] <= beta * (1.0 + 1e-9)


@st.composite
def _exact_problems(draw):
    """Exact diagonal problems with rho and a tail order nu < min(rho, 2).
    Each coefficient is 0 or has a square far from underflow: the masses
    are squares, the probe ratios are not."""
    n = draw(st.integers(1, 30))
    sigma = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))
    u = draw(st.lists(coeff, min_size=n, max_size=n))
    rho = draw(st.sampled_from([1.0, 2.0]))
    nu = draw(st.floats(0.01, min(rho, 2.0), exclude_max=True))
    op = tk.SpectralOperator.diagonal(sigma, truncated=False)
    return op, op.vector(u), nu, rho


@settings(max_examples=150, deadline=None)
@given(case=_exact_problems())
def test_tail_constant_bounds_every_split_value(case):
    """``T(lam) <= C**2 lam**nu`` bounds each half-mass split value by
    ``2 C / (1 - nu/rho)**(nu/(2 rho))``, half the doubled-form constant, so
    the tail route can only decide where the split bound does not stand."""
    op, u, nu, rho = case
    tail = tk.check_spectral_tail(op, u, nu)
    assert tail.verdict == tk.CERTIFIED
    bound = tk.scr_to_vi_certificate(tail.constants["C"], nu, rho) / 2.0
    h = cond._split_upper_bound(op, u.coeffs, nu, rho)
    assert np.max(h) <= bound * (1.0 + 1e-12)
    check = tk.check_hvi if rho == 1.0 else tk.check_svi
    assert check(op, u, nu).constants["beta_lower"] <= bound * (1.0 + 1e-12)


#: constants of degree 1 in u+: they scale as u+ does
DEGREE_ONE = {"beta", "beta_lower", "beta_direct", "beta_from_tail", "tail_C",
              "C", "omega_norm", "omega_norm_partial"}


def test_scaling_invariance_of_verdicts_and_constants():
    # every documented (instance, condition, parameter) at n = 60, at scales
    # whose squares underflow (1e-170) or whose sums of squares overflow
    for name in tk.INSTANCE_NAMES:
        inst = tk.build(name, 60)
        for condition, param in sorted(inst.expected):
            base = _check(condition, inst, param)
            for c in (0.125, 3.0, 17.0, 1e-150, 1e-170, 1e150):
                scaled = SimpleNamespace(op=inst.op, u_dagger=inst.op.vector(
                    c * inst.u_dagger.coeffs))
                rep = _check(condition, scaled, param)
                where = (name, condition, param, c)
                assert rep.verdict == base.verdict, where
                # at fixed gamma, ivi's needed beta has degree 2 - mu; its
                # beta need not scale (the 4 (1 + ||u+||) fallback)
                degree = ({"needed_beta": 2.0 - param} if condition == tk.IVI
                          else dict.fromkeys(DEGREE_ONE, 1.0))
                for key in degree.keys() & base.constants.keys():
                    assert rep.constants[key] == pytest.approx(
                        c ** degree[key] * base.constants[key], rel=1e-9,
                        abs=0.0), (*where, key)


def test_chained_ivi_certificate_that_underflows_refuses():
    # the chained beta has degree 3/2 in u+: near 1e-450 at u+ * 1e-300
    inst = tk.build("counter26", 60)
    assert tk.check_ivi(inst.op, inst.u_dagger, 0.5).verdict == tk.CERTIFIED
    tiny = inst.op.vector(1e-300 * inst.u_dagger.coeffs)
    with pytest.raises(ValueError, match="the ivi certificate leaves the "
                       "float range at this scale of the solution"):
        tk.check_ivi(inst.op, tiny, 0.5)


def test_closed_range_equivalence_on_exact_instances():
    for seed in range(6):
        inst = tk.build("finite_rank", 32, seed=seed)
        nu = 0.5
        mu = 2.0 * nu / (1.0 + nu)
        hvi = tk.check_hvi(inst.op, inst.u_dagger, nu)
        assert hvi.verdict == tk.CERTIFIED
        _, beta, gamma = tk.hvi_to_ivi_certificate(
            2.0 * hvi.constants["beta"], nu)
        ivi = tk.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma)
        assert ivi.verdict == tk.CERTIFIED
        ssc = tk.check_standard_sc(inst.op, inst.u_dagger, nu)
        assert ssc.verdict == tk.CERTIFIED


@st.composite
def _diagonal_sections(draw):
    """Small diagonal sections with ``k**-a`` or ``q**k`` spectra and
    solutions, random signs, a leading zero run and periodic zeros."""
    n = draw(st.integers(8, 40))
    k = np.arange(1, n + 1, dtype=float)

    def profile():
        if draw(st.booleans()):
            return k ** -draw(st.floats(0.25, 3.0))
        return draw(st.floats(0.3, 0.95)) ** k

    sigma, u = profile(), profile()
    u *= draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    u[:draw(st.integers(0, n // 2))] = 0.0
    period = draw(st.integers(1, 4))
    if period > 1:
        u[draw(st.integers(0, period - 1))::period] = 0.0
    op = tk.SpectralOperator.diagonal(sigma)
    return op, op.vector(u)


@settings(max_examples=150, deadline=None)
@given(case=_diagonal_sections(), nu=st.floats(0.05, 1.0))
def test_checks_certify_only_with_finite_constants(case, nu):
    op, u = case
    for check in (tk.check_standard_sc, tk.check_hvi, tk.check_svi,
                  tk.check_spectral_tail, tk.check_ivi):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rep = check(op, u, nu)
            except ValueError:  # an explicit refusal
                continue
        if rep.verdict == tk.CERTIFIED:
            assert all(np.isfinite(v) for v in rep.constants.values()), \
                (check.__name__, rep.constants)


def test_report_serialization_schema():
    inst = tk.build("counter26", 40)
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    payload = rep.to_json()
    assert set(payload) == {"condition", "parameter", "verdict", "constants",
                            "diagnostics", "truncation", "witness", "notes"}
    text = json.dumps(payload)
    assert json.loads(text)["truncation"] == 40


def test_checks_are_deterministic_for_fixed_seed():
    # no check draws random numbers: repeated calls agree bit for bit
    inst = tk.build("counter26", 60)
    for condition, param in ((tk.HVI, 0.5), (tk.SVI, 0.5), (tk.IVI, 2 / 3)):
        a = _check(condition, inst, param)
        assert a.to_json() == _check(condition, inst, param).to_json()


# Truth-free invariants -------------------------------------------------------
# A check of a diagonal section may depend only on the spectral measure of u+
# and on its parameter: a verdict is monotone in the parameter, and the signs
# of u+ move none.  The sections are the closed-form grid's power-law
# (sigma = k**-a, u = k**-b) and geometric (sigma = q**k, u = q**(pk))
# problems, plain, with amplitudes in [0.4, 1], with a zero head of 3 or 10
# terms, or with every third term zero.

GRID_PROBLEMS = ([("power", a, b) for a in (0.5, 1.0, 2.0)
                  for b in (0.6, 0.75, 1.0, 1.5, 2.5)]
                 + [("geometric", q, p) for q in (0.5, 0.8, 0.95)
                    for p in (0.25, 0.5, 1.0, 1.5)])
#: each check's parameters, in steps of 0.05 across its domain
PARAM_GRIDS = {c: [round(0.05 * i, 2) for i in range(1, steps + 1)]
               for c, steps in ((tk.STANDARD_SC, 40), (tk.HVI, 20),
                                (tk.SVI, 40), (tk.SPECTRAL_TAIL, 39),
                                (tk.IVI, 20))}


@st.composite
def _grid_sections(draw):
    kind, s, t = draw(st.sampled_from(GRID_PROBLEMS), label="problem")
    n = draw(st.sampled_from([60, 250]), label="n")
    k = np.arange(1, n + 1, dtype=float)
    sigma, u = (k ** -s, k ** -t) if kind == "power" else (s ** k, s ** (t * k))
    variant = draw(st.sampled_from(["plain", "amplitudes", "head3", "head10",
                                    "third"]), label="variant")
    if variant == "amplitudes":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        u = u * rng.uniform(0.4, 1.0, n)
    elif variant == "third":
        u[2::3] = 0.0
    elif variant != "plain":
        u[:int(variant[4:])] = 0.0
    op = tk.SpectralOperator.diagonal(sigma)
    return SimpleNamespace(op=op, u_dagger=op.vector(u), problem=(kind, s, t))


@settings(max_examples=120, deadline=None)
@given(inst=_grid_sections(), condition=st.sampled_from(sorted(PARAM_GRIDS)))
def test_verdicts_are_monotone_in_the_parameter(inst, condition):
    # a condition that holds at a parameter holds at every smaller one
    verdicts = [_check(condition, inst, p).verdict
                for p in PARAM_GRIDS[condition]]
    if tk.REFUTED_AT_N in verdicts:
        first = verdicts.index(tk.REFUTED_AT_N)
        assert tk.CERTIFIED not in verdicts[first:], verdicts


@settings(max_examples=150, deadline=None)
@given(inst=_grid_sections(), condition=st.sampled_from(sorted(PARAM_GRIDS)),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_sign_flips_of_the_solution_move_no_verdict(inst, condition, seed,
                                                    data):
    params = data.draw(st.lists(st.sampled_from(PARAM_GRIDS[condition]),
                                min_size=1, max_size=4, unique=True),
                       label="params")
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], inst.op.n)
    flipped = SimpleNamespace(op=inst.op,
                              u_dagger=inst.op.vector(signs
                                                      * inst.u_dagger.coeffs))
    for p in params:
        assert (_check(condition, flipped, p).verdict
                == _check(condition, inst, p).verdict), p


@settings(max_examples=150, deadline=None)
@given(inst=_grid_sections(), condition=st.sampled_from(sorted(PARAM_GRIDS)),
       data=st.data())
def test_power_of_two_scales_of_the_solution_move_no_verdict(inst, condition,
                                                              data):
    # every check reads u+ at its power of two, so u+ and 2**k u+ give the
    # same verdicts and degree-1 constants exactly 2**k times as large, down
    # to max|u+| near 2**-560 and up to 2**498, with no entry subnormal
    d = inst.u_dagger.coeffs
    e_max = math.frexp(np.abs(d).max())[1]
    e_min = math.frexp(np.abs(d[d != 0.0]).min())[1]
    k = data.draw(st.integers(max(-560 - e_max, -1021 - e_min),
                              498 - e_max), label="k")
    scaled = SimpleNamespace(op=inst.op,
                             u_dagger=inst.op.vector(np.ldexp(d, k)))
    params = data.draw(st.lists(st.sampled_from(PARAM_GRIDS[condition]),
                                min_size=1, max_size=2, unique=True),
                       label="params")
    for p in params:
        base, rep = _check(condition, inst, p), _check(condition, scaled, p)
        if condition == tk.IVI:
            # the 4 (1 + ||u+||) fallback of an open hvi does not scale
            if _check(tk.HVI, inst, p / (2.0 - p)).verdict != tk.INCONCLUSIVE:
                assert rep.verdict == base.verdict, p
            continue
        assert rep.verdict == base.verdict, p
        for key in ("beta", "beta_lower", "C", "omega_norm"):
            if key in base.constants:
                assert rep.constants[key] == np.ldexp(base.constants[key], k)


def _doubled(inst):
    """Each singular value twice, with u+ / sqrt(2) on each copy: the same
    spectral measure of u+ on twice the coordinates."""
    op = tk.SpectralOperator.diagonal(np.repeat(inst.op.sigma, 2))
    return SimpleNamespace(op=op, u_dagger=op.vector(
        np.repeat(inst.u_dagger.coeffs, 2) / np.sqrt(2.0)))


@settings(max_examples=300, deadline=None)
@given(inst=_grid_sections(),
       condition=st.sampled_from([tk.STANDARD_SC, tk.SPECTRAL_TAIL]),
       data=st.data())
def test_repeated_singular_values_move_no_ssc_or_tail_verdict(inst, condition,
                                                              data):
    # both checks read depth in atoms, so a repeated singular value is one
    # depth step and only the measure of u+ decides
    params = data.draw(st.lists(st.sampled_from(PARAM_GRIDS[condition]),
                                min_size=1, max_size=4, unique=True),
                       label="params")
    doubled = _doubled(inst)
    for p in params:
        assert (_check(condition, doubled, p).verdict
                == _check(condition, inst, p).verdict), p


def test_ssc_term_exponent_on_the_convergent_threshold_certifies():
    # terms k**(2 (0.5 * 0.35 - 0.75)) = k**-1.15 sit on POWER_CONVERGENT;
    # the fitted exponent differs from it in its last bits only, and by
    # opposite signs on the section and on its doubled twin
    k = np.arange(1.0, 251.0)
    op = tk.SpectralOperator.diagonal(k ** -0.5)
    inst = SimpleNamespace(op=op, u_dagger=op.vector(
        np.where(k > 10, k ** -0.75, 0.0)))
    for section in (inst, _doubled(inst)):
        rep = tk.check_standard_sc(section.op, section.u_dagger, 0.35)
        assert rep.verdict == tk.CERTIFIED
        assert rep.constants["power_exponent"] == pytest.approx(
            cond.POWER_CONVERGENT, abs=1e-12)


def test_ssc_counts_a_repeated_singular_value_as_one_depth_step():
    k = np.arange(1.0, 61.0)
    op = tk.SpectralOperator.diagonal(0.95 ** k)
    inst = SimpleNamespace(op=op, u_dagger=op.vector(0.95 ** (k / 2.0)))
    for section in (inst, _doubled(inst)):
        rep = tk.check_standard_sc(section.op, section.u_dagger, 0.25)
        assert rep.verdict == tk.CERTIFIED
        assert rep.truncation == section.op.n
        assert len(rep.diagnostics) == 60


# Extremal t-family -----------------------------------------------------------


def _pow2_copy(d):
    """``d * 2**-e`` with max|d * 2**-e| in [1/2, 1): the copy of u+ that
    every check computes on."""
    return np.ldexp(d, -math.frexp(np.abs(d).max())[1])


def _explicit_family(probes, d, wpow):
    """A probe family holding the rows of ``probes``."""
    sq = probes ** 2
    arrays = probes @ d, np.sqrt(sq.sum(axis=1)), np.sqrt(sq @ wpow)
    return cond._Family("explicit", np.arange(len(probes)), lambda: arrays,
                        ordered=False)


def _t_curve(d, wpow, tau):
    """``u+ / (wpow + e**tau)`` per tau, each row scaled to unit maximum."""
    u = d / (wpow + np.exp(tau)[:, None])
    return u / np.abs(u).max(axis=1, keepdims=True)


def _curve_supremum(d, wpow, score):
    """The best ``score`` on a 10^5-point scan of the curve ``u+ / (wpow +
    t)`` with its ends ``u+ / wpow`` and ``u+``, and the supremum on the
    curve: that scan refined around its best point."""
    lo, hi = np.log(wpow.min() / 1e3), np.log(wpow.max() * 1e3)
    tau = np.linspace(lo, hi, 100_000)
    scan = score(_explicit_family(np.vstack(
        [d / wpow, _t_curve(d, wpow, tau), d]), d, wpow))
    scan_best = sup = scan.max()
    k = int(np.argmax(scan)) - 1
    if 0 <= k < tau.size:
        h = tau[1] - tau[0]
        fine = np.linspace(tau[k] - h, tau[k] + h, 2001)
        sup = max(sup, score(_explicit_family(
            _t_curve(d, wpow, fine), d, wpow)).max())
    return scan_best, sup


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_t_family_attains_the_supremum_of_random_probes(seed):
    """On small diagonal systems no random probe beats the curve ``u+ / (w
    + t)``, and the t grid is within 1e-4 of a 10^5-point scan of it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    # in depth order, which a truncated section must keep
    sigma = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1]
    d = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 0.0, n)
    op = tk.SpectralOperator.diagonal(sigma)
    u = op.vector(d)
    d = _pow2_copy(d)  # the copy the families are built from
    nu, mu, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.99), \
        rng.uniform(0.01, 0.99)
    cases = ((1.0, lambda f: cond._pairing_ratios(f, nu)),      # hvi at nu
             (2.0, lambda f: cond._pairing_ratios(f, nu)),      # svi at 2 nu
             (1.0, lambda f: cond._needed_beta(f, mu, gamma)))  # ivi
    random = rng.standard_normal((10_000, n))
    random[5_000:] = np.abs(random[5_000:]) * np.sign(d)  # sign-aligned
    for rho, score in cases:
        wpow = sigma ** (2.0 * rho)
        t_fam = cond.probe_families(op, u, rho)[-1]
        assert t_fam.label == "t_family"
        grid_best = score(t_fam).max()
        scan_best, sup = _curve_supremum(d, wpow, score)
        rand_best = score(_explicit_family(random, d, wpow)).max()
        assert rand_best <= sup * (1.0 + 1e-9)
        assert grid_best <= sup * (1.0 + 1e-9)
        assert grid_best >= sup * (1.0 - 1e-4)
        assert abs(grid_best - scan_best) <= 1e-4 * scan_best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_no_structured_family_beats_the_t_family(seed):
    """On small truncated sections no structured family's pairing ratio or
    needed beta beats the supremum on the curve ``u+ / (w + t)``, which the
    t grid reads within 1e-4: a supremum read on the t-family alone misses
    no structured probe."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    sigma = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1]
    d = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 0.0, n)
    zero = rng.uniform(size=n) < 0.2
    zero[rng.integers(n)] = False  # some mass is left
    d[zero] = 0.0
    op = tk.SpectralOperator.diagonal(sigma)
    u = op.vector(d)
    d = _pow2_copy(d)  # the copy the families are built from
    nu, mu, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.05, 0.99), \
        rng.uniform(0.01, 0.99)
    cases = ((1.0, lambda f: cond._pairing_ratios(f, nu)),        # hvi
             (2.0, lambda f: cond._pairing_ratios(f, nu)),        # svi
             (1.0, lambda f: cond._needed_beta(f, 1.0, 0.0)),     # ivi, mu 1
             (1.0, lambda f: cond._needed_beta(f, mu, gamma)))    # ivi, mu < 1
    for rho, score in cases:
        *structured, t_fam = cond.probe_families(op, u, rho)
        assert t_fam.label == "t_family"
        assert all(f.ordered for f in structured)
        sup = _curve_supremum(d, sigma ** (2.0 * rho), score)[1]
        grid_best = score(t_fam).max()
        for fam in structured:
            best = score(fam).max()
            assert best <= sup * (1.0 + 1e-9), fam.label
            assert best <= grid_best * (1.0 + 1e-4), fam.label


# Probe stream -----------------------------------------------------------------
# The t-family stands in for the old random probe block and, like it, is
# streamed through chunks; these tests keep that block's names.


def _t_family_reference(op, d, rho):
    """The t-family computed over one whole (grid, n) block of probes
    ``e**r u+ / (w + t)``, ``r = max(log t, log w_min)``, with t = inf last."""
    wpow = op.sigma ** (2.0 * rho)
    s = rho * np.log(op.lambdas)
    margin = np.log(cond.T_MARGIN)
    tau = np.concatenate(([-np.inf], np.linspace(
        s.min() - margin, s.max() + margin, cond.T_GRID_POINTS)))
    x = d * np.exp(np.maximum(tau, s.min()))[:, None] \
        / (wpow + np.exp(tau)[:, None])
    x = np.vstack([x, d])
    return x @ d, np.linalg.norm(x, axis=1), np.sqrt((x ** 2) @ wpow)


def _assert_t_family_matches_reference(op, u, rho):
    fam = cond.probe_families(op, u, rho)[-1]
    assert fam.label == "t_family"
    ip, nrm, pnm = _t_family_reference(op, _pow2_copy(u.coeffs), rho)
    assert np.array_equal(fam.index, np.arange(cond.T_GRID_POINTS + 2))
    np.testing.assert_allclose(fam.ip, ip, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fam.nrm, nrm, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fam.pnm, pnm, rtol=1e-12, atol=0.0)


# n = 60 and 65 stream the grid in two chunks, the last one short; larger n
# in ever more chunks, down to one grid row per chunk at n = 10^4
@pytest.mark.parametrize("n", [60, 65, 400, 900, 10_000])
@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_random_probe_stream_matches_whole_block_reference(n, rho):
    inst = tk.build("harmonic4", n)
    _assert_t_family_matches_reference(inst.op, inst.u_dagger, rho)


def test_random_probe_stream_matches_reference_on_zero_coefficients():
    # zero-mass atoms stay in the spectrum, so they still span the t grid
    inst = tk.build("harmonic4", 400)
    coeffs = inst.u_dagger.coeffs.copy()
    coeffs[::3] = 0.0
    u = tk.CoeffVector(coeffs, inst.u_dagger.frame)
    _assert_t_family_matches_reference(inst.op, u, 1.0)


def test_probe_families_are_the_documented_ones():
    inst = tk.build("counter26", 60)
    fams = cond.probe_families(inst.op, inst.u_dagger, 1.0)
    labels = [f.label for f in fams]
    assert labels == ["basis", "head", "head_flat", "head_inv_weight",
                      "window4_inv_weight", "window8_inv_weight",
                      "window16_inv_weight", "tail", "t_family"]
    # an exact section has no depth, so no divergence trace to read
    inst = tk.build("identity", 60)
    assert not inst.op.truncated
    fams = cond.probe_families(inst.op, inst.u_dagger, 1.0)
    assert [f.label for f in fams] == ["t_family"]


def _without_every_third(u):
    u = u.copy()
    u[2::3] = 0.0  # k = 3, 6, 9, ...
    return u


_K60, _K250, _K1000 = (np.arange(1, n + 1, dtype=float)
                       for n in (60, 250, 1000))


# Each structured family decides a verdict that no other does: without it
# the refutation below moves.  Truth from the closed forms, nu* = p for
# sigma = q**k, u = q**(pk) and nu* = (2b - 1) / (2a) for sigma = k**-a,
# u = k**-b (zero heads and zeros on every third term change neither): the
# refutations hold, nu > nu*, except in the head_flat and window8 cases,
# which sit at nu = nu* and so pin the current growth rule, not the truth.
_FAMILY_CASES = [
    ("basis", 0.8 ** _K1000, 0.8 ** (_K1000 / 4.0), tk.check_svi, 0.5,
     tk.CERTIFIED),
    ("head", 0.95 ** _K250, _without_every_third(0.95 ** (_K250 / 2.0)),
     tk.check_hvi, 0.75, tk.CERTIFIED),
    ("head_flat", _K60 ** -0.5, _K60 ** -1.5, tk.check_svi, 2.0,
     tk.INCONCLUSIVE),
    ("head_inv_weight", 1.0 / _K60, _without_every_third(1.0 / _K60),
     tk.check_svi, 1.0, tk.CERTIFIED),
    ("window4_inv_weight", 0.5 ** _K60, _without_every_third(0.5 ** _K60),
     tk.check_svi, 1.5, tk.INCONCLUSIVE),
    ("window8_inv_weight", 0.8 ** _K60,
     np.where(_K60 > 10, 0.8 ** (_K60 / 4.0), 0.0), tk.check_hvi, 0.25,
     tk.CERTIFIED),
    ("window16_inv_weight", 1.0 / _K60, _K60 ** -1.5, tk.check_svi, 1.5,
     tk.CERTIFIED),
    ("tail", 0.5 ** _K60, np.where(_K60 > 10, 0.5 ** _K60, 0.0),
     tk.check_svi, 1.5, tk.INCONCLUSIVE),
]


@pytest.mark.parametrize("family, sigma, u, check, nu, without",
                         _FAMILY_CASES, ids=[c[0] for c in _FAMILY_CASES])
def test_each_structured_family_decides_a_verdict(family, sigma, u, check,
                                                   nu, without, monkeypatch):
    op = tk.SpectralOperator.diagonal(sigma)
    u = op.vector(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check(op, u, nu)
        assert rep.verdict == tk.REFUTED_AT_N
        assert rep.witness["family"] == family
        build_families = cond.probe_families
        monkeypatch.setattr(cond, "probe_families", lambda *a, **kw: [
            f for f in build_families(*a, **kw) if f.label != family])
        assert check(op, u, nu).verdict == without


def test_probe_families_ignore_the_seed():
    inst = tk.build("random_diag", 60, seed=3)
    a = cond.probe_families(inst.op, inst.u_dagger, 1.0, seed=0)
    b = cond.probe_families(inst.op, inst.u_dagger, 1.0, seed=1)
    assert [f.label for f in a] == [f.label for f in b]
    for fa, fb in zip(a, b):
        for field in ("index", "ip", "nrm", "pnm"):
            assert np.array_equal(getattr(fa, field), getattr(fb, field))


@pytest.mark.parametrize("name, n, nu, beta_lower", [
    ("counter26", 60, 0.5, 2.129),
    ("remark_nu_gap", 60, 0.25, 1.704),
    ("identity", 60, 0.5, 1.0),
    ("harmonic4", 100_000, 0.5, 1.458),
])
def test_t_family_lower_brackets(name, n, nu, beta_lower):
    inst = tk.build(name, n)
    rep = tk.check_hvi(inst.op, inst.u_dagger, nu)
    assert rep.verdict == tk.CERTIFIED
    assert round(rep.constants["beta_lower"], 3) == beta_lower
    assert rep.constants["beta_lower"] <= rep.constants["beta"]


def test_probe_families_memory_does_not_scale_with_the_block():
    inst = tk.build("harmonic4", 20_000)
    tracemalloc.start()
    try:
        # the families build on first read, so each one is read here
        for fam in cond.probe_families(inst.op, inst.u_dagger, 1.0):
            fam.ip, fam.nrm, fam.pnm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
