"""Tests for the condition checkers and certificate conversions."""

import json
import warnings

import numpy as np
import pytest

import tikrates as tk
from tikrates import conditions as cond

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


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
    e1 = inst.op.basis_vector(0)
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


def test_ssc_exact_operator_always_certifies():
    inst = tk.build("finite_rank", 40, seed=2)
    for nu in (0.5, 1.0, 2.0):
        assert tk.check_standard_sc(inst.op, inst.u_dagger, nu).verdict \
            == tk.CERTIFIED


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
    assert rep.constants["tail_C"] == pytest.approx(np.sqrt(2.0), rel=1e-12)


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


def test_ivi_parameter_validation():
    inst = tk.build("counter26", 20)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        tk.check_ivi(inst.op, inst.u_dagger, 0.5, 1.0, 1.0)


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
    e1 = inst.op.basis_vector(0)
    for nu in (0.3, 1.0, 1.9):
        rep = tk.check_spectral_tail(inst.op, e1, nu)
        assert rep.verdict == tk.CERTIFIED


def test_tail_refuted_above_the_true_order():
    inst = tk.build("counter26", 60)
    rep = tk.check_spectral_tail(inst.op, inst.u_dagger, 0.9)
    assert rep.verdict == tk.REFUTED_AT_N


def test_tail_parameter_validation():
    inst = tk.build("counter26", 20)
    for nu in (0.0, 2.0):
        with pytest.raises(ValueError):
            tk.check_spectral_tail(inst.op, inst.u_dagger, nu)


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
            rep = checker(inst.op, inst.u_dagger, nu, seed=seed, n_random=200)
            assert rep.verdict == tk.CERTIFIED
            assert 2.0 * rep.constants["beta_lower"] <= beta * (1.0 + 1e-9)


def test_scaling_invariance_of_verdicts_and_constants():
    inst = tk.build("counter26", 60)
    base_hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    base_tail = tk.check_spectral_tail(inst.op, inst.u_dagger, 0.5)
    base_ssc = tk.check_standard_sc(inst.op, inst.u_dagger, 0.4)
    for c in (0.125, 3.0, 17.0):
        scaled = inst.u_dagger.scaled(c)
        hvi = tk.check_hvi(inst.op, scaled, 0.5)
        assert hvi.verdict == base_hvi.verdict
        assert hvi.constants["beta"] == pytest.approx(
            c * base_hvi.constants["beta"], rel=1e-9)
        tail = tk.check_spectral_tail(inst.op, scaled, 0.5)
        assert tail.verdict == base_tail.verdict
        assert tail.constants["C"] == pytest.approx(
            c * base_tail.constants["C"], rel=1e-9)
        ssc = tk.check_standard_sc(inst.op, scaled, 0.4)
        assert ssc.verdict == base_ssc.verdict
        assert ssc.constants["omega_norm"] == pytest.approx(
            c * base_ssc.constants["omega_norm"], rel=1e-9)


def test_closed_range_equivalence_on_exact_instances():
    for seed in range(6):
        inst = tk.build("finite_rank", 32, seed=seed)
        nu = 0.5
        mu = 2.0 * nu / (1.0 + nu)
        hvi = tk.check_hvi(inst.op, inst.u_dagger, nu, seed=seed)
        assert hvi.verdict == tk.CERTIFIED
        _, beta, gamma = tk.hvi_to_ivi_certificate(
            2.0 * hvi.constants["beta"], nu)
        ivi = tk.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma, seed=seed)
        assert ivi.verdict == tk.CERTIFIED
        ssc = tk.check_standard_sc(inst.op, inst.u_dagger, nu)
        assert ssc.verdict == tk.CERTIFIED


def test_report_serialization_schema():
    inst = tk.build("counter26", 40)
    rep = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    payload = rep.to_json()
    assert set(payload) == {"condition", "parameter", "verdict", "constants",
                            "diagnostics", "truncation", "witness", "notes"}
    text = json.dumps(payload)
    assert json.loads(text)["truncation"] == 40


def test_checks_are_deterministic_for_fixed_seed():
    inst = tk.build("counter26", 60)
    a = tk.check_hvi(inst.op, inst.u_dagger, 0.5, seed=123)
    b = tk.check_hvi(inst.op, inst.u_dagger, 0.5, seed=123)
    assert a.to_json() == b.to_json()
