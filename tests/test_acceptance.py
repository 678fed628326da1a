"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its timing.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import tikrates as tk
from tikrates.rates import NoiseModel, _noisy_errors
from tikrates.suites import cs_bound_suite, split_point_suite, tail_bound_suite

from helpers import null_data_directions

TWO_SQRT2 = 2.0 * np.sqrt(2.0)


class Gate:
    """Collects sub-checks for one criterion and prints one verdict line."""

    def __init__(self, number, name, budget=None):
        self.number = number
        self.name = name
        self.budget = budget
        self.failures = []
        self.t0 = time.monotonic()

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def finish(self):
        elapsed = time.monotonic() - self.t0
        if self.budget is not None:
            self.check(elapsed < self.budget,
                       f"runtime {elapsed:.1f}s exceeds {self.budget}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"[acceptance {self.number}] {self.name}: {status} "
              f"({elapsed:.1f}s)")
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_1_geometric_instance_conformance():
    gate = Gate(1, "geometric instance conformance at depth 60", budget=5.0)
    inst = tk.build("counter26", 60)
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    gate.check(hvi.verdict == tk.CERTIFIED, f"hvi verdict {hvi.verdict}")
    gate.check(hvi.constants.get("beta", np.inf) <= TWO_SQRT2,
               f"beta {hvi.constants.get('beta')} above 2*sqrt(2)")
    ssc_half = tk.check_standard_sc(inst.op, inst.u_dagger, 0.5)
    gate.check(ssc_half.verdict == tk.REFUTED_AT_N,
               f"smoothness at 1/2 gave {ssc_half.verdict}")
    ssc_45 = tk.check_standard_sc(inst.op, inst.u_dagger, 0.45)
    gate.check(ssc_45.verdict == tk.CERTIFIED,
               f"smoothness at 0.45 gave {ssc_45.verdict}")
    gate.finish()


def test_criterion_2_harmonic_instance():
    gate = Gate(2, "harmonic instance: tail order 1, inhomogeneous "
                   "inequality defeated", budget=10.0)
    prev_ratio = 0.0
    for n in (100, 1000, 10000):
        inst = tk.build("harmonic4", n)
        tail = tk.check_spectral_tail(inst.op, inst.u_dagger, 1.0)
        gate.check(tail.verdict == tk.CERTIFIED,
                   f"tail at n={n} gave {tail.verdict}")
        mu, beta, gamma = tk.hvi_to_ivi_certificate(4.0, 1.0)
        ivi = tk.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma)
        gate.check(ivi.verdict == tk.REFUTED_AT_N,
                   f"ivi at n={n} gave {ivi.verdict}")
        w = ivi.witness
        gate.check(w["family"] == "head_flat",
                   f"unexpected witness family {w['family']}")
        # the averaging witness: evaluate its ratio at scale 1/index
        s = 1.0 / w["index"]
        ratio = 2.0 * s * w["ip"] / (s * w["pnorm"] + s ** 2 * w["norm"] ** 2)
        h_n = float(np.sum(1.0 / np.arange(1, n + 1)))
        gate.check(ratio >= np.sqrt(h_n),
                   f"witness ratio {ratio:.3f} below sqrt(H_n) "
                   f"{np.sqrt(h_n):.3f} at n={n}")
        gate.check(ratio > prev_ratio, f"ratio not growing at n={n}")
        prev_ratio = ratio
    gate.finish()


def test_criterion_3_remark_instance():
    gate = Gate(3, "remark instance: smoothness below 1/2 only, basis "
                   "vectors defeat the homogeneous inequality")
    inst = tk.build("remark_nu_gap", 60)
    for rho in (0.3, 0.4, 0.45):
        rep = tk.check_standard_sc(inst.op, inst.u_dagger, rho)
        gate.check(rep.verdict == tk.CERTIFIED,
                   f"smoothness at {rho} gave {rep.verdict}")
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    gate.check(hvi.verdict == tk.REFUTED_AT_N, f"hvi gave {hvi.verdict}")
    gate.check(hvi.witness["family"] == "basis",
               f"witness family {hvi.witness['family']}")
    # witness ratios grow linearly with the basis index on this instance
    trace = dict()
    for idx, ratio in hvi.diagnostics:
        trace[idx] = ratio
    sampled = [trace[k] / k for k in sorted(trace) if k >= 2]
    gate.check(max(sampled) == pytest.approx(min(sampled), rel=1e-6),
               "basis witness ratios are not proportional to the index")
    gate.finish()


def test_criterion_4_rate_reproduction():
    gate = Gate(4, "rate orders 1/4 (noise-free) and 1/3 (noisy)", budget=30.0)
    inst = tk.build("counter26", 60)
    nf = tk.noise_free_rate(inst.op, inst.y, np.logspace(-10, -4, 25))
    gate.check(abs(nf.slope - 0.25) <= 0.03,
               f"noise-free slope {nf.slope:.4f} not within 0.25 +- 0.03")
    ny = tk.noisy_rate(inst.op, inst.y, np.logspace(-8, -2, 25), 2.0 / 3.0,
                       NoiseModel(kind=tk.WORST_CASE_BASIS))
    gate.check(abs(ny.slope - 1.0 / 3.0) <= 0.04,
               f"noisy slope {ny.slope:.4f} not within 1/3 +- 0.04")
    gate.finish()


def test_criterion_5_error_bound_zero_violations():
    gate = Gate(5, "certificate chain error bound holds on the whole grid")
    inst = tk.build("counter26", 60)
    tail = tk.check_spectral_tail(inst.op, inst.u_dagger, 0.5)
    gate.check(tail.verdict == tk.CERTIFIED, "tail certificate missing")
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    gate.check(hvi.verdict == tk.CERTIFIED, "homogeneous certificate missing")
    mu, beta, gamma = tk.ivi_from_hvi_report(hvi)
    ivi = tk.check_ivi(inst.op, inst.u_dagger, mu, beta, gamma)
    gate.check(ivi.verdict == tk.CERTIFIED,
               f"converted constants not verified: {ivi.verdict}")
    lam = inst.op.lambdas
    violations = 0
    for delta in np.logspace(-8, -2, 25):
        alpha = delta ** (2.0 - mu)
        bias = -alpha / (alpha + lam) * inst.u_dagger.coeffs
        resp = inst.op.sigma / (alpha + lam)
        gain = (delta * resp) ** 2 + 2.0 * delta * resp * np.abs(bias)
        k = int(np.argmax(gain))
        e = np.zeros(inst.op.n)
        e[k] = delta if bias[k] >= 0 else -delta
        ydelta = inst.op.data_vector(inst.y.coeffs + e)
        rep = tk.error_bound(mu, beta, gamma, delta, alpha,
                             inst.op, inst.y, ydelta)
        if not rep.holds:
            violations += 1
        # the measured worst-case error obeys the same bound
        err, _ = _noisy_errors(inst.op, inst.u_dagger, delta, alpha, None)
        if err ** 2 > rep.rhs + 1e-12:
            violations += 1
    gate.check(violations == 0, f"{violations} bound violations")
    gate.finish()


def test_criterion_6_measure_inequality_suites():
    gate = Gate(6, "measure inequalities: 10k random pairings, premise "
                   "passers, exhaustive splits", budget=60.0)
    cs = cs_bound_suite(10_000, seed=0)
    gate.check(cs["violations"] == 0,
               f"{cs['violations']} pairing-bound violations")
    gate.check(cs["worst_margin"] >= -1e-12,
               f"worst margin {cs['worst_margin']}")
    tail = tail_bound_suite(2000, seed=0)
    gate.check(tail["violations"] == 0,
               f"{tail['violations']} tail-bound violations")
    gate.check(tail["premise_passing"] > 500, "too few premise passers")
    split = split_point_suite()
    gate.check(split["violations"] == 0,
               f"{split['violations']} split violations")
    gate.check(split["cases"] == sum(4 ** k for k in range(1, 7)),
               "exhaustive split enumeration incomplete")
    gate.finish()


def test_criterion_7_implication_chain_on_random_instances():
    gate = Gate(7, "certificate chain holds on 500 random instances and "
                   "exact equivalence on finite ranks")
    rng = np.random.default_rng(2024)
    n = 60
    idx = np.arange(1, n + 1, dtype=float)
    chain_failures = 0
    for i in range(500):
        q = rng.uniform(0.4, 0.85)
        decay = rng.uniform(0.5, 0.9)
        nu = float(rng.uniform(0.3, 1.0))
        op = tk.SpectralOperator.diagonal(rng.uniform(0.5, 2.0) * q ** idx)
        omega = decay ** idx * rng.uniform(0.4, 1.0, n) \
            * rng.choice([-1.0, 1.0], n)
        u_dag = tk.power_apply(op, nu / 2.0, op.vector(omega))
        ssc = tk.check_standard_sc(op, u_dag, nu)
        if ssc.verdict != tk.CERTIFIED:
            chain_failures += 1
            continue
        omega_norm = ssc.constants["omega_norm"]
        beta = tk.ssc_to_hvi_certificate(omega_norm)
        hvi = tk.check_hvi(op, u_dag, nu)
        # converted doubled-form constant must dominate every probe pairing
        if hvi.verdict != tk.CERTIFIED or \
                2.0 * hvi.constants["beta_lower"] > beta * (1.0 + 1e-9):
            chain_failures += 1
            continue
        mu, bp, gm = tk.hvi_to_ivi_certificate(beta, nu)
        ivi = tk.check_ivi(op, u_dag, mu, bp, gm)
        if ivi.verdict != tk.CERTIFIED:
            chain_failures += 1
    gate.check(chain_failures == 0, f"{chain_failures}/500 chain violations")

    exact_failures = 0
    for seed in range(40):
        inst = tk.build("finite_rank", 32, seed=seed)
        nu = 0.5
        hvi = tk.check_hvi(inst.op, inst.u_dagger, nu)
        if hvi.verdict != tk.CERTIFIED:
            exact_failures += 1
            continue
        mu, bp, gm = tk.ivi_from_hvi_report(hvi)
        ivi = tk.check_ivi(inst.op, inst.u_dagger, mu, bp, gm)
        ssc = tk.check_standard_sc(inst.op, inst.u_dagger, nu)
        if ivi.verdict == tk.CERTIFIED and ssc.verdict != tk.CERTIFIED:
            exact_failures += 1
    gate.check(exact_failures == 0,
               f"{exact_failures}/40 finite-rank equivalence violations")
    gate.finish()


def test_criterion_8_solver_equivalence_and_projection():
    gate = Gate(8, "filter path vs normal equations, off-range invisibility")
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 65))
        sig = rng.uniform(1e-3, 2.0, n)
        u_rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v_rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
        mat = u_rot @ (sig[:, None] * v_rot.T)
        op = tk.SpectralOperator.from_matrix(mat)
        y_coords = rng.standard_normal(n)
        y_ambient = u_rot @ y_coords
        alpha = 10.0 ** rng.uniform(-4, 0)
        # diagonal closed form in the construction basis
        x_expected = v_rot @ (sig * y_coords / (alpha + sig ** 2))
        x_normal = op.ambient_from_domain(
            tk.solve_normal_equations(op, y_ambient, alpha))
        yvec, _ = op.data_from_ambient(y_ambient)
        x_filter = op.ambient_from_domain(tk.solve(op, yvec, alpha))
        scale = max(np.linalg.norm(x_expected), 1e-30)
        worst = max(worst,
                    np.linalg.norm(x_normal - x_expected) / scale,
                    np.linalg.norm(x_filter - x_expected) / scale)
    gate.check(worst <= 1e-10, f"worst relative disagreement {worst:.2e}")

    failures = 0
    for seed in range(50):
        rng_i = np.random.default_rng(seed)
        rows = int(rng_i.integers(6, 13))
        rank = int(rng_i.integers(2, rows - 1))
        mat = rng_i.standard_normal((rows, rank)) \
            @ rng_i.standard_normal((rank, rows))
        op = tk.SpectralOperator.from_matrix(mat)
        y = mat @ rng_i.standard_normal(rows)
        null = null_data_directions(op)
        e = null @ rng_i.standard_normal(null.shape[1])
        res = tk.q_projection_equivalence(op, y, e)
        if not res.equivalent:
            failures += 1
    gate.check(failures == 0,
               f"{failures}/50 off-range constructions moved the solution")
    gate.finish()
