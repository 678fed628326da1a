"""Measure-level inequality tests, including the end-to-end reconstruction of
the tail-to-variational-constant argument."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates import suites
from tikrates.measures import (DiscreteMeasure, MeasurePremiseError,
                               _cs_rows, _split_rows, cs_measure_bound,
                               split_point, tail_integral_bound)
from tikrates.operators import vector_measure


@pytest.mark.parametrize("lambdas, masses, message", [
    ([1.0, 2.0], [1.0], "locations and masses must have equal length"),
    ([1.0, np.inf], [1.0, 1.0], "atoms must be finite"),
    ([np.nan, 1.0], [1.0, 1.0], "atoms must be finite"),
    ([1.0, 2.0], [1.0, np.nan], "atoms must be finite"),
    ([-1.0, np.inf], [1.0, 1.0], "atoms must be finite"),
    ([-1.0], [1.0], "atom locations must be non-negative"),
    ([-1.0, -2.0], [1.0, 1.0], "atom locations must be non-negative"),
    ([1.0, 1.0], [1.0, 1.0], "atom locations must be strictly increasing"),
    ([2.0, 1.0], [1.0, 1.0], "atom locations must be strictly increasing"),
])
def test_measure_refusals_and_their_precedence(lambdas, masses, message):
    # finite comes before non-negative, which comes before increasing
    with pytest.raises(ValueError, match=f"^{message}$"):
        DiscreteMeasure(lambdas, masses)


def test_measure_validation():
    empty = DiscreteMeasure([], [])
    assert len(empty) == 0 and empty.total_mass() == 0.0
    lam = np.array([0.5, 1.0])
    mu = DiscreteMeasure(lam, [1.0, -2.0])
    lam[0] = 0.25  # the measure keeps its own copy
    assert mu.lambdas[0] == 0.5 and not mu.lambdas.flags.writeable
    assert mu.signed
    assert mu.total_variation() == 3.0
    assert mu.total_mass() == -1.0


def test_weighted_sum_rejects_negative_power_at_zero_atom():
    mu = DiscreteMeasure([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        mu.weighted_sum(-1.0)
    assert mu.weighted_sum(1.0) == 1.0


@settings(max_examples=80, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-10.0, 10.0)),
                      max_size=12, unique_by=lambda atom: atom[0]),
       ends=st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0)))
def test_window_sum_counts_abs_mass_in_closed_window(atoms, ends):
    atoms = sorted(atoms)
    mu = DiscreteMeasure([lam for lam, _ in atoms], [m for _, m in atoms])
    a, b = sorted(ends)
    for hi in (b, np.inf):
        want = sum(abs(m) for lam, m in atoms if a <= lam <= hi)
        got = mu.abs().weighted_sum(0.0, a, hi)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    for lo, hi in ((np.nan, b), (a, np.nan), (-1.0 - a, b), (b + 1.0, b)):
        with pytest.raises(ValueError, match=r"^need 0 <= a <= b$"):
            mu.abs().weighted_sum(0.0, lo, hi)


def _triple(rng, n):
    op = tk.SpectralOperator.diagonal(rng.uniform(0.3, 1.5, n))
    v = op.vector(rng.standard_normal(n))
    w = op.vector(rng.standard_normal(n))
    return (op, v, w, vector_measure(op, v, v), vector_measure(op, w, w),
            vector_measure(op, v, w))


def test_cs_bound_equality_case():
    rng = np.random.default_rng(2)
    op = tk.SpectralOperator.diagonal(rng.uniform(0.2, 1.0, 12))
    v = op.vector(rng.standard_normal(12))
    mu_dd = vector_measure(op, v, v)
    lhs, rhs = cs_measure_bound(mu_dd, mu_dd, mu_dd, 0.0, 2.0, 0.0)
    assert lhs == pytest.approx(v.norm() ** 2, rel=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_cs_bound_disjoint_supports():
    op = tk.SpectralOperator.diagonal([0.5, 1.0])
    a = op.vector([1.0, 0.0])
    b = op.vector([0.0, 1.0])
    lhs, rhs = cs_measure_bound(vector_measure(op, a, a),
                                vector_measure(op, b, b),
                                vector_measure(op, a, b), 0.0, 2.0, 0.5)
    assert lhs == 0.0
    assert rhs >= 0.0


def test_cs_bound_matches_loop_oracle():
    rng = np.random.default_rng(9)
    op, v, w, mu_dd, mu_uu, mu_du = _triple(rng, 7)
    a, b, rho = 0.1, 1.5, 0.5
    lam = op.lambdas
    sel = (lam >= a) & (lam <= b)
    lhs_o = sum(abs(v.coeffs[i] * w.coeffs[i]) for i in range(7) if sel[i])
    rhs_o = np.sqrt(sum(v.coeffs[i] ** 2 * lam[i] ** -rho
                        for i in range(7) if sel[i])) \
        * np.sqrt(sum(w.coeffs[i] ** 2 * lam[i] ** rho
                      for i in range(7) if sel[i]))
    lhs, rhs = cs_measure_bound(mu_dd, mu_uu, mu_du, a, b, rho)
    assert lhs == pytest.approx(lhs_o, rel=1e-13, abs=1e-15)
    assert rhs == pytest.approx(rhs_o, rel=1e-13, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(atoms=st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-10.0, 10.0)),
                      max_size=12, unique_by=lambda atom: atom[0]),
       ends=st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0)))
def test_cs_bound_lhs_is_the_abs_measure_window_sum(atoms, ends):
    # lambda**0.0 is exactly 1.0, at an atom at zero too, so the window's
    # absolute masses sum to the power-0 sum of the absolute-value measure
    atoms = sorted(dict([(0.0, -1.5)] + atoms).items())
    lam = [x for x, _ in atoms]
    mu_du = DiscreteMeasure(lam, [m for _, m in atoms])
    mu_dd = mu_du.abs()
    a, b = sorted(ends)
    lhs, _ = cs_measure_bound(mu_dd, mu_dd, mu_du, a, b, 0.0)
    assert lhs == mu_du.abs().weighted_sum(0.0, a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cs_bound_holds_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 25))
    op, v, w, mu_dd, mu_uu, mu_du = _triple(rng, n)
    lam = np.sort(op.lambdas)
    a, b = sorted(rng.uniform(0.0, float(lam[-1]) * 1.1, 2))
    for rho in (-1.0, 0.0, 0.5, 1.0, 2.0):
        lhs, rhs = cs_measure_bound(mu_dd, mu_uu, mu_du, a, b, rho)
        assert lhs <= rhs + 1e-12


def geometric_solution_measure(n=60):
    idx = np.arange(1, n + 1, dtype=float)
    op = tk.SpectralOperator.diagonal(2.0 ** -idx)
    d = op.vector(2.0 ** (-idx / 2.0))
    return vector_measure(op, d, d)


def test_tail_bound_on_geometric_measure():
    n = 60
    mu = geometric_solution_measure(n)
    for m in (1, 3, 10, 30, 60):
        lhs, rhs = tail_integral_bound(mu, nu=0.5, rho=1.0, C=2.0,
                                       Lambda=4.0 ** -m)
        # closed form: sum_{k=1..m} 2**k
        assert lhs == pytest.approx(2.0 ** (m + 1) - 2.0, rel=1e-12)
        assert rhs == pytest.approx(4.0 * 2.0 ** m, rel=1e-12)
        assert lhs <= rhs


def test_tail_bound_single_calibrated_atom():
    lam0, nu, rho, c = 0.7, 0.5, 1.5, 1.3
    mu = DiscreteMeasure([lam0], [c * lam0 ** nu])
    lhs, rhs = tail_integral_bound(mu, nu, rho, c, Lambda=lam0 / 2)
    assert lhs == pytest.approx(c * lam0 ** (nu - rho), rel=1e-12)
    assert lhs <= rhs


def test_tail_bound_empty_tail():
    mu = geometric_solution_measure(20)
    lhs, rhs = tail_integral_bound(mu, 0.5, 1.0, C=2.0, Lambda=1.0)
    assert lhs == 0.0
    assert rhs > 0.0


def test_tail_bound_premise_failure_reports_witness():
    mu = DiscreteMeasure([0.5, 1.0], [10.0, 1.0])
    with pytest.raises(MeasurePremiseError) as err:
        tail_integral_bound(mu, 0.5, 1.0, C=1.0, Lambda=0.25)
    assert err.value.witness_lambda == 0.5


def test_tail_bound_parameter_validation():
    mu = geometric_solution_measure(10)
    with pytest.raises(ValueError):
        tail_integral_bound(mu, 1.0, 0.5, C=1.0, Lambda=0.1)
    with pytest.raises(ValueError):
        tail_integral_bound(mu, 0.5, 1.0, C=0.0, Lambda=0.1)
    with pytest.raises(ValueError):
        tail_integral_bound(mu, 0.5, 1.0, C=1.0, Lambda=0.0)


def test_split_point_hand_traces():
    sp = split_point(DiscreteMeasure([1.0, 2.0], [1.0, 1.0]))
    assert (sp.lam, sp.a_lambda, sp.b_lambda, sp.a_inf) == (1.0, 1.0, 2.0, 2.0)
    sp = split_point(DiscreteMeasure([1.0, 2.0], [3.0, 1.0]))
    assert (sp.lam, sp.a_lambda, sp.b_lambda, sp.a_inf) == (1.0, 3.0, 4.0, 4.0)
    sp = split_point(DiscreteMeasure([5.0], [2.5]))
    assert (sp.lam, sp.a_lambda, sp.b_lambda, sp.a_inf) == (5.0, 2.5, 2.5, 2.5)


def test_split_point_zero_measure_is_vacuous():
    sp = split_point(DiscreteMeasure([1.0, 2.0], [0.0, 0.0]))
    assert sp.lam == 1.0
    assert sp.a_inf == 0.0


def test_split_point_requires_atoms():
    with pytest.raises(ValueError):
        split_point(DiscreteMeasure([], []))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_split_point_half_mass_invariants(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    mu = DiscreteMeasure(np.sort(rng.uniform(0.1, 5.0, k) + np.arange(k)),
                         rng.uniform(-2.0, 2.0, k))
    sp = split_point(mu)
    assert sp.a_lambda >= 0.5 * sp.a_inf - 1e-12
    assert sp.b_lambda >= 0.5 * sp.a_inf - 1e-12
    assert sp.a_inf == pytest.approx(mu.total_variation(), rel=1e-12)


def _scalar_split(lambdas, masses):
    # the scalar scan that split_point ran before it became a kernel call
    below = np.cumsum(np.abs(masses))
    total = float(below[-1])
    idx = int(np.argmax(below >= 0.5 * total))
    above = total - (below[idx - 1] if idx > 0 else 0.0)
    return float(lambdas[idx]), float(below[idx]), float(above), total


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_split_rows_match_the_scalar_scan_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    k, rows = int(rng.integers(1, 9)), int(rng.integers(1, 16))
    lambdas = np.sort(rng.uniform(0.0, 1.0, k) + np.arange(k))
    if rng.random() < 0.5:
        lambdas[0] = 0.0
    if rng.random() < 0.5:
        # small integers hit the half-mass threshold exactly
        masses = rng.integers(-3, 4, (rows, k)).astype(float)
    else:
        masses = rng.standard_normal((rows, k)) \
            * 10.0 ** rng.uniform(-12.0, 12.0, (rows, k))
    masses[rng.random((rows, k)) < 0.3] = 0.0
    masses[rng.random(rows) < 0.2] = 0.0
    got = _split_rows(lambdas, masses)
    for r, row in enumerate(masses):
        sp = split_point(DiscreteMeasure(lambdas, row))
        want = [x.hex() for x in _scalar_split(lambdas, row)]
        assert [float(x[r]).hex() for x in got] == want
        assert [x.hex() for x in (sp.lam, sp.a_lambda, sp.b_lambda,
                                  sp.a_inf)] == want


def _strict_split_rows(lambdas, masses):
    # mutant: the half-mass test is strict
    below = np.cumsum(np.abs(masses), axis=1)
    total = below[:, -1]
    idx = np.argmax(below > 0.5 * total[:, None], axis=1)
    rows = np.arange(below.shape[0])
    above = total - np.where(idx > 0, below[rows, idx - 1], 0.0)
    return lambdas[idx], below[rows, idx], above, total


def _whole_total_split_rows(lambdas, masses):
    # mutant: the from-above mass keeps the mass below the split atom
    lam, a_lambda, _, total = _split_rows(lambdas, masses)
    return lam, a_lambda, total, total


@pytest.mark.parametrize("mutant, violations", [
    (_strict_split_rows, 1092),
    (_whole_total_split_rows, 5430),
])
def test_split_suite_catches_kernel_mutants(monkeypatch, mutant, violations):
    # the counts are those the per-case suite reported for the same faults
    assert suites.split_point_suite() == {"cases": 5460, "violations": 0}
    monkeypatch.setattr(suites, "_split_rows", mutant)
    assert suites.split_point_suite() == {"cases": 5460,
                                          "violations": violations}


def _scalar_cs_bound(mu_dd, mu_uu, mu_du, a, b, rho, dd_sign=-1.0,
                     windowed=True):
    # the bound as cs_measure_bound took it before it became a kernel call,
    # through weighted_sum; the flags put in the faults of the mutants below
    wd = mu_dd.weighted_sum(dd_sign * rho, a, b)
    wu = mu_uu.weighted_sum(rho, a, b)
    lo, hi = (a, b) if windowed else (0.0, np.inf)
    window = (mu_du.lambdas >= lo) & (mu_du.lambdas <= hi)
    return (float(np.sum(np.abs(mu_du.masses[window]))),
            float(np.sqrt(wd) * np.sqrt(wu)))


def _per_instance_cs_suite(count, seed, **fault):
    # the per-instance loop that cs_bound_suite ran before it stacked its draws
    rng = np.random.default_rng(seed)
    violations = 0
    worst = np.inf
    for i in range(count):
        n = int(rng.integers(3, 25))
        sig = rng.uniform(0.3, 1.5, n)
        op = tk.SpectralOperator.diagonal(sig)
        v = op.vector(rng.standard_normal(n))
        w = op.vector(rng.standard_normal(n))
        mu_dd = vector_measure(op, v, v)
        mu_uu = vector_measure(op, w, w)
        mu_du = vector_measure(op, v, w)
        lam = np.sort(sig ** 2)
        if rng.random() < 0.5:
            a, b = 0.0, float(lam[-1] * 1.1)
        else:
            a, b = sorted(rng.uniform(lam[0] * 0.9, lam[-1] * 1.1, 2))
        rho = suites.CS_RHOS[i % len(suites.CS_RHOS)]
        lhs, rhs = _scalar_cs_bound(mu_dd, mu_uu, mu_du, a, b, rho, **fault)
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -1e-12:
            violations += 1
    return {"instances": count, "violations": violations,
            "worst_margin": float(worst)}


def _nan_padded(rng, mus):
    # one (lambdas, masses) stack of the measures, one per row, with their
    # atoms in order among NaN slots at random places
    width = max(len(mu) for mu in mus) + int(rng.integers(0, 4))
    lam, mass = np.full((len(mus), width), np.nan), np.zeros((len(mus), width))
    for r, mu in enumerate(mus):
        at = np.sort(rng.choice(width, len(mu), replace=False))
        lam[r, at], mass[r, at] = mu.lambdas, mu.masses
    return lam, mass


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cs_rows_match_the_one_row_bound_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 21))
    zeros = rng.choice([0.0, 0.3, 0.7])
    triples, ab = [], np.empty((rows, 2))
    for r in range(rows):
        n = int(rng.integers(1, 25))
        op = tk.SpectralOperator.diagonal(rng.uniform(0.3, 1.5, n))
        vw = rng.standard_normal((2, n))
        vw[rng.random((2, n)) < zeros] = 0.0  # exact-zero coefficients
        v, w = op.vector(vw[0]), op.vector(vw[1])
        triples.append([vector_measure(op, x, y)
                        for x, y in ((v, v), (w, w), (v, w))])
        lam = np.sort(op.lambdas)
        top = float(lam[-1])
        ab[r] = [
            [lam[rng.integers(n)]] * 2,  # a == b on an atom
            np.sort(rng.uniform(0.0, 1.2 * top, 2)),
            [top * rng.uniform(1.01, 2.0), np.inf],  # past the support
            [0.0, np.inf],
            # strictly between two atoms, or below the first: empty
            [lam[0] / 3.0] * 2 if n == 1 else [lam[:2].mean()] * 2,
        ][rng.integers(5)]
    rho = np.resize(suites.CS_RHOS, rows)
    stacks = [_nan_padded(rng, [t[m] for t in triples]) for m in range(3)]
    lhs, rhs = _cs_rows(stacks, ab[:, 0], ab[:, 1], rho)
    for r, mus in enumerate(triples):
        got = [float(lhs[r]).hex(), float(rhs[r]).hex()]
        args = (*mus, *ab[r], float(rho[r]))
        assert got == [x.hex() for x in cs_measure_bound(*args)]
        assert got == [x.hex() for x in _scalar_cs_bound(*args)]


@pytest.mark.parametrize("seed", [0, 2, 3, 7])
@pytest.mark.parametrize("count", [1, 50, 500])
def test_cs_suite_matches_the_per_instance_loop(seed, count):
    got = suites.cs_bound_suite(count, seed)
    want = _per_instance_cs_suite(count, seed)
    assert got["worst_margin"].hex() == want["worst_margin"].hex()
    assert got == want


def _row_by_row(**fault):
    # a kernel that takes each row through the scalar bound, with a fault;
    # the NaN locations of empty slots fail every comparison
    def kernel(measures, a, b, rho):
        out = np.empty((2, a.size))
        for r in range(a.size):
            mus = [DiscreteMeasure(lam[r][lam[r] >= 0.0], m[r][lam[r] >= 0.0])
                   for lam, m in measures]
            out[:, r] = _scalar_cs_bound(*mus, a[r], b[r], rho[r], **fault)
        return out
    return kernel


@pytest.mark.parametrize("fault, violations", [
    ({"dd_sign": 1.0}, 70),  # mu_dd weighted by lambda**rho
    ({"windowed": False}, 226),  # lhs over the whole mixed measure
])
def test_cs_suite_catches_kernel_mutants(monkeypatch, fault, violations):
    # the counts are those the per-instance suite reported for the same faults
    assert _per_instance_cs_suite(500, 0, **fault)["violations"] == violations
    assert suites.cs_bound_suite(500, seed=0)["violations"] == 0
    monkeypatch.setattr(suites, "_cs_rows", _row_by_row())
    assert suites.cs_bound_suite(500, seed=0) == _per_instance_cs_suite(500, 0)
    monkeypatch.setattr(suites, "_cs_rows", _row_by_row(**fault))
    assert suites.cs_bound_suite(500, seed=0)["violations"] == violations


@pytest.mark.parametrize("rho", [1.0, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tail_to_variational_composition(rho, seed):
    """Compose the split point, the Cauchy-Schwarz bound, and the tail bound
    into the variational constant implied by a spectral tail."""
    n = 60
    idx = np.arange(1, n + 1, dtype=float)
    op = tk.SpectralOperator.diagonal(2.0 ** -idx)
    d_vec = op.vector(2.0 ** (-idx / 2.0))
    nu = 0.5
    rng = np.random.default_rng(seed)
    u = op.vector(rng.standard_normal(n) * 2.0 ** (-0.2 * idx))

    # sharp closed-interval tail envelope of the solution
    lam = np.sort(op.lambdas)
    t_cum = np.cumsum((d_vec.coeffs ** 2)[np.argsort(op.lambdas)])
    c_hat = float(np.max(t_cum / lam ** nu))
    c_tail = np.sqrt(c_hat)

    mu_dd = vector_measure(op, d_vec, d_vec)
    mu_uu = vector_measure(op, u, u)
    mu_du = vector_measure(op, d_vec, u)
    sp = split_point(mu_du)

    # low-frequency part pairs against the plain norm
    a_lhs, a_rhs = cs_measure_bound(mu_dd, mu_uu, mu_du, 0.0, sp.lam, 0.0)
    assert sp.a_lambda <= a_lhs + 1e-12
    assert a_rhs <= c_tail * sp.lam ** (nu / 2.0) * u.norm() * (1 + 1e-9)

    # high-frequency part pairs against the weighted norm via the tail bound
    b_lhs, b_rhs = cs_measure_bound(mu_dd, mu_uu, mu_du, sp.lam,
                                    float(lam[-1]), rho)
    tail_lhs, tail_rhs = tail_integral_bound(mu_dd, nu, rho, c_hat, sp.lam)
    p_norm = tk.power_apply(op, rho / 2.0, u).norm()
    assert b_lhs >= sp.b_lambda - 1e-12
    assert b_rhs <= np.sqrt(tail_rhs) * p_norm * (1 + 1e-9)

    # the half-mass split turns the two bounds into the pairing estimate
    pairing = 2.0 * abs(d_vec.inner(u))
    combined = 4.0 * a_rhs ** (1.0 - nu / rho) * b_rhs ** (nu / rho)
    beta = tk.scr_to_vi_certificate(c_tail, nu, rho)
    final = beta * p_norm ** (nu / rho) * u.norm() ** (1.0 - nu / rho)
    assert pairing <= 2.0 * sp.a_inf + 1e-12
    assert 2.0 * sp.a_inf <= combined * (1 + 1e-9) + 1e-12
    assert combined <= final * (1 + 1e-9) + 1e-12
