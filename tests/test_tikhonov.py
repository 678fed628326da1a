"""Tests for the minimum-norm and regularized solvers and the error bound."""

import warnings

import numpy as np
import pytest

import tikrates as tk
from tikrates.tikhonov import (error_bound, min_norm_solution, solve,
                               solve_normal_equations)

from helpers import null_data_directions


def counter_instance(n=60):
    return tk.build("counter26", n)


def test_min_norm_geometric_closed_form():
    inst = counter_instance()
    u = min_norm_solution(inst.op, inst.y)
    idx = np.arange(1, 61, dtype=float)
    np.testing.assert_allclose(u.coeffs, 2.0 ** (-idx / 2.0), rtol=1e-12)


def test_min_norm_zero_data():
    inst = counter_instance()
    u = min_norm_solution(inst.op, inst.op.data_vector(np.zeros(60)))
    assert u.norm() == 0.0


def test_min_norm_harmonic_closed_form():
    inst = tk.build("harmonic4", 50)
    u = min_norm_solution(inst.op, inst.y)
    np.testing.assert_allclose(u.coeffs, 1.0 / np.arange(1, 51), rtol=1e-12)


def test_min_norm_reproduces_data():
    inst = tk.build("random_diag", 40, seed=5)
    u = min_norm_solution(inst.op, inst.y)
    assert np.allclose(tk.apply(inst.op, u).coeffs, inst.y.coeffs, rtol=1e-10)


def rank_deficient_op(seed=0, rows=8, rank=4):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, rows))
    return tk.SpectralOperator.from_matrix(mat)


def test_min_norm_rejects_out_of_range_data():
    op = rank_deficient_op()
    e = null_data_directions(op)[:, 0]
    y_ambient = op.matrix @ np.ones(8) + 0.5 * e
    with pytest.raises(tk.NotInRangeError, match="not in range"):
        min_norm_solution(op, y_ambient)


def test_min_norm_zeroes_tiny_out_of_range_mass_with_warning():
    op = rank_deficient_op()
    clean = op.matrix @ np.ones(8)
    e = null_data_directions(op)[:, 0]
    noisy = clean + 3e-14 * np.linalg.norm(clean) * e
    with pytest.warns(UserWarning, match="off-range"):
        u = min_norm_solution(op, noisy)
    ref = min_norm_solution(op, clean)
    np.testing.assert_allclose(u.coeffs, ref.coeffs, rtol=1e-10)


@pytest.mark.parametrize("off_range", [0.0, 5.5e-13], ids=["in", "off"])
def test_min_norm_range_test_does_not_depend_on_the_data_scale(off_range):
    # finite_rank at n = 40 keeps 10 directions; an off-range part of
    # 5.5e-13 relative is above RANGE_RTOL, and its squares underflow once
    # the data is scaled by 1e-150
    inst = tk.build("finite_rank", 40, seed=1)
    op = inst.op
    clean = op.ambient_from_data(inst.y)
    y = clean + off_range * np.linalg.norm(clean) \
        * null_data_directions(op)[:, 0]
    for scale in (1.0, 1e-150, 1e-160, 1e-170):
        if off_range:
            with pytest.raises(tk.NotInRangeError, match="not in range"):
                min_norm_solution(op, scale * y)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u = min_norm_solution(op, scale * y)
            np.testing.assert_allclose(u.coeffs, scale * inst.u_dagger.coeffs,
                                       rtol=1e-10)


def test_solve_identity_operator_closed_form():
    op = tk.SpectralOperator.diagonal(np.ones(12), truncated=False)
    y = op.vector(np.linspace(1.0, 2.0, 12))
    for alpha in (1e-3, 0.5, 4.0):
        np.testing.assert_allclose(solve(op, y, alpha).coeffs,
                                   y.coeffs / (1.0 + alpha), rtol=1e-14)


def test_solve_rejects_nonpositive_alpha():
    inst = counter_instance()
    with pytest.raises(ValueError):
        solve(inst.op, inst.y, 0.0)
    with pytest.raises(ValueError):
        solve(inst.op, inst.y, -1.0)


def test_solve_over_regularization_limit():
    rng = np.random.default_rng(4)
    for seed in range(5):
        n = int(rng.integers(5, 40))
        op = tk.SpectralOperator.diagonal(rng.uniform(0.1, 2.0, n))
        y = op.vector(rng.standard_normal(n))
        alpha = 10.0 ** rng.uniform(2, 5)
        u = solve(op, y, alpha)
        assert u.norm() <= y.norm() * op.sigma.max() / alpha + 1e-15


def test_solve_matches_coordinatewise_oracle():
    inst = counter_instance(40)
    alpha = 1e-6
    oracle = [s * y / (alpha + s * s)
              for s, y in zip(inst.op.sigma, inst.y.coeffs)]
    np.testing.assert_allclose(solve(inst.op, inst.y, alpha).coeffs, oracle,
                               rtol=1e-12)


def test_solve_satisfies_normal_equations():
    rng = np.random.default_rng(8)
    for seed in range(4):
        n = int(rng.integers(4, 30))
        op = tk.SpectralOperator.diagonal(rng.uniform(0.05, 1.5, n))
        y = op.vector(rng.standard_normal(n))
        alpha = 10.0 ** rng.uniform(-8, 0)
        u = solve(op, y, alpha).coeffs
        resid = (alpha * u + op.sigma ** 2 * u) - op.sigma * y.coeffs
        rhs = op.sigma * y.coeffs
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs)


def test_solve_minimizer_optimality():
    rng = np.random.default_rng(12)
    inst = counter_instance(30)
    alpha = 1e-4

    def objective(coeffs):
        return (np.sum((inst.op.sigma * coeffs - inst.y.coeffs) ** 2)
                + alpha * np.sum(coeffs ** 2))

    star = solve(inst.op, inst.y, alpha).coeffs
    base = objective(star)
    for _ in range(25):
        v = rng.standard_normal(30) * 10.0 ** rng.uniform(-6, 0)
        assert base <= objective(star + v) + 1e-10


def test_solve_monotonicity_in_alpha():
    inst = counter_instance()
    alphas = np.logspace(-10, 2, 40)
    sols = [solve(inst.op, inst.y, a) for a in alphas]
    residuals = [np.linalg.norm(inst.op.sigma * u.coeffs - inst.y.coeffs)
                 for u in sols]
    norms = [u.norm() for u in sols]
    assert np.all(np.diff(residuals) >= -1e-15)
    assert np.all(np.diff(norms) <= 1e-15)


# tall, square and wide matrices: on the square and wide ones the row count
# equals the retained rank, and raw data must still be read as ambient data
EXTRA_ROWS = (2, 0, -2)


def test_filter_path_matches_normal_equations_dense():
    rng = np.random.default_rng(21)
    for extra in EXTRA_ROWS:
        for seed in range(5):
            n = int(rng.integers(4, 32))
            mat = rng.standard_normal((n + extra, n))
            op = tk.SpectralOperator.from_matrix(mat)
            y_ambient = mat @ rng.standard_normal(n)
            alpha = 10.0 ** rng.uniform(-4, 0)
            u_filter = solve(op, y_ambient, alpha)
            u_normal = solve_normal_equations(op, y_ambient, alpha)
            np.testing.assert_allclose(u_filter.coeffs, u_normal.coeffs,
                                       rtol=1e-10, atol=1e-12)


def test_min_norm_solution_of_raw_data_is_the_pseudoinverse_solution():
    rng = np.random.default_rng(22)
    for extra in EXTRA_ROWS:
        n = int(rng.integers(4, 32))
        mat = rng.standard_normal((n + extra, n))
        op = tk.SpectralOperator.from_matrix(mat)
        y_ambient = mat @ rng.standard_normal(n)
        u = min_norm_solution(op, y_ambient)
        np.testing.assert_allclose(op.ambient_from_domain(u),
                                   np.linalg.pinv(mat) @ y_ambient,
                                   rtol=1e-9, atol=1e-10)


def test_normal_equations_require_dense_operator():
    inst = counter_instance()
    with pytest.raises(ValueError, match="dense"):
        solve_normal_equations(inst.op, inst.y, 1e-3)


def test_error_bound_formula_frozen_value():
    # rhs at (mu=2/3, beta=3, gamma=1/4, delta=1e-3, alpha=1e-4):
    # (2 / 0.75) * 1e-2 + 3**1.5 * (4/3) / 1.5 * 1e-2
    inst = counter_instance()
    rep = error_bound(2.0 / 3.0, 3.0, 0.25, 1e-3, 1e-4,
                      inst.op, inst.y, inst.y)
    assert rep.rhs == pytest.approx(0.07285468820183672, rel=1e-13)
    assert rep.delta == 1e-3
    assert rep.holds


def test_error_bound_noise_free_holds_across_alphas():
    inst = counter_instance()
    hvi = tk.check_hvi(inst.op, inst.u_dagger, 0.5)
    mu, beta, gamma = tk.ivi_from_hvi_report(hvi)
    for alpha in np.logspace(-9, 1, 15):
        rep = error_bound(mu, beta, gamma, 0.0, alpha, inst.op, inst.y, inst.y)
        assert rep.holds


def test_error_bound_zero_solution_degenerate_case():
    op = tk.SpectralOperator.diagonal(np.ones(10), truncated=False)
    zero = op.vector(np.zeros(10))
    rep = error_bound(1.0, 0.0, 0.0, 0.0, 0.5, op, zero, zero)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.holds
    assert rep.notes  # records the gamma = 0 nuance


def test_error_bound_validates_parameters():
    inst = counter_instance()
    args = (inst.op, inst.y, inst.y)
    with pytest.raises(ValueError):
        error_bound(0.0, 1.0, 0.1, 0.0, 1.0, *args)
    with pytest.raises(ValueError):
        error_bound(0.5, -1.0, 0.1, 0.0, 1.0, *args)
    with pytest.raises(ValueError):
        error_bound(0.5, 1.0, 1.0, 0.0, 1.0, *args)
    with pytest.raises(ValueError):
        error_bound(0.5, 1.0, 0.1, 0.0, 0.0, *args)
    with pytest.raises(ValueError, match="alpha"):
        error_bound(0.5, 1.0, 0.1, 0.0, np.nan, *args)


def test_error_bound_rejects_oversized_perturbation():
    inst = counter_instance()
    yd = inst.op.data_vector(inst.y.coeffs + 1e-2)
    with pytest.raises(ValueError, match="exceeds delta"):
        error_bound(0.5, 1.0, 0.1, 1e-6, 1.0, inst.op, inst.y, yd)
