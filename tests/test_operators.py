"""Tests for the spectral operator and coefficient-vector layer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates.operators import _spectral_atoms, apply, power_apply, \
    spectral_projection_norm, vector_measure

from helpers import null_data_directions


def geometric_op(n=60):
    idx = np.arange(1, n + 1, dtype=float)
    op = tk.SpectralOperator.diagonal(2.0 ** -idx)
    return op, 2.0 ** (-idx / 2.0)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, 1e-170, 1e170])
def test_retained_singular_values_need_positive_finite_squares(bad):
    with pytest.raises(ValueError, match="positive finite squares"):
        tk.SpectralOperator(kind="diagonal", sigma=[1.0, bad], truncated=True,
                            dropped=0)
    assert tk.SpectralOperator(kind="diagonal", sigma=[1.0, 1e-150],
                               truncated=True, dropped=0).n == 2


def test_apply_scales_first_basis_vector():
    op, _ = geometric_op()
    out = apply(op, op.vector(np.eye(op.n)[0]))
    expected = np.zeros(60)
    expected[0] = 0.5
    np.testing.assert_allclose(out.coeffs, expected, rtol=0, atol=0)


def test_apply_zero_vector():
    op, _ = geometric_op()
    out = apply(op, op.vector(np.zeros(60)))
    assert out.norm() == 0.0


def test_apply_dense_matches_direct_matrix_product():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((8, 8))
    op = tk.SpectralOperator.from_matrix(mat)
    x = rng.standard_normal(8)
    u = op.domain_from_ambient(x)
    # re-expand the domain coefficients so both paths see the same input
    x_proj = op.ambient_from_domain(u)
    direct = mat @ x_proj
    via = op.ambient_from_data(apply(op, u))
    np.testing.assert_allclose(via, direct, rtol=1e-12, atol=1e-14)


def test_apply_frame_mismatch_rejected():
    op1, _ = geometric_op()
    op2, _ = geometric_op()
    with pytest.raises(tk.FrameMismatchError):
        apply(op1, op2.vector(np.ones(60)))


def test_coeff_vector_validation():
    op, _ = geometric_op()
    with pytest.raises(ValueError):
        op.vector([np.nan] * 60)
    with pytest.raises(tk.FrameMismatchError):
        op.vector(np.ones(10))
    v = op.vector(np.ones(60))
    with pytest.raises((ValueError, AttributeError)):
        v.coeffs[0] = 2.0


def test_power_apply_zero_power_is_identity():
    op, d = geometric_op()
    u = op.vector(d)
    assert power_apply(op, 0.0, u) is u


def test_power_apply_half_power_matches_apply_norm():
    op, d = geometric_op()
    u = op.vector(d)
    assert power_apply(op, 0.5, u).norm() == pytest.approx(
        apply(op, u).norm(), rel=1e-13)


def test_power_apply_inverse_quarter_power_flattens_geometric_solution():
    op, d = geometric_op(30)
    out = power_apply(op, -0.25, op.vector(d))
    np.testing.assert_allclose(out.coeffs, np.ones(30), rtol=1e-12)


def test_power_apply_negative_power_needs_injective_operator():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
    op = tk.SpectralOperator.from_matrix(mat)
    assert op.dropped > 0
    with pytest.raises(ValueError, match="unbounded"):
        power_apply(op, -0.5, op.vector(np.ones(op.n)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_interpolation_inequality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    op = tk.SpectralOperator.diagonal(rng.uniform(0.05, 2.0, n))
    u = op.vector(rng.standard_normal(n))
    u = op.vector(u.coeffs / u.norm())
    for q in (0.25, 0.5, 0.75, 1.0):
        for frac in (0.2, 0.5, 0.9, 1.0):
            r = frac * q
            if r <= 0:
                continue
            lhs = power_apply(op, r, u).norm()
            rhs = power_apply(op, q, u).norm() ** (r / q) \
                * u.norm() ** (1.0 - r / q)
            assert lhs <= rhs + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_apply_norm_squared_is_first_power_pairing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 50))
    op = tk.SpectralOperator.diagonal(rng.uniform(0.01, 3.0, n))
    u = op.vector(rng.standard_normal(n))
    lhs = apply(op, u).norm() ** 2
    rhs = power_apply(op, 1.0, u).coeffs @ u.coeffs
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_projection_norm_zero_lambda_is_zero():
    op, d = geometric_op()
    assert spectral_projection_norm(op, op.vector(d), 0.0) == 0.0


def test_projection_norm_monotone_and_saturates():
    op, d = geometric_op()
    u = op.vector(d)
    lams = np.concatenate([[0.0], np.sort(op.lambdas), [1.0]])
    vals = [spectral_projection_norm(op, u, l) for l in lams]
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[-1] == pytest.approx(u.norm(), rel=1e-14)


def test_projection_norm_right_continuous_at_atoms():
    op, d = geometric_op()
    u = op.vector(d)
    for lam in np.sort(op.lambdas)[5:20]:
        at = spectral_projection_norm(op, u, float(lam))
        just_above = spectral_projection_norm(op, u, float(lam) * (1 + 1e-12))
        assert at == just_above


def test_projection_norm_geometric_closed_form():
    n = 60
    op, d = geometric_op(n)
    u = op.vector(d)
    for m in (1, 5, 20, 45):
        got = spectral_projection_norm(op, u, 4.0 ** -m)
        # truncated geometric series: sum_{k=m..n} 2**-k
        expected = np.sqrt(2.0 ** (1 - m) - 2.0 ** -n)
        assert got == pytest.approx(expected, rel=1e-12)


def test_projection_norm_harmonic_example():
    n = 60
    idx = np.arange(1, n + 1, dtype=float)
    op = tk.SpectralOperator.diagonal(idx ** -0.5)
    u = op.vector(1.0 / idx)
    for m in (2, 7, 31):
        # evaluate exactly at the m-th atom so the boundary is included
        expected = np.sqrt(sum(1.0 / k ** 2 for k in range(m, n + 1)))
        got = spectral_projection_norm(op, u, float(op.lambdas[m - 1]))
        assert got == pytest.approx(expected, rel=1e-12)


def test_projection_norm_rejects_negative_lambda():
    op, d = geometric_op()
    with pytest.raises(ValueError):
        spectral_projection_norm(op, op.vector(d), -1.0)


def test_vector_measure_diagonal_is_nonnegative_with_norm_mass():
    rng = np.random.default_rng(11)
    op = tk.SpectralOperator.diagonal(rng.uniform(0.1, 2.0, 25))
    v = op.vector(rng.standard_normal(25))
    mu = vector_measure(op, v, v)
    assert np.all(mu.masses >= 0.0)
    assert mu.masses.sum() == pytest.approx(v.norm() ** 2, rel=1e-12)


def test_vector_measure_single_atom_against_first_basis_vector():
    op, d = geometric_op()
    mu = vector_measure(op, op.vector(d), op.vector(np.eye(op.n)[0]))
    assert len(mu) == 1
    assert mu.lambdas[0] == pytest.approx(0.25, rel=0)
    assert mu.masses[0] == pytest.approx(2.0 ** -0.5, rel=1e-15)


def test_vector_measure_disjoint_supports_vanishes():
    op, d = geometric_op(10)
    a = np.zeros(10)
    a[:5] = 1.0
    b = np.zeros(10)
    b[5:] = 1.0
    mu = vector_measure(op, op.vector(a), op.vector(b))
    assert len(mu) == 0
    assert mu.masses.sum() == 0.0


def test_vector_measure_merges_coincident_singular_values():
    op = tk.SpectralOperator.diagonal([1.0, 0.5, 0.5])
    mu = vector_measure(op, op.vector([1.0, 2.0, 3.0]),
                        op.vector([1.0, 1.0, 1.0]))
    assert len(mu) == 2
    np.testing.assert_allclose(mu.lambdas, [0.25, 1.0])
    np.testing.assert_allclose(mu.masses, [5.0, 1.0])


def _atoms_reference(lam, mass):
    # sort stably, then add each run of ties in index order
    order = np.argsort(lam, kind="stable")
    atoms, merged = [], []
    for x, m in zip(lam[order].tolist(), mass[order].tolist()):
        if atoms and atoms[-1] == x:
            merged[-1] += m
        else:
            atoms.append(x)
            merged.append(0.0 + m)
    return np.array(atoms), np.array(merged)


def _tied_spectrum(seed):
    # few distinct values in shuffled order, so most atoms merge several
    # coordinates; masses of both signs and over 30 orders of magnitude
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    sig = rng.choice(rng.uniform(0.01, 3.0, int(rng.integers(1, 8))), n)
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-15.0, 15.0, n)
    w = rng.standard_normal(n)
    return tk.SpectralOperator.diagonal(sig), v, w


@pytest.mark.parametrize("seed", range(20))
def test_spectral_atoms_equal_a_stable_sorted_reference(seed):
    op, v, w = _tied_spectrum(seed)
    lam, mass = _spectral_atoms(op, v * w)
    ref_lam, ref_mass = _atoms_reference(op.lambdas, v * w)
    assert np.array_equal(lam, ref_lam) and np.array_equal(mass, ref_mass)
    mu = vector_measure(op, op.vector(v), op.vector(w))
    keep = ref_mass != 0.0
    assert np.array_equal(mu.lambdas, ref_lam[keep])
    assert np.array_equal(mu.masses, ref_mass[keep])


def test_spectral_atoms_group_each_operator_once(monkeypatch):
    op, v, w = _tied_spectrum(3)
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    for a, b in ((v, w), (v, v), (w, w)):
        mu = vector_measure(op, op.vector(a), op.vector(b))
        ref_lam, ref_mass = _atoms_reference(op.lambdas, a * b)
        keep = ref_mass != 0.0
        assert np.array_equal(mu.lambdas, ref_lam[keep])
        assert np.array_equal(mu.masses, ref_mass[keep])
    assert len(calls) == 1
    with pytest.raises(AttributeError, match="immutable"):
        op._atoms = None


def test_spectral_atoms_add_ties_in_index_order():
    # in index order 1e16 + 1 rounds to 1e16 and the tie sums to 0;
    # cancelling the two 1e16 first would leave 1
    op = tk.SpectralOperator.diagonal([0.5, 1.0, 0.5, 0.5])
    lam, mass = _spectral_atoms(op, np.array([1e16, 2.0, 1.0, -1e16]))
    assert lam.tolist() == [0.25, 1.0]
    assert mass.tolist() == [0.0, 2.0]


def test_dense_singular_system_reproduces_action():
    rng = np.random.default_rng(3)
    for _ in range(5):
        mat = rng.standard_normal((12, 9))
        op = tk.SpectralOperator.from_matrix(mat)
        x = rng.standard_normal(9)
        direct = mat @ x
        u = op.domain_from_ambient(x)
        via = op.ambient_from_data(apply(op, u))
        # components outside the retained row space cannot be reproduced
        proj, _ = op.data_from_ambient(direct)
        assert np.linalg.norm(via - op.ambient_from_data(proj)) \
            <= 1e-10 * max(np.linalg.norm(direct), 1.0)


def _assert_null_basis(op):
    null = null_data_directions(op)
    rows = op.matrix.shape[0]
    assert null.shape == (rows, rows - op.n)
    np.testing.assert_allclose(null.T @ null, np.eye(rows - op.n), rtol=0,
                               atol=1e-12)
    assert np.abs(null.T @ op._u_range).max(initial=0.0) <= 1e-12


@st.composite
def _dense_matrices(draw):
    """Tall, square and wide matrices up to 12 x 12 of any rank."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@settings(max_examples=150, deadline=None)
@given(mat=_dense_matrices())
def test_matrix_null_directions_complete_the_range(mat):
    op = tk.SpectralOperator.from_matrix(mat)
    assert op.n + op.dropped == min(mat.shape)
    _assert_null_basis(op)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_finite_rank_null_directions_complete_the_range(seed):
    op = tk.build("finite_rank", 40, seed=seed).op
    assert op.n == 10
    _assert_null_basis(op)


@pytest.mark.parametrize("shape", [(4000, 40), (40, 4000)])
def test_tall_and_wide_matrices_build_no_square_factors(shape):
    # a full SVD would build a 4000 x 4000 factor, 128 MB
    mat = np.random.default_rng(11).standard_normal(shape)
    tracemalloc.start()
    try:
        op = tk.SpectralOperator.from_matrix(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n == 40
    assert peak < 16e6


def test_dense_null_directions_are_orthogonal_to_range():
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((8, 4)) @ rng.standard_normal((4, 8))
    op = tk.SpectralOperator.from_matrix(mat)
    null = null_data_directions(op)
    assert null.shape[1] == 8 - op.n
    gram = null.T @ mat
    assert np.abs(gram).max() < 1e-12 * np.abs(mat).max() * 10


def test_diagonal_drops_zero_singular_values():
    op = tk.SpectralOperator.diagonal([1.0, 0.0, 0.5])
    assert op.n == 2
    assert op.dropped == 1
