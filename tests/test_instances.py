"""Tests for the named instance builders."""

import sys
import threading

import numpy as np
import pytest

import tikrates as tk
from tikrates.instances import _orthogonal


@pytest.mark.parametrize("name", tk.INSTANCE_NAMES)
def test_solution_reproduces_data(name):
    inst = tk.build(name, 60, seed=1)
    out = tk.apply(inst.op, inst.u_dagger)
    np.testing.assert_allclose(out.coeffs, inst.y.coeffs, rtol=1e-12,
                               atol=1e-300)


def test_counter26_solution_values():
    inst = tk.build("counter26", 60)
    idx = np.arange(1, 61, dtype=float)
    np.testing.assert_allclose(inst.u_dagger.coeffs, 2.0 ** (-idx / 2.0),
                               rtol=0, atol=0)
    np.testing.assert_allclose(inst.op.sigma, 2.0 ** -idx, rtol=0, atol=0)


def test_harmonic_solution_values():
    inst = tk.build("harmonic4", 25)
    idx = np.arange(1, 26, dtype=float)
    np.testing.assert_allclose(inst.u_dagger.coeffs, 1.0 / idx, rtol=0)


def test_minimum_truncation_enforced():
    with pytest.raises(ValueError):
        tk.build("counter26", 7)


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown instance"):
        tk.build("nope")


def test_expected_maps_nonempty():
    for name in tk.INSTANCE_NAMES:
        inst = tk.build(name, 16, seed=0)
        assert inst.expected


def test_identity_and_finite_rank_are_exact():
    assert not tk.build("identity", 20).op.truncated
    assert not tk.build("finite_rank", 20).op.truncated
    assert tk.build("counter26", 20).op.truncated


def test_finite_rank_operator_has_dropped_directions():
    inst = tk.build("finite_rank", 40, seed=0)
    assert inst.op.kind == "dense"
    assert inst.op.dropped > 0
    assert inst.op.sigma.min() >= 0.5 - 1e-12


def test_batteries_match_documented_verdicts():
    for name in tk.INSTANCE_NAMES:
        rows = tk.run_battery(tk.build(name, 60, seed=0))
        assert all(r["match"] for r in rows), [
            (r["condition"], r["parameter"], r["computed"])
            for r in rows if not r["match"]]


def test_random_diag_varies_with_seed():
    a = tk.build("random_diag", 30, seed=1)
    b = tk.build("random_diag", 30, seed=2)
    assert not np.allclose(a.op.sigma, b.op.sigma)


def test_battery_flags_a_wrong_expectation():
    inst = tk.build("counter26", 60)
    doctored = tk.NamedInstance(
        name=inst.name, op=inst.op, y=inst.y, u_dagger=inst.u_dagger,
        expected={("hvi", 0.5): tk.REFUTED_AT_N})
    rows = tk.run_battery(doctored)
    assert len(rows) == 1 and not rows[0]["match"]


@pytest.mark.parametrize("name, n", [("counter26", 1100), ("random_diag", 10000)])
def test_spectra_whose_squares_underflow_are_refused(name, n):
    with pytest.raises(ValueError, match="positive finite squares"):
        tk.build(name, n)


def _sign_fixed_qr(a):
    """The QR factor of ``a`` with its columns signed so diag(R) > 0."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("n", [16, 60, 900])
def test_thin_orthogonal_is_the_leading_columns_of_the_full_factor(n):
    k = max(3, n // 4)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    thin = _orthogonal(rng, n, k)
    draw = ref_rng.standard_normal((n, k))
    # exactly n x k normals are drawn, so the later draws follow them
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    np.testing.assert_array_equal(thin, _sign_fixed_qr(draw))
    # Haar-distributed: the leading k columns of the full-square factor of
    # the draw completed by further normals
    square = np.hstack([draw, ref_rng.standard_normal((n, n - k))])
    np.testing.assert_allclose(thin, _sign_fixed_qr(square)[:, :k],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, seed", [(16, 0), (60, 1), (900, 7)])
def test_finite_rank_matches_the_full_factor_build(n, seed):
    # the reference takes the SVD of the full matrix drawn from the same
    # stream (sigma first, then n x k normals for U and for V)
    rng = np.random.default_rng(seed)
    k = max(3, n // 4)
    sig = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
    u_mat = _sign_fixed_qr(rng.standard_normal((n, k)))
    v_mat = _sign_fixed_qr(rng.standard_normal((n, k)))
    mat = u_mat @ (sig[:, None] * v_mat.T)
    op = tk.SpectralOperator.from_matrix(mat)
    d = rng.uniform(0.3, 1.0, op.n) * rng.choice([-1.0, 1.0], op.n)
    inst = tk.build("finite_rank", n, seed=seed)
    assert inst.op.n == op.n == k
    assert inst.op.dropped == op.dropped == n - k
    np.testing.assert_array_equal(inst.u_dagger.coeffs, d)
    np.testing.assert_allclose(inst.op.sigma, op.sigma, rtol=1e-13, atol=0)
    np.testing.assert_allclose(inst.op.matrix, op.matrix, rtol=0, atol=1e-13)


def test_finite_rank_forms_its_matrix_only_when_read():
    inst = tk.build("finite_rank", 60, seed=3)
    op = inst.op
    assert op._matrix is None
    assert all(r["match"] for r in tk.run_battery(inst))
    assert op._matrix is None
    mat = op.matrix
    want = op._u_range @ (op.sigma[:, None] * op._vt_range)
    assert mat.tobytes() == want.tobytes() and mat.shape == want.shape
    assert not mat.flags.writeable
    assert op.matrix is mat


def test_racing_first_reads_of_the_matrix_get_the_same_bytes():
    # the cache is filled without a lock: racing readers may each form the
    # product, and every one of them gets the same read-only bytes
    op = tk.build("finite_rank", 200, seed=5).op
    want = op._u_range @ (op.sigma[:, None] * op._vt_range)
    barrier = threading.Barrier(8)
    seen = []

    def read():
        barrier.wait(timeout=10)
        seen.append(op.matrix)

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    for mat in seen:
        assert mat.tobytes() == want.tobytes() and not mat.flags.writeable
    assert any(op.matrix is mat for mat in seen)
