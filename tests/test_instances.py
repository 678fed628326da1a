"""Tests for the named instance builders."""

import numpy as np
import pytest

import tikrates as tk


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
        expected={("hvi", 0.5): tk.REFUTED_AT_N}, n=inst.n)
    rows = tk.run_battery(doctored)
    assert len(rows) == 1 and not rows[0]["match"]


@pytest.mark.parametrize("name, n", [("counter26", 1100), ("random_diag", 10000)])
def test_spectra_whose_squares_underflow_are_refused(name, n):
    with pytest.raises(ValueError, match="positive finite squares"):
        tk.build(name, n)
