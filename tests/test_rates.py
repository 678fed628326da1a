"""Tests for the empirical convergence-rate harness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates.cli import main
from tikrates.rates import (DegenerateGridError, NoiseModel, _fit, _kernel,
                            infimum_rate, noise_free_rate, noisy_rate,
                            noisy_sweep_rows, q_projection_equivalence)
from tikrates.tikhonov import min_norm_solution

from helpers import null_data_directions


def test_noise_free_geometric_order_one_quarter():
    inst = tk.build("counter26", 60)
    fit = noise_free_rate(inst.op, inst.y, np.logspace(-10, -4, 25))
    assert fit.slope == pytest.approx(0.25, abs=0.03)
    assert not fit.clipped


def test_noise_free_single_mode_saturates_at_order_one():
    op = tk.SpectralOperator.diagonal([0.5] + [2.0] * 9, truncated=False)
    d = np.zeros(10)
    d[0] = 1.0
    y = op.vector(op.sigma * d)
    fit = noise_free_rate(op, y, np.logspace(-7, -3, 20))
    assert fit.slope == pytest.approx(1.0, abs=0.05)
    # closed-form error of a single filtered mode
    for alpha, err in fit.grid:
        expected = alpha / (alpha + 0.25)
        assert err == pytest.approx(expected, rel=1e-12)


def test_noise_free_zero_data_is_degenerate():
    inst = tk.build("counter26", 30)
    zero = inst.op.data_vector(np.zeros(30))
    with pytest.raises(DegenerateGridError):
        noise_free_rate(inst.op, zero, np.logspace(-8, -2, 12))


def test_noise_free_requires_four_decades():
    inst = tk.build("counter26", 30)
    with pytest.raises(DegenerateGridError):
        noise_free_rate(inst.op, inst.y, np.logspace(-4, -2, 10))


def test_grids_reject_non_finite_points():
    inst = tk.build("counter26", 60)
    alphas = np.logspace(-10, -4, 25)
    alphas[12] = np.nan
    with pytest.raises(DegenerateGridError, match="finite"):
        noise_free_rate(inst.op, inst.y, alphas)
    deltas = np.logspace(-8, -2, 25)
    deltas[-1] = np.inf
    with pytest.raises(DegenerateGridError, match="finite"):
        noisy_rate(inst.op, inst.y, deltas, 2.0 / 3.0, NoiseModel())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_errors(bad):
    xs = np.logspace(-4.0, 0.0, 10)
    ys = xs ** 0.5
    ys[3] = bad
    with pytest.raises(DegenerateGridError, match="not finite"):
        _fit(xs, ys, clipped=False)


def test_noise_free_clips_below_truncation_floor():
    inst = tk.build("harmonic4", 60)  # smallest squared sigma is 1/60
    fit = noise_free_rate(inst.op, inst.y, np.logspace(-6, 1, 30))
    assert fit.clipped
    assert fit.window[0] >= 10.0 / 60.0 - 1e-12


def test_noisy_geometric_order_one_third():
    inst = tk.build("counter26", 60)
    fit = noisy_rate(inst.op, inst.y, np.logspace(-8, -2, 25), 2.0 / 3.0,
                     NoiseModel(kind=tk.WORST_CASE_BASIS))
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=0.04)


def test_noisy_harmonic_order_one_half_at_deep_truncation():
    inst = tk.build("harmonic4", 100_000)
    fit = noisy_rate(inst.op, inst.y, np.logspace(-4, -1, 16), 1.0,
                     NoiseModel(kind=tk.WORST_CASE_BASIS))
    assert fit.slope == pytest.approx(0.5, abs=0.05)


def test_noisy_errors_shrink_with_delta():
    inst = tk.build("counter26", 60)
    rows = noisy_sweep_rows(inst.op, inst.y, np.logspace(-6, -2, 15),
                            2.0 / 3.0, NoiseModel(kind=tk.WORST_CASE_BASIS))
    errors = [r[1] for r in rows]
    assert np.all(np.diff(errors) > 0.0)  # rows are ordered by delta


def test_noisy_random_sphere_below_worst_case():
    inst = tk.build("counter26", 60)
    deltas = np.logspace(-6, -2, 10)
    worst = noisy_sweep_rows(inst.op, inst.y, deltas, 2.0 / 3.0,
                             NoiseModel(kind=tk.WORST_CASE_BASIS))
    rand = noisy_sweep_rows(inst.op, inst.y, deltas, 2.0 / 3.0,
                            NoiseModel(kind=tk.RANDOM_SPHERE, seed=1), 32)
    for (_, ew, _, _), (_, er, _, _) in zip(worst, rand):
        assert er <= ew * (1.0 + 1e-12)


def test_noisy_sweep_rows_validates_like_noisy_rate():
    inst = tk.build("counter26", 30)
    deltas = np.logspace(-6, -2, 10)
    with pytest.raises(ValueError, match="mu"):
        noisy_sweep_rows(inst.op, inst.y, deltas, 5.0, NoiseModel())
    with pytest.raises(ValueError, match="trials"):
        noisy_sweep_rows(inst.op, inst.y, deltas, 0.5,
                         NoiseModel(kind=tk.RANDOM_SPHERE), 0)


def _counting_directions(monkeypatch):
    calls = []
    draw = NoiseModel.directions

    def counted(self, op, trials=None):
        calls.append(trials)
        return draw(self, op, trials)

    monkeypatch.setattr(NoiseModel, "directions", counted)
    return calls


def test_each_sweep_draws_its_noise_directions_once(monkeypatch):
    inst = tk.build("harmonic4", 300)
    u_dag = min_norm_solution(inst.op, inst.y)
    deltas = np.logspace(-6, -2, 12)
    noise = NoiseModel(kind=tk.RANDOM_SPHERE, seed=4)
    # per-point reference: a fresh draw of the same seeded directions
    expected = []
    for delta in deltas:
        alpha = delta ** (2.0 - 0.5)
        err, k = tk.rates._noisy_errors(inst.op, u_dag, delta, alpha,
                                        noise.directions(inst.op, 6))
        expected.append((float(delta), err, float(alpha), k))
    calls = _counting_directions(monkeypatch)
    rows = noisy_sweep_rows(inst.op, inst.y, deltas, 0.5, noise, 6)
    assert rows == expected
    assert calls == [6]
    infimum_rate(inst.op, inst.y, 1e-3, noise, np.logspace(-9, -2, 20), 6)
    assert calls == [6, 6]
    worst = NoiseModel(kind=tk.WORST_CASE_BASIS)
    noisy_sweep_rows(inst.op, inst.y, deltas, 0.5, worst)
    infimum_rate(inst.op, inst.y, 1e-3, worst, np.logspace(-9, -2, 20))
    assert calls == [6, 6, None, None]


def test_noise_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="bogus"):
        NoiseModel(kind="bogus")


def test_noise_directions_have_exact_unit_norm():
    inst = tk.build("counter26", 40)
    worst = NoiseModel(kind=tk.WORST_CASE_BASIS)
    assert worst.directions(inst.op) is None
    with pytest.raises(ValueError, match="trials applies to random"):
        worst.directions(inst.op, 16)
    for kind in (tk.RANDOM_SPHERE, tk.IN_RANGE):
        dirs = NoiseModel(kind=kind, seed=3).directions(inst.op, 16)
        assert dirs.shape == (16, 40)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0,
                                   rtol=1e-14)


def _family_errors(op, u_dag, delta, alphas, dirs):
    """Every (alpha, noise direction) error, the grid as one kernel block."""
    return np.ldexp(*_kernel(op, u_dag, dirs, len(alphas))(delta, alphas))


def _family_errors_reference(op, u_dag, delta, alphas, dirs):
    """The per-alpha loop that the two-product kernel replaced: one
    ``(trials, n)`` perturbed error array per alpha."""
    alphas = np.asarray(alphas, dtype=float)[:, None]
    lam = op.sigma ** 2
    bias = -alphas / (alphas + lam) * u_dag.coeffs
    resp = op.sigma / (alphas + lam)
    return np.array([np.linalg.norm(b + delta * dirs * r, axis=1)
                     for b, r in zip(bias, resp)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_family_errors_match_the_per_alpha_loop(data):
    n = data.draw(st.integers(2, 40), label="n")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    kind = data.draw(st.sampled_from([tk.RANDOM_SPHERE, tk.IN_RANGE]))
    rng = np.random.default_rng(seed)
    op = tk.SpectralOperator.diagonal(10.0 ** rng.uniform(-3.0, 0.0, n))
    u_dag = op.vector(rng.standard_normal(n))
    alphas = np.logspace(-8.0, 0.0, 9)
    # b / r = -alpha u / sigma, so the direction u / sigma cancels the bias
    # exactly at the alpha where delta = alpha ||u / sigma||
    cancel = u_dag.coeffs / op.sigma
    k = data.draw(st.integers(0, alphas.size - 1), label="cancelling alpha")
    delta = alphas[k] * np.linalg.norm(cancel)
    dirs = np.vstack([NoiseModel(kind=kind, seed=seed).directions(op, 5),
                      cancel / np.linalg.norm(cancel)])
    errs = _family_errors(op, u_dag, delta, alphas, dirs)
    ref = _family_errors_reference(op, u_dag, delta, alphas, dirs)
    assert errs.shape == ref.shape == (alphas.size, dirs.shape[0])
    assert np.all(np.isfinite(errs)) and np.all(errs >= 0.0)
    assert ref[k, -1] <= 1e-12 * np.linalg.norm(u_dag.coeffs)
    a = alphas[:, None, None]
    bias = -a / (a + op.sigma ** 2) * u_dag.coeffs
    noise = delta * op.sigma / (a + op.sigma ** 2) * dirs
    scale = ((bias ** 2).sum(axis=2) + 2.0 * np.abs(bias * noise).sum(axis=2)
             + (noise ** 2).sum(axis=2))
    assert np.all(np.abs(errs ** 2 - ref ** 2)
                  <= 64 * n * np.finfo(float).eps * scale)


def test_family_errors_match_the_per_alpha_loop_at_deep_truncation():
    inst = tk.build("harmonic4", 10_000)
    u_dag = min_norm_solution(inst.op, inst.y)
    alphas = np.logspace(-10.0, -4.0, 100)
    for kind in (tk.RANDOM_SPHERE, tk.IN_RANGE):
        dirs = NoiseModel(kind=kind, seed=1).directions(inst.op)
        for delta in (1e-4, 1e-3):
            errs = _family_errors(inst.op, u_dag, delta, alphas, dirs)
            ref = _family_errors_reference(inst.op, u_dag, delta, alphas,
                                           dirs)
            assert np.max(np.abs(errs - ref) / ref) <= 1e-13


def _tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_family_errors_hold_no_per_alpha_temporaries():
    inst = tk.build("harmonic4", 10_000)
    u_dag = min_norm_solution(inst.op, inst.y)
    alphas = np.logspace(-10.0, -4.0, 200)
    dirs = NoiseModel(kind=tk.RANDOM_SPHERE, seed=1).directions(inst.op, 32)
    peak = _tracemalloc_peak(
        lambda: _family_errors(inst.op, u_dag, 1e-3, alphas, dirs))
    # the grid is one block here: two (200, 10^4) buffers are 32 MB
    assert peak <= 50e6


def test_rate_sweeps_hold_o_of_n_memory():
    # one (200, 10^4) array is 16 MB; the alpha blocks hold about 2**16
    # entries each, and 32 random directions with their squares 5.1 MB
    inst = tk.build("harmonic4", 10_000)
    alphas = np.logspace(-10.0, -4.0, 200)
    worst = NoiseModel(kind=tk.WORST_CASE_BASIS)
    rand = NoiseModel(kind=tk.RANDOM_SPHERE, seed=1)
    peaks = [
        _tracemalloc_peak(lambda: infimum_rate(inst.op, inst.y, 1e-3, worst,
                                               alphas)),
        _tracemalloc_peak(lambda: infimum_rate(inst.op, inst.y, 1e-3, rand,
                                               alphas, 32)),
        _tracemalloc_peak(lambda: noise_free_rate(
            inst.op, inst.y, np.logspace(-3.0, 2.0, 200))),
    ]
    assert max(peaks) <= 10e6, peaks


def _whole_grid_noise_free(op, u_dag, alphas):
    """Noise-free errors as one (alphas, n) array, a norm per row."""
    a = alphas[:, None]
    return np.linalg.norm(-a / (a + op.sigma ** 2) * u_dag.coeffs, axis=1)


@pytest.mark.parametrize("n, points", [(10_000, 7), (10_000, 200),
                                       (70_000, 9)])
def test_alpha_blocks_match_the_whole_grid_to_the_bit(n, points):
    # 2**16 entries make blocks of 6 rows at n = 10^4, so 7 and 200 points
    # end on a partial block, and of one row at n = 70000
    inst = tk.build("harmonic4", n)
    u_dag = min_norm_solution(inst.op, inst.y)
    alphas = np.logspace(-2.0, 2.0, points)
    worst = NoiseModel(kind=tk.WORST_CASE_BASIS)
    fit = noise_free_rate(inst.op, inst.y, alphas)
    errors = np.array([err for _, err in fit.grid])
    assert np.array_equal(errors, _whole_grid_noise_free(inst.op, u_dag,
                                                         alphas))
    # at delta = 0 the infimum is the least noise-free error
    assert infimum_rate(inst.op, inst.y, 0.0, worst, alphas) == errors.min()
    for delta in (0.0, 1e-4, 1e-2):
        whole = _family_errors(inst.op, u_dag, delta, alphas, None)
        assert (infimum_rate(inst.op, inst.y, delta, worst, alphas)
                == whole.min(axis=0).max())


@pytest.mark.parametrize("kind", [tk.RANDOM_SPHERE, tk.IN_RANGE])
def test_alpha_blocks_match_the_whole_grid_under_random_noise(kind):
    inst = tk.build("harmonic4", 10_000)
    u_dag = min_norm_solution(inst.op, inst.y)
    noise = NoiseModel(kind=kind, seed=2)
    dirs = noise.directions(inst.op)
    for points in (7, 200):
        alphas = np.logspace(-10.0, -4.0, points)
        for delta in (1e-4, 1e-3):
            whole = _family_errors(inst.op, u_dag, delta, alphas, dirs)
            ref = whole.min(axis=0).max()
            val = infimum_rate(inst.op, inst.y, delta, noise, alphas)
            assert abs(val - ref) <= 1e-15 * ref


def test_rates_are_scale_invariant_down_to_underflow():
    # squares of u+ * 1e-160 underflow unless the kernels scale the data;
    # at 1e-170 even the norm of u+ does
    inst = tk.build("counter26", 60)
    worst = NoiseModel(kind=tk.WORST_CASE_BASIS)
    slopes, infima = [], []
    for scale in (1.0, 1e-160, 1e-170):
        y = inst.op.data_vector(inst.y.coeffs * scale)
        fit = noise_free_rate(inst.op, y, np.logspace(-10, -4, 25))
        slopes.append(fit.slope)
        infima.append(infimum_rate(inst.op, y, 1e-4 * scale, worst,
                                   np.logspace(-9, -2, 40)) / scale)
    assert slopes[0] == pytest.approx(0.25, abs=0.03)
    assert slopes[1:] == pytest.approx([slopes[0]] * 2, rel=1e-12)
    assert infima[1:] == pytest.approx([infima[0]] * 2, rel=1e-12)


def test_infimum_rate_never_exceeds_power_rule_choice():
    inst = tk.build("counter26", 60)
    noise = NoiseModel(kind=tk.WORST_CASE_BASIS)
    mu = 2.0 / 3.0
    for delta in (1e-6, 1e-4, 1e-2):
        alpha_star = delta ** (2.0 - mu)
        grid = np.logspace(np.log10(alpha_star) - 3,
                           np.log10(alpha_star) + 3, 25)
        grid = np.append(grid, alpha_star)
        inf_val = infimum_rate(inst.op, inst.y, delta, noise, grid)
        row_err, _ = tk.rates._noisy_errors(inst.op, inst.u_dagger, delta,
                                            alpha_star, None)
        assert inf_val <= row_err * (1.0 + 1e-12)


def test_infimum_rate_rejects_negative_or_nan_delta():
    inst = tk.build("counter26", 60)
    for delta in (-1.0, np.nan):
        with pytest.raises(ValueError, match="delta"):
            infimum_rate(inst.op, inst.y, delta, NoiseModel(),
                         np.logspace(-9, -2, 40))


@pytest.mark.parametrize("kind", [tk.WORST_CASE_BASIS, tk.RANDOM_SPHERE,
                                  tk.IN_RANGE])
def test_infimum_rate_rejects_trials_below_one(kind, capsys):
    inst = tk.build("counter26", 60)
    for trials in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            infimum_rate(inst.op, inst.y, 1e-4, NoiseModel(kind=kind),
                         np.logspace(-9, -2, 10), trials)
    noise = {tk.WORST_CASE_BASIS: "worst-case", tk.RANDOM_SPHERE: "random",
             tk.IN_RANGE: "in-range"}[kind]
    assert main(["rates", "--instance", "counter26", "--mode", "infimum",
                 "--noise", noise, "--trials", "0", "--no-timestamp"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_worst_case_noise_rejects_trials(capsys):
    inst = tk.build("counter26", 60)
    noise = NoiseModel(kind=tk.WORST_CASE_BASIS)
    for trials in (1, 5):
        with pytest.raises(ValueError, match="trials applies to random"):
            noisy_rate(inst.op, inst.y, np.logspace(-8, -2, 25), 2.0 / 3.0,
                       noise, trials)
        with pytest.raises(ValueError, match="trials applies to random"):
            infimum_rate(inst.op, inst.y, 1e-4, noise,
                         np.logspace(-9, -2, 10), trials)
    for mode in ("noisy", "infimum"):
        assert main(["rates", "--instance", "counter26", "--mode", mode,
                     "--trials", "5", "--no-timestamp"]) == 2
        assert "trials applies to random" in capsys.readouterr().err


def test_one_point_infimum_equals_noisy_error():
    # one alpha leaves nothing to minimize: both sweeps share one kernel,
    # so the worst error over the noise family agrees to the last bit
    mismatches = []
    for name in tk.INSTANCE_NAMES:
        inst = tk.build(name, 60)
        u_dag = min_norm_solution(inst.op, inst.y)
        for kind in (tk.WORST_CASE_BASIS, tk.RANDOM_SPHERE, tk.IN_RANGE):
            noise = NoiseModel(kind=kind, seed=5)
            trials = None if kind == tk.WORST_CASE_BASIS else 7
            dirs = None if trials is None else noise.directions(inst.op,
                                                                trials)
            for delta in (1e-5, 1e-2):
                for alpha in (1e-8, 1e-4, 1e-1):
                    inf_val = infimum_rate(inst.op, inst.y, delta, noise,
                                           [alpha], trials)
                    err, _ = tk.rates._noisy_errors(inst.op, u_dag, delta,
                                                    alpha, dirs)
                    if inf_val != err:
                        mismatches.append((name, kind, delta, alpha))
    assert mismatches == []


def test_infimum_rate_consistent_with_fit_constant():
    inst = tk.build("counter26", 60)
    noise = NoiseModel(kind=tk.WORST_CASE_BASIS)
    fit = noisy_rate(inst.op, inst.y, np.logspace(-8, -2, 25), 2.0 / 3.0,
                     noise)
    delta = 1e-4
    val = infimum_rate(inst.op, inst.y, delta, noise,
                       np.logspace(-9, -2, 40))
    predicted = 10.0 ** fit.intercept * delta ** fit.slope
    assert predicted / 2.0 <= val <= 2.0 * predicted


def test_infimum_rate_zero_delta_reduces_to_noise_free_minimum():
    inst = tk.build("counter26", 60)
    grid = np.logspace(-9, -1, 30)
    val = infimum_rate(inst.op, inst.y, 0.0,
                       NoiseModel(kind=tk.WORST_CASE_BASIS), grid)
    lam = inst.op.lambdas
    errs = [np.linalg.norm(a / (a + lam) * inst.u_dagger.coeffs)
            for a in grid]
    assert val == pytest.approx(min(errs), rel=1e-12)


def test_infimum_rate_non_increasing_under_grid_refinement():
    inst = tk.build("counter26", 60)
    noise = NoiseModel(kind=tk.WORST_CASE_BASIS)
    coarse = np.logspace(-8, -2, 7)
    fine = np.logspace(-8, -2, 25)  # constructed as a refinement in spirit
    v_coarse = infimum_rate(inst.op, inst.y, 1e-4, noise, coarse)
    v_fine = infimum_rate(inst.op, inst.y, 1e-4, noise,
                          np.concatenate([coarse, fine]))
    assert v_fine <= v_coarse * (1.0 + 1e-12)


def rank_deficient_op(seed, rows=8, rank=4):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, rows))
    return tk.SpectralOperator.from_matrix(mat), rng


def test_q_projection_off_range_noise_is_invisible():
    # many seeds: a difference of squared norms reads up to 2e-8 ||e|| on
    # some of them, though the in-range component is a rounding error
    for seed in range(200):
        op, rng = rank_deficient_op(seed)
        y = op.matrix @ rng.standard_normal(8)
        null = null_data_directions(op)
        e = null @ rng.standard_normal(null.shape[1])
        res = q_projection_equivalence(op, y, e)
        assert res.equivalent, seed
        assert res.max_difference <= 1e-10, seed
        assert res.in_range_norm <= 1e-10 * np.linalg.norm(e), seed


def test_q_projection_zero_perturbation():
    op, rng = rank_deficient_op(1)
    y = op.matrix @ rng.standard_normal(8)
    res = q_projection_equivalence(op, y, np.zeros(8))
    assert res.equivalent


def test_q_projection_in_range_component_reports_false():
    op, rng = rank_deficient_op(2)
    y = op.matrix @ rng.standard_normal(8)
    e_in = op.ambient_from_data(op.data_vector(np.eye(op.n)[0]))
    res = q_projection_equivalence(op, y, e_in)
    assert not res.equivalent
    assert res.max_difference > 1e-6
    assert res.in_range_norm == pytest.approx(1.0, rel=1e-12)


def test_q_projection_requires_dense_operator():
    inst = tk.build("counter26", 20)
    with pytest.raises(ValueError):
        q_projection_equivalence(inst.op, np.zeros(20), np.zeros(20))


def test_fit_window_excludes_bent_region():
    rng = np.random.default_rng(5)
    xs = np.logspace(-6, 0, 25)
    ys = xs ** 0.5
    ys[:4] *= np.exp(rng.uniform(1.0, 2.0, 4))  # bend the low end upward
    from tikrates._fitting import best_loglog_window
    slope, _, resid, i, j = best_loglog_window(xs, ys, 0.1)
    assert i >= 4
    assert slope == pytest.approx(0.5, abs=0.02)
    assert resid <= 0.1


def test_rate_fit_serialization():
    inst = tk.build("counter26", 60)
    fit = noise_free_rate(inst.op, inst.y, np.logspace(-9, -4, 12))
    payload = fit.to_json()
    assert set(payload) == {"grid", "slope", "intercept", "max_residual",
                            "window", "clipped"}


def test_noisy_rate_is_deterministic_for_fixed_seed():
    inst = tk.build("counter26", 40)
    deltas = np.logspace(-6, -2, 12)
    noise = NoiseModel(kind=tk.RANDOM_SPHERE, seed=11)
    a = noisy_rate(inst.op, inst.y, deltas, 0.5, noise, 8)
    b = noisy_rate(inst.op, inst.y, deltas, 0.5, noise, 8)
    assert a.to_json() == b.to_json()
