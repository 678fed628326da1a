"""Tests for the log-log fit-window search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tikrates as tk
from tikrates._fitting import MIN_WINDOW_POINTS, best_loglog_window, ls_line
from tikrates.rates import FIT_MAX_RESID


def _reference_window(x, y, max_resid):
    """The plain O(G^2) scan: for every start, fit windows longest first
    and keep the first that passes; longest window wins, then smaller
    residual."""
    lx, ly = np.log10(x), np.log10(y)
    n = lx.size
    best = None
    for i in range(n - MIN_WINDOW_POINTS + 1):
        for j in range(n, i + MIN_WINDOW_POINTS - 1, -1):
            slope, icpt, resid = ls_line(lx[i:j], ly[i:j])
            if resid <= max_resid:
                cand = (j - i, -resid, slope, icpt, resid, i, j)
                if best is None or cand[:2] > best[:2]:
                    best = cand
                break
    if best is None:
        slope, icpt, resid = ls_line(lx, ly)
        return slope, icpt, resid, 0, n
    _, _, slope, icpt, resid, i, j = best
    return slope, icpt, resid, i, j


@st.composite
def curves(draw):
    """A log grid of 4-80 points, a smooth, bent, noisy or zigzag curve on
    it, and a residual ceiling: fixed, equal to one window's exact residual,
    or too small for any window."""
    n = draw(st.integers(4, 80))
    lo = draw(st.floats(-8.0, 2.0))
    x = np.logspace(lo, lo + draw(st.floats(0.5, 10.0)), n)
    lx = np.log10(x)
    ly = draw(st.floats(-2.0, 2.0)) * lx + draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["smooth", "bent", "noisy", "zigzag"]))
    if kind == "bent":
        knee = lx[draw(st.integers(0, n - 1))]
        ly += draw(st.floats(0.05, 1.0)) * np.maximum(knee - lx, 0.0)
    elif kind == "noisy":
        ly += rng.normal(0.0, draw(st.floats(1e-3, 0.3)), n)
    elif kind == "zigzag":
        # windows of one length at even and odd starts mirror each other,
        # so equal-length windows tie on residual
        ly += draw(st.floats(0.01, 0.2)) * (-1.0) ** np.arange(n)
    y = 10.0 ** ly
    ceiling = draw(st.sampled_from(["fixed", "at_window", "none"]))
    if ceiling == "fixed":
        max_resid = draw(st.sampled_from([FIT_MAX_RESID, 0.02, 0.3]))
    elif ceiling == "at_window":
        i = draw(st.integers(0, n - MIN_WINDOW_POINTS))
        j = draw(st.integers(i + MIN_WINDOW_POINTS, n))
        max_resid = ls_line(np.log10(x[i:j]), np.log10(y[i:j]))[2]
    else:
        max_resid = 1e-300
    return x, y, max_resid


@settings(max_examples=150, deadline=None)
@given(curve=curves())
def test_window_search_equals_reference_scan(curve):
    x, y, max_resid = curve
    assert best_loglog_window(x, y, max_resid) == _reference_window(
        x, y, max_resid)


def test_window_search_edge_cases_equal_reference_scan():
    x = np.logspace(-4.0, 2.0, 12)
    zigzag = x ** 0.5 * 10.0 ** (0.05 * (-1.0) ** np.arange(12))
    noisy = x * 10.0 ** np.random.default_rng(3).normal(0.0, 0.1, 12)
    cases = [(zigzag, 0.06),  # equal-length windows tie
             (noisy, 1e-300),  # no window qualifies: full-range fit
             (noisy, ls_line(np.log10(x[2:9]), np.log10(noisy[2:9]))[2])]
    for y, max_resid in cases:
        assert best_loglog_window(x, y, max_resid) == _reference_window(
            x, y, max_resid)
    assert best_loglog_window(x, noisy, 1e-300)[3:] == (0, 12)


@pytest.mark.parametrize("g", [25, 50, 100, 200])
def test_window_search_on_deep_noise_free_curves(g):
    # the harmonic4 n = 10^4 curves the benchmark's grid-size sweep fits
    inst = tk.build("harmonic4", 10000)
    alphas = np.logspace(-3.0, 2.0, g)
    filt = alphas[:, None] / (alphas[:, None] + inst.op.lambdas[None, :])
    errors = np.sqrt((filt ** 2) @ (inst.u_dagger.coeffs ** 2))
    assert best_loglog_window(alphas, errors, FIT_MAX_RESID) == \
        _reference_window(alphas, errors, FIT_MAX_RESID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_window_search_rejects_non_finite_or_non_positive_input(bad):
    x = np.logspace(-3.0, 0.0, 10)
    y = x ** 0.5
    for which in ("x", "y"):
        xs, ys = x.copy(), y.copy()
        (xs if which == "x" else ys)[3] = bad
        with pytest.raises(ValueError, match="finite positive"):
            best_loglog_window(xs, ys, FIT_MAX_RESID)
