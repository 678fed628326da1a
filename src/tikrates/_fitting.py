"""Least-squares line fits on (log) grids, shared by the classifiers and the
rate harness."""

from __future__ import annotations

import numpy as np

#: Fewest grid points a fit window may hold.
MIN_WINDOW_POINTS = 4


def ls_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y); returns (slope, intercept, max |resid|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a line fit")
    a = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ sol
    return float(sol[0]), float(sol[1]), float(np.abs(resid).max())


def best_loglog_window(x: np.ndarray, y: np.ndarray, max_resid: float):
    """Largest contiguous window of (x, y) whose log10-log10 line fit keeps
    every |residual| within ``max_resid``; ties resolved by smaller residual.

    Returns ``(slope, intercept, resid, i, j)`` with the window ``x[i:j]``,
    or the full-range fit when even no window of ``MIN_WINDOW_POINTS``
    qualifies (callers can see that from the returned residual).
    """
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
                break  # largest passing window for this start found
    if best is None:
        slope, icpt, resid = ls_line(lx, ly)
        return slope, icpt, resid, 0, n
    _, _, slope, icpt, resid, i, j = best
    return slope, icpt, resid, i, j
