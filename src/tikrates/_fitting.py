"""Least-squares line fits on (log) grids, shared by the classifiers and the
rate harness."""

from __future__ import annotations

import numpy as np

#: Fewest grid points a fit window may hold.
MIN_WINDOW_POINTS = 4

#: Slack of the window screen.  Screened residuals come from running sums
#: taken about a point of the window, so they differ from ``ls_line``'s by
#: rounding alone: a few ``eps * m**3`` times the coordinate scale at worst
#: for an m-point window.  A window is skipped only when its screened
#: residual exceeds the ceiling by ``SCREEN_SLACK * n**3`` times that scale,
#: some thousands of times the rounding bound.
SCREEN_SLACK = 1e-12


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


def _screened_residuals(x: np.ndarray, y: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
    """Max |residual| of the least-squares line through ``x[:m], y[:m]``
    for every m in ``lengths`` (longest first), from running sums of the
    coordinates shifted to the first point.  A window whose points share
    one x has no line and screens as NaN."""
    dx, dy = x - x[0], y - y[0]
    idx = lengths - 1
    m = lengths.astype(float)
    sx, sy = np.cumsum(dx)[idx], np.cumsum(dy)[idx]
    mx, my = sx / m, sy / m
    width = lengths[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (np.cumsum(dx * dy)[idx] - sx * my) / (
            np.cumsum(dx * dx)[idx] - sx * mx)
        icpt = my - slope * mx
        resid = np.abs(dy[:width] - slope[:, None] * dx[:width]
                       - icpt[:, None])
    resid[np.arange(width) >= lengths[:, None]] = 0.0
    return resid.max(axis=1)


def best_loglog_window(x: np.ndarray, y: np.ndarray, max_resid: float):
    """Largest contiguous window of (x, y) whose log10-log10 line fit keeps
    every |residual| within ``max_resid``; ties resolved by smaller residual.

    Returns ``(slope, intercept, resid, i, j)`` with the window ``x[i:j]``,
    or the full-range fit when even no window of ``MIN_WINDOW_POINTS``
    qualifies (callers can see that from the returned residual).  ``x`` and
    ``y`` must be finite and positive.

    Each start screens all its window lengths at once.  Only the windows
    the screen cannot rule out are fitted with ``ls_line``, longest first,
    and those exact numbers decide and are returned.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all((x > 0.0) & (x < np.inf))
            and np.all((y > 0.0) & (y < np.inf))):
        raise ValueError("log-log fits need finite positive x and y")
    lx, ly = np.log10(x), np.log10(y)
    n = lx.size
    scale = 1.0 + np.abs(lx).max(initial=0.0) + np.abs(ly).max(initial=0.0)
    ceiling = max_resid + SCREEN_SLACK * n ** 3 * scale
    best = None
    shortest = MIN_WINDOW_POINTS  # no shorter window can win
    for i in range(n - MIN_WINDOW_POINTS + 1):
        if n - i < shortest:
            break
        lengths = np.arange(n - i, shortest - 1, -1)
        screened = _screened_residuals(lx[i:], ly[i:], lengths)
        for m in lengths[~(screened > ceiling)]:  # NaN screens are kept
            j = i + int(m)
            slope, icpt, resid = ls_line(lx[i:j], ly[i:j])
            if resid <= max_resid:
                cand = (j - i, -resid, slope, icpt, resid, i, j)
                if best is None or cand[:2] > best[:2]:
                    best = cand
                    shortest = j - i
                break  # largest passing window for this start found
    if best is None:
        slope, icpt, resid = ls_line(lx, ly)
        return slope, icpt, resid, 0, n
    _, _, slope, icpt, resid, i, j = best
    return slope, icpt, resid, i, j
