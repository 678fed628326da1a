"""Scaling curves of single layers, timed by direct calls with tracing off,
and their comparison with the baseline list of ROADMAP item 1.

Curves in n use harmonic4 at ``nu = 1/2`` (the hvi check's arguments).
Curves in the grid size G fit the noise-free error curve of harmonic4 at
n = 10^4 on the alpha range of the ``rate_sweeps`` workload; it bends where
the error saturates, so the window search rejects many windows, as it does
in real sweeps.  Each fit is checked against the search's own contract: the
window has at least four points and its residual is within the ceiling.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SIZES = (60, 1000, 10000, 100000)
GRIDS = (25, 50, 100, 200)

#: ROADMAP item 1 baseline seconds beside the sweep metric that measures
#: the same call.
ROADMAP_BASELINE = (
    ("probe_families at n = 10^4", 0.463, "conditions.probe_families.s.n10000"),
    ("probe_families at n = 10^5", 3.26, "conditions.probe_families.s.n100000"),
    ("check_spectral_tail at n = 10^5", 0.007,
     "conditions.check_spectral_tail.s.n100000"),
    ("best_loglog_window on 25 points", 0.0006, "fitting.best_loglog_window.s.g25"),
    ("best_loglog_window on 200 points", 0.411,
     "fitting.best_loglog_window.s.g200"),
)


def _median_time(fn, budget: float = 0.1, max_reps: int = 50):
    """Median seconds of repeated calls until ``budget`` is spent; returns
    (median, repetitions)."""
    times = []
    while not times or (sum(times) < budget and len(times) < max_reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), len(times)


def scaling_curves(seed: int):
    """Returns ``({metric: (seconds, "s")}, {metric: repetitions},
    [problems])``."""
    from tikrates import _fitting, conditions, instances, rates

    timed = {}
    for n in SIZES:
        inst = instances.build("harmonic4", n=n, seed=seed)
        op, u = inst.op, inst.u_dagger
        timed[f"conditions.probe_families.s.n{n}"] = _median_time(
            lambda: conditions.probe_families(op, u, 1.0, seed=seed))
        timed[f"conditions.split_bound.s.n{n}"] = _median_time(
            lambda: conditions._split_upper_bound(op, u.coeffs, 0.5, 1.0))
        timed[f"conditions.check_spectral_tail.s.n{n}"] = _median_time(
            lambda: conditions.check_spectral_tail(op, u, 0.5))

    h4 = instances.build("harmonic4", n=10000, seed=seed)
    problems = []
    for g in GRIDS:
        alphas = np.logspace(-3.0, 2.0, g)
        filt = alphas[:, None] / (alphas[:, None] + h4.op.lambdas[None, :])
        errors = np.sqrt((filt ** 2) @ (h4.u_dagger.coeffs ** 2))
        fit = []
        timed[f"fitting.best_loglog_window.s.g{g}"] = _median_time(
            lambda: fit.append(_fitting.best_loglog_window(
                alphas, errors, rates.FIT_MAX_RESID)))
        _, _, resid, i, j = fit[-1]
        if j - i < 4 or not resid <= rates.FIT_MAX_RESID:
            problems.append(f"window search on {g} points: window [{i}, {j}) "
                            f"with residual {resid}")
    metrics = {k: (v[0], "s") for k, v in timed.items()}
    reps = {k: v[1] for k, v in timed.items()}
    return metrics, reps, problems


def roadmap_comparison(metrics: dict) -> list:
    """Measured seconds beside the ROADMAP baseline, flagging gaps over 2x."""
    rows = []
    for label, listed, key in ROADMAP_BASELINE:
        measured = metrics[key][0]
        ratio = measured / listed
        rows.append({"item": label, "roadmap_s": listed, "measured_s": measured,
                     "measured_over_roadmap": ratio,
                     "gap_over_2x": not 0.5 <= ratio <= 2.0})
    return rows
