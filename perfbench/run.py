"""Benchmark of the tikrates command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
The workload's fixed list of CLI invocations is driven in-process through
``tikrates.cli.main(argv)`` in a closed loop (one caller in one process;
each invocation starts when the previous one returns).  ``--seconds``
bounds the whole measurement: the set-up samples, one warm-up pass and the
timed passes, which repeat while another one fits (at least ``MIN_PASSES``
of them run even if they do not).  Every output is checked (see
``checks.py``).  A report goes to standard output, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a run with spans
installed with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
from checks import problem
from workloads import WORKLOADS, invocations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Timed passes per run, even when they take longer than --seconds.
MIN_PASSES = 4
#: Fresh processes timed for setup_s (after one untimed one).
SETUP_SAMPLES = 9
#: One caller on one core: BLAS runs single-threaded, so that neighbours on
#: a shared machine do not steal a second BLAS thread mid-run.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Time from a fresh interpreter to ready: import plus building the parser.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tikrates.cli
tikrates.cli._parser()
print(time.perf_counter() - t0)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least ten of the ``MIN_PASSES``
    passes' invocations beyond it; fixed per workload, so that runs of
    different speed report the same percentile."""
    n = MIN_PASSES * per_pass
    if n < 20:
        raise ValueError("a workload needs at least 20 invocations in "
                         "MIN_PASSES passes for a tail above the median")
    return int(100.0 * (1.0 - 10.0 / n))


class Runner:
    """Runs passes over one invocation list and counts failed outputs."""

    def __init__(self, invocations):
        from tikrates import cli

        self.cli = cli
        self.invocations = invocations
        self.attempted = 0
        self.failures = []

    def _call(self, argv):
        try:
            return self.cli.main(list(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an invocation that raises counts as failed
            traceback.print_exc()
            return f"raised {type(exc).__name__}"

    def run_pass(self):
        """One pass; returns (wall seconds, per-invocation seconds).  The
        outputs are checked after the pass clock stops."""
        results = []
        start = perf_counter()
        for inv in self.invocations:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self._call(inv.argv)
            results.append((inv, rc, perf_counter() - t0, out.getvalue(),
                            err.getvalue()))
        wall = perf_counter() - start
        self.attempted += len(results)
        for inv, rc, _, out, err in results:
            why = problem(inv, rc, out)
            if why:
                detail = err.strip().splitlines()[-1:] if err.strip() else []
                self.failures.append(" | ".join([" ".join(inv.argv), why]
                                                + detail))
        return wall, [r[2] for r in results]


def _setup_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def _more(walls, start, seconds, least):
    """Another pass fits in the time left, or fewer than ``least`` ran."""
    if len(walls) < least:
        return True
    return perf_counter() - start + statistics.median(walls) <= seconds


def end_to_end(runner, seconds):
    """The pass and call times are each the fastest over the run's timed
    passes: the host's CPU speed drifts by tens of percent within seconds
    (see README.md), and interference only ever slows a pass down."""
    import numpy as np

    start = perf_counter()
    setup = [_setup_seconds() for _ in range(SETUP_SAMPLES + 1)][1:]
    runner.run_pass()  # warm-up
    walls, passes = [], []
    while _more(walls, start, seconds, MIN_PASSES):
        wall, times = runner.run_pass()
        walls.append(wall)
        passes.append(times)
    best = np.min(passes, axis=0)  # per invocation
    pct = tail_percentile(len(runner.invocations))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (min(walls), "s"),
        "call_p50_s": (float(np.percentile(best, 50, method="inverted_cdf")),
                       "s"),
        "call_tail_s": (float(np.percentile(best, pct,
                                            method="inverted_cdf")), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    calls = len(walls) * len(runner.invocations)
    samples = {"setup_s": len(setup), "wall_s": len(walls),
               "call_p50_s": calls, "call_tail_s": calls, "peak_rss_mb": 1}
    attempted = runner.attempted
    extra = {"run_s": perf_counter() - start, "call_tail_percentile": pct,
             "fail_frac": len(runner.failures) / attempted,
             "pass_wall_s": walls, "setup_samples_s": setup,
             "invocation_best_s": {
                 " ".join(inv.argv): float(b)
                 for inv, b in zip(runner.invocations, best)},
             "invocation_median_s": {
                 " ".join(inv.argv): float(m)
                 for inv, m in zip(runner.invocations,
                                   np.median(passes, axis=0))}}
    return metrics, samples, extra, attempted, len(runner.failures)


def traced(runner, seconds, seed):
    import sweep  # imports numpy, so only after the BLAS settings

    start = perf_counter()
    runner.run_pass()  # warm-up
    curves, reps, sweep_problems = sweep.scaling_curves(seed)
    tracer = spans.Tracer()
    plain, spanned, per_pass = [], [], []
    while _more([a + b for a, b in zip(plain, spanned)], start, seconds, 2):
        plain.append(runner.run_pass()[0])
        tracer.reset()
        with spans.instrumented(tracer):
            spanned.append(runner.run_pass()[0])
        per_pass.append(spans.pass_metrics(tracer))
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics.update(curves)
    metrics["trace.overhead_frac"] = (
        statistics.median(spanned) / statistics.median(plain) - 1.0, "frac")
    samples = {name: len(per_pass) for name in per_pass[0]}
    samples.update(reps)
    samples["trace.overhead_frac"] = len(plain)
    runner.failures.extend(sweep_problems)
    extra = {"run_s": perf_counter() - start,
             "roadmap_baseline": sweep.roadmap_comparison(metrics)}
    attempted = runner.attempted + len(sweep.GRIDS)
    return metrics, samples, extra, attempted, len(runner.failures)


def machine_facts(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without mode="dicts"
        blas = "unknown"
    return {"cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "tikrates" / "cli.py").is_file():
        print(f"perfbench: no tikrates sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import tikrates

    if Path(tikrates.__file__).resolve().parent != SRC / "tikrates":
        print(f"perfbench: imported tikrates from {tikrates.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    runner = Runner(invocations(args.workload, args.seed))
    if args.trace:
        metrics, samples, extra, attempted, failed = traced(
            runner, args.seconds, args.seed)
    else:
        metrics, samples, extra, attempted, failed = end_to_end(
            runner, args.seconds)
    report = {"workload": args.workload, "trace": args.trace,
              "machine": machine_facts(args.seed),
              "invocations_per_pass": len(runner.invocations),
              "samples": samples, **extra,
              "failures": runner.failures[:20]}
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
