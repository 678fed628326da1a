"""Tests of the benchmark's own machinery: wrong outputs count as failed
invocations, spans aggregate without changing the package, and the metric
names agree with BENCHMARK.json.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import sweep  # noqa: E402
from checks import problem  # noqa: E402
from workloads import WORKLOADS, invocation, invocations  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _failures(*invs):
    runner = run.Runner(list(invs))
    runner.run_pass()
    assert runner.attempted == len(invs)
    return runner.failures


def test_flipped_verdict_counts_as_failed():
    inv = invocation("check --instance counter26 --condition ssc --nu 0.5")
    assert inv.expected == "RefutedAtN"
    flipped = dataclasses.replace(inv, expected="Certified")
    failures = _failures(inv, flipped)
    assert len(failures) == 1
    assert "verdict RefutedAtN, documented Certified" in failures[0]


def test_out_of_tolerance_slope_counts_as_failed():
    inv = invocation("rates --instance counter26 --mode noise-free")
    # above alpha ~ 1e-2 the error saturates, so the fitted order drops
    off = dataclasses.replace(
        inv, argv=inv.argv + ("--alpha-min", "1e-2", "--alpha-max", "1e2"))
    failures = _failures(inv, off)
    assert len(failures) == 1
    assert "documented 0.2500 +- 0.03" in failures[0]


def test_nonzero_exit_and_violations_count_as_failed():
    inv = invocation("check --instance counter26 --condition hvi --nu 0.5")
    too_small = dataclasses.replace(inv, argv=inv.argv + ("--n", "4"))
    assert _failures(too_small) == [
        " ".join(too_small.argv) + " | exit code 2 | error: --n must be at "
        "least 8"]
    lemmas = invocation("lemmas --count 10")
    out = {"cs_bound": {"violations": 0}, "tail_bound": {"violations": 1},
           "split_point": {"violations": 0}, "generated_at": "now"}
    assert problem(lemmas, 0, json.dumps(out)) == "1 inequality violations"


def test_every_workload_is_checked_against_documented_verdicts():
    for name in WORKLOADS:
        invs = invocations(name, seed=3)
        assert all(i.expected for i in invs if i.args.command == "check")
        assert run.tail_percentile(len(invs)) >= 50


def test_spans_count_waste_and_restore_the_package():
    import tikrates.conditions

    original = tikrates.conditions.probe_families
    tracer = spans.Tracer()
    runner = run.Runner([
        invocation("check --instance counter26 --condition hvi --nu 0.5"),
        invocation("rates --instance counter26 --mode noisy"),
    ])
    with spans.instrumented(tracer):
        assert tikrates.conditions.probe_families is not original
        wall, _ = runner.run_pass()
    assert tikrates.conditions.probe_families is original
    assert runner.failures == []
    m = spans.pass_metrics(tracer)
    assert m["conditions.probe_families.calls"] == (1.0, "count")
    assert m["conditions.probe_families.probes"][0] > 1000
    # rates --mode noisy sweeps the grid twice: noisy_rate, noisy_sweep_rows
    assert m["rates.noisy_errors.per_point"] == (2.0, "calls/point")
    assert m["fitting.best_loglog_window.calls"] == (1.0, "count")
    # self times partition the root span's busy time
    assert abs(sum(tracer.self_s.values()) - tracer.busy["cli.main"]) < 1e-9
    assert tracer.busy["cli.main"] <= wall


def test_metric_names_match_benchmark_json():
    curves = [f"{layer}.s.n{n}" for n in sweep.SIZES
              for layer in ("conditions.probe_families",
                            "conditions.split_bound",
                            "conditions.check_spectral_tail")]
    curves += [f"fitting.best_loglog_window.s.g{g}" for g in sweep.GRIDS]
    per_layer = set(spans.PASS_METRICS) | set(curves) | {"trace.overhead_frac"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == per_layer

    runner = run.Runner([invocation("check --instance counter26 "
                                    "--condition tail --nu 0.5")] * 5)
    metrics, samples, _, attempted, failed = run.end_to_end(runner, 0.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert samples["wall_s"] == run.MIN_PASSES and failed == 0
    assert attempted == 5 * (run.MIN_PASSES + 1)
