"""Spans around each layer's functions, recorded from the benchmark's files.

``instrumented(tracer)`` replaces every function in ``SPANS``, in each
loaded ``tikrates`` module that holds it, by a wrapper that records a span,
and puts the originals back on exit.  No file of the package changes.
Spans are aggregated in memory as they close: busy (inclusive) time, self
time (busy time minus that of direct child spans), calls, counters, and
the traced-memory peak where asked.  ``pass_metrics`` turns one pass's
aggregate into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


@dataclass(frozen=True)
class Span:
    """One instrumented function: ``target`` is ``module:attr`` or
    ``module:Class.attr``.  ``peak`` measures the traced-memory peak of the
    call; ``count(args, kwargs, result)`` returns counters to add; ``local``
    patches only the defining module, not the modules that imported it."""

    name: str
    target: str
    peak: bool = False
    count: object = None
    local: bool = False


SPANS = (
    Span("cli.main", "tikrates.cli:main"),
    Span("cli.dump_json", "tikrates.cli:_dump_json"),
    Span("instances.build", "tikrates.instances:build"),
    Span("instances.run_battery", "tikrates.instances:run_battery"),
    Span("instances.derive_ivi_constants",
         "tikrates.instances:derive_ivi_constants"),
    Span("conditions.check_standard_sc", "tikrates.conditions:check_standard_sc"),
    Span("conditions.check_hvi", "tikrates.conditions:check_hvi"),
    Span("conditions.check_svi", "tikrates.conditions:check_svi"),
    Span("conditions.check_ivi", "tikrates.conditions:check_ivi"),
    Span("conditions.check_spectral_tail",
         "tikrates.conditions:check_spectral_tail"),
    Span("conditions.probe_families", "tikrates.conditions:probe_families",
         peak=True,
         count=lambda a, k, r: {"probes": sum(f.ip.size for f in r)}),
    Span("conditions.split_bound", "tikrates.conditions:_split_upper_bound"),
    Span("conditions.divergence_proxy", "tikrates.conditions:_divergent"),
    Span("rates.noise_free_rate", "tikrates.rates:noise_free_rate"),
    Span("rates.noisy_rate", "tikrates.rates:noisy_rate",
         count=lambda a, k, r: {
             "noisy_points": len(_arg(a, k, 2, "delta_grid"))}),
    Span("rates.noisy_sweep_rows", "tikrates.rates:noisy_sweep_rows"),
    Span("rates.infimum_rate", "tikrates.rates:infimum_rate"),
    Span("rates.noisy_errors", "tikrates.rates:_noisy_errors"),
    Span("rates.noise_directions", "tikrates.rates:NoiseModel.directions",
         peak=True),
    Span("tikhonov.min_norm_solution", "tikrates.tikhonov:min_norm_solution"),
    Span("fitting.best_loglog_window", "tikrates._fitting:best_loglog_window"),
    # conditions imports ls_line too; count only the window search's calls
    Span("fitting.ls_line", "tikrates._fitting:ls_line", local=True),
    Span("operators.diagonal", "tikrates.operators:SpectralOperator.diagonal"),
    Span("operators.from_matrix",
         "tikrates.operators:SpectralOperator.from_matrix", peak=True),
    Span("operators.vector_measure", "tikrates.operators:vector_measure"),
    Span("measures.cs_measure_bound", "tikrates.measures:cs_measure_bound"),
    Span("measures.tail_integral_bound",
         "tikrates.measures:tail_integral_bound"),
    Span("measures.split_point", "tikrates.measures:split_point"),
    Span("suites.cs_bound_suite", "tikrates.suites:cs_bound_suite",
         count=lambda a, k, r: {"suite_instances": r["instances"]}),
    Span("suites.tail_bound_suite", "tikrates.suites:tail_bound_suite",
         count=lambda a, k, r: {"suite_instances": r["instances"]}),
    Span("suites.split_point_suite", "tikrates.suites:split_point_suite",
         count=lambda a, k, r: {"suite_instances": r["cases"]}),
)


class Tracer:
    """Per-pass aggregate of the spans recorded since the last ``reset``."""

    def __init__(self):
        self.stack = []  # child-time accumulators of the open spans
        self.reset()

    def reset(self):
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.peak_mb = defaultdict(float)


def _wrap(tracer: Tracer, span: Span, fn):
    stack = tracer.stack
    name = span.name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        children = [0.0]
        stack.append(children)
        if span.peak:
            tracemalloc.start()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            tracer.busy[name] += dur
            tracer.self_s[name] += dur - children[0]
            tracer.calls[name] += 1
            if span.peak:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                tracer.peak_mb[name] = max(tracer.peak_mb[name], peak)
        if span.count is not None:
            tracer.counts.update(span.count(args, kwargs, result))
        return result

    return traced


def _patch(tracer: Tracer, span: Span) -> list:
    """Install one span; returns (owner, attribute, original) to undo."""
    module_name, _, path = span.target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:  # method or classmethod of a class
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(_wrap(tracer, span, raw.__func__))
        else:
            new = _wrap(tracer, span, raw)
        setattr(owner, attr, new)
        return [(owner, attr, raw)]
    fn = getattr(module, path)
    wrapper = _wrap(tracer, span, fn)
    owners = [module] if span.local else [
        mod for key, mod in list(sys.modules.items())
        if key == "tikrates" or key.startswith("tikrates.")]
    undo = []
    for mod in owners:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))
    return undo


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Spans installed for the duration of the block."""
    undo = []
    try:
        for span in SPANS:
            undo.extend(_patch(tracer, span))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


#: Per-layer metrics taken from one traced pass, ``<span>.<stat>`` or
#: ``<layer>.self_s``; the derived ratios are defined in ``pass_metrics``.
PASS_METRICS = (
    "conditions.probe_families.s", "conditions.probe_families.calls",
    "conditions.probe_families.probes", "conditions.probe_families.peak_mb",
    "conditions.split_bound.s", "conditions.check_spectral_tail.s",
    "conditions.divergence_proxy.s", "conditions.divergence_proxy.calls",
    "conditions.check_standard_sc.s", "conditions.self_s",
    "fitting.best_loglog_window.s", "fitting.best_loglog_window.calls",
    "fitting.ls_line.calls",
    "rates.noisy_errors.s", "rates.noisy_errors.per_point",
    "rates.noise_directions.s", "rates.noise_directions.calls",
    "rates.noise_directions.peak_mb", "rates.noise_free_rate.s",
    "rates.infimum_rate.s", "rates.self_s",
    "tikhonov.min_norm_solution.calls", "tikhonov.min_norm_solution.s",
    "operators.diagonal.calls", "operators.diagonal.s",
    "operators.vector_measure.calls", "operators.vector_measure.s",
    "measures.cs_measure_bound.calls", "measures.cs_measure_bound.s",
    "measures.tail_integral_bound.s", "measures.split_point.s",
    "suites.cs_bound_suite.s", "suites.tail_bound_suite.s",
    "suites.split_point_suite.s", "suites.per_instance_us",
    "operators.from_matrix.s", "operators.from_matrix.peak_mb",
    "instances.build.s", "instances.build.calls", "instances.run_battery.s",
    "instances.derive_ivi_constants.s",
    "cli.self_s", "cli.dump_json.s",
)

UNITS = {"s": "s", "self_s": "s", "calls": "count", "peak_mb": "MB",
         "probes": "probes/call", "per_point": "calls/point",
         "per_instance_us": "us"}


def _ratio(num, den):
    return num / den if den else 0.0


def pass_metrics(t: Tracer) -> dict:
    """``{metric: (value, unit)}`` for one pass's aggregate.

    ``probes`` is probe vectors per ``probe_families`` call; ``per_point``
    is ``_noisy_errors`` calls per delta point requested from
    ``noisy_rate``; ``per_instance_us`` is the suites' busy time per suite
    instance.
    """
    suites = ("suites.cs_bound_suite", "suites.tail_bound_suite",
              "suites.split_point_suite")
    out = {}
    for metric in PASS_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "self_s":
            value = sum(v for k, v in t.self_s.items()
                        if k.startswith(head + "."))
        elif stat == "probes":
            value = _ratio(t.counts["probes"], t.calls[head])
        elif stat == "per_point":
            value = _ratio(t.calls[head], t.counts["noisy_points"])
        elif stat == "per_instance_us":
            value = 1e6 * _ratio(sum(t.busy[s] for s in suites),
                                 t.counts["suite_instances"])
        else:
            value = {"s": t.busy, "calls": t.calls,
                     "peak_mb": t.peak_mb}[stat][head]
        out[metric] = (float(value), UNITS[stat])
    return out
