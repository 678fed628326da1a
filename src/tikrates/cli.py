"""Command line front end.

Subcommands: ``check`` runs one condition check and writes the report,
``rates`` sweeps a parameter grid and writes fit plus per-point rows,
``lemmas`` batch-verifies the measure inequalities, ``conformance`` compares
computed verdicts against the documented expectations of the named
instances.  Outputs are JSON or CSV; with ``--no-timestamp`` a JSON artifact
is byte-reproducible for a fixed seed and configuration.

Exit codes: 0 success, 1 verdict mismatch or inequality violation, 2 usage
error.  The environment variable ``TIKRATES_OUTDIR`` sets the directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import conditions as cond
from . import suites
from ._domain import in_interval
from .instances import CHECKS, INSTANCE_NAMES, NamedInstance, build, \
    run_battery
from .operators import SpectralOperator
from .rates import (IN_RANGE, RANDOM_SPHERE, WORST_CASE_BASIS, NoiseModel,
                    infimum_rate, noise_free_rate, noisy_rate,
                    noisy_sweep_rows)
from .tikhonov import min_norm_solution

CONDITION_ALIASES = {
    "ssc": cond.STANDARD_SC, "standard_sc": cond.STANDARD_SC,
    "hvi": cond.HVI, "ivi": cond.IVI, "svi": cond.SVI,
    "tail": cond.SPECTRAL_TAIL, "spectral_tail": cond.SPECTRAL_TAIL,
}
NOISE_ALIASES = {"worst-case": WORST_CASE_BASIS, "random": RANDOM_SPHERE,
                 "in-range": IN_RANGE}
_ALPHA_GRID = {"--alpha-min", "--alpha-max", "--alpha-points"}
_DELTA_GRID = {"--delta-min", "--delta-max", "--delta-points"}
#: The conditions that read each ``check`` option, parameters first.
CHECK_OPTIONS = {"nu": (cond.STANDARD_SC, cond.HVI, cond.SVI, cond.SPECTRAL_TAIL),
                 "mu": (cond.IVI,), "beta": (cond.IVI,), "gamma": (cond.IVI,)}
#: The mode options each ``rates`` mode reads; the others are refused.
RATES_OPTIONS = {
    "noise-free": _ALPHA_GRID,
    "noisy": {"--mu", "--noise", "--trials"} | _DELTA_GRID,
    "infimum": {"--noise", "--trials", "--delta"} | _ALPHA_GRID,
}


def _out_path(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        p = Path(os.environ.get("TIKRATES_OUTDIR", ".")) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _strict(obj):
    """``obj`` with every non-finite float replaced by the string ``"inf"``,
    ``"-inf"`` or ``"nan"``, which strict JSON can carry."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _dump_json(payload: dict, path: str | None, stamp: bool) -> str:
    if stamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    text = json.dumps(_strict(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    if path:
        _out_path(path).write_text(text + "\n")
    return text


def _load_instance(args) -> NamedInstance:
    ref = args.instance
    if ref in INSTANCE_NAMES:
        return build(ref, n=args.n, seed=args.seed)
    path = Path(ref)
    if not path.exists():
        raise ValueError(f"unknown instance {ref!r} and no such file")
    spec = json.loads(path.read_text())
    if not isinstance(spec, dict):
        raise ValueError("operator file must hold a JSON object")
    if "y" not in spec:
        raise ValueError("operator file must provide 'y'")
    if "diagonal" in spec:
        op = SpectralOperator.diagonal(_numbers(spec, "diagonal"))
    elif "matrix" in spec:
        op = SpectralOperator.from_matrix(_numbers(spec, "matrix"))
    else:
        raise ValueError("operator file needs 'diagonal' or 'matrix'")
    y = _numbers(spec, "y")
    return NamedInstance(name=path.stem, op=op, y=op.data_from_ambient(y)[0],
                         u_dagger=min_norm_solution(op, y), expected={})


def _numbers(spec: dict, key: str) -> np.ndarray:
    """The operator file's ``key`` entry, a number or a rectangular (nested)
    list of numbers, as a float array.  JSON ``true`` and ``false`` are not
    numbers."""
    value = spec[key]

    def numeric(v):
        if isinstance(v, list):
            return all(map(numeric, v))
        return type(v) in (int, float)  # not isinstance: a bool is an int

    if not numeric(value):
        raise ValueError(f"operator file: {key!r} must be a number or a list "
                         "of numbers")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # a ragged list
        raise ValueError(f"operator file: {key!r} must be a rectangular "
                         "list") from None
    except OverflowError:
        raise ValueError(f"operator file: {key!r} holds an integer beyond "
                         "the float range") from None


def _cmd_check(args) -> int:
    condition = CONDITION_ALIASES[args.condition]
    # a flag the condition does not read is refused, not ignored
    for opt, readers in CHECK_OPTIONS.items():
        if condition not in readers and getattr(args, opt) is not None:
            raise ValueError(f"--{opt} does not apply to {condition} (it can "
                             f"apply only to {', '.join(readers)})")
    flag, *consts = (o for o, r in CHECK_OPTIONS.items() if condition in r)
    if (param := getattr(args, flag)) is None:
        raise ValueError(f"--{flag} is required for this condition")
    inst = _load_instance(args)
    rep = getattr(cond, CHECKS[condition])(
        inst.op, inst.u_dagger, param, *(getattr(args, c) for c in consts))
    print(_dump_json(rep.to_json(), args.output, not args.no_timestamp))
    return 0


def _grid(args, name: str):
    lo, hi = (in_interval(f"--{name}-{end}", getattr(args, f"{name}_{end}"),
                          "(0, inf)") for end in ("min", "max"))
    return np.logspace(np.log10(lo), np.log10(hi),
                       getattr(args, f"{name}_points"))


def _write_csv(path: str, header, rows) -> None:
    with _out_path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_rates(args) -> int:
    unread = sorted(args.given - RATES_OPTIONS[args.mode])
    # an option the mode does not read is refused, not ignored
    if unread:
        raise ValueError(f"--mode {args.mode} does not read "
                         f"{', '.join(unread)}")
    if args.format == "csv" and not args.output:
        raise ValueError("--format csv needs --output")
    inst = _load_instance(args)
    noise = NoiseModel(kind=NOISE_ALIASES[args.noise], seed=args.seed)
    if args.mode == "noise-free":
        fit = noise_free_rate(inst.op, inst.y, _grid(args, "alpha"))
        rows = [(x, e, x, 0) for x, e in fit.grid]
        payload = {"mode": args.mode, "instance": inst.name,
                   "fit": fit.to_json()}
    elif args.mode == "noisy":
        deltas = _grid(args, "delta")
        fit = noisy_rate(inst.op, inst.y, deltas, args.mu, noise, args.trials)
        rows = noisy_sweep_rows(inst.op, inst.y, deltas, args.mu, noise,
                                args.trials)
        payload = {"mode": args.mode, "instance": inst.name, "mu": args.mu,
                   "noise": noise.kind, "fit": fit.to_json()}
    else:  # infimum
        value = infimum_rate(inst.op, inst.y, args.delta, noise,
                             _grid(args, "alpha"), args.trials)
        rows = [(args.delta, value, float("nan"), 0)]
        payload = {"mode": args.mode, "instance": inst.name,
                   "delta": args.delta, "value": value, "noise": noise.kind}
    if args.format == "csv":
        _write_csv(args.output, ("x", "error", "alpha_used",
                                 "trial_witness_index"), rows)
        print(_dump_json(payload, None, not args.no_timestamp))
    else:
        print(_dump_json(payload, args.output, not args.no_timestamp))
    return 0


def _cmd_lemmas(args) -> int:
    results = {
        "cs_bound": suites.cs_bound_suite(args.count, args.seed),
        "tail_bound": suites.tail_bound_suite(max(200, args.count // 5),
                                              args.seed),
        "split_point": suites.split_point_suite(),
    }
    bad = (results["cs_bound"]["violations"]
           + results["tail_bound"]["violations"]
           + results["split_point"]["violations"])
    print(_dump_json(results, args.output, not args.no_timestamp))
    return 0 if bad == 0 else 1


def _cmd_conformance(args) -> int:
    if args.all and args.instance is not None:
        raise ValueError("--instance does not apply with --all, which runs "
                         "every named instance")
    names = list(INSTANCE_NAMES) if args.all else [args.instance]
    rows = []
    for name in names:
        inst = build(name, n=args.n, seed=args.seed)
        rows.extend(run_battery(inst))
    width = max(len(r["instance"]) for r in rows)
    mismatches = 0
    print(f"{'instance':{width}}  {'condition':13} {'param':>7} "
          f"{'expected':12} {'computed':12} match")
    for r in rows:
        ok = r["match"]
        mismatches += 0 if ok else 1
        print(f"{r['instance']:{width}}  {r['condition']:13} "
              f"{r['parameter']:7.4g} {r['expected']:12} {r['computed']:12} "
              f"{'yes' if ok else 'NO'}")
    print(f"{len(rows)} checks, {mismatches} mismatches")
    if args.output:
        payload = {"checks": [
            {k: v for k, v in r.items() if k != "report"} for r in rows],
            "mismatches": mismatches}
        _dump_json(payload, args.output, not args.no_timestamp)
    return 0 if mismatches == 0 else 1


class _Given(argparse.Action):
    """Store an option's value and record its name in ``given``, so a mode
    can refuse the options it does not read while the parse keeps every
    default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {option_string}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    caller, which only parses with it."""
    # exact option names only: a prefix could be taken for another option
    top = argparse.ArgumentParser(prog="tikrates", description=__doc__,
                                  allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance",
                          help="instance name or operator JSON file")
    instance.add_argument("--n", type=int, default=60, help="truncation (>= 8)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=int, default=0)
    output.add_argument("--output", help="output file path")
    output.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp field for reproducible "
                             "output")
    common = [instance, output]

    p = sub.add_parser("check", parents=common, allow_abbrev=False,
                       help="run one condition check")
    p.add_argument("--condition", required=True,
                   choices=sorted(CONDITION_ALIASES))
    p.add_argument("--nu", type=float, help="parameter for ssc/hvi/svi/tail")
    p.add_argument("--mu", type=float, help="parameter for ivi")
    p.add_argument("--beta", type=float, help="ivi constant (doubled form)")
    p.add_argument("--gamma", type=float, help="ivi constant")

    p = sub.add_parser("rates", parents=common, allow_abbrev=False,
                       help="empirical convergence-order sweeps")
    p.add_argument("--mode", required=True,
                   choices=("noise-free", "noisy", "infimum"))
    p.set_defaults(given=frozenset())
    p.add_argument("--mu", type=float, default=2.0 / 3.0, action=_Given,
                   help="noisy mode only")
    p.add_argument("--noise", default="worst-case", action=_Given,
                   choices=sorted(NOISE_ALIASES))
    p.add_argument("--trials", type=int, default=None, action=_Given,
                   help="directions per noise level (random and in-range "
                        "noise only)")
    p.add_argument("--alpha-min", type=float, default=1e-10, action=_Given)
    p.add_argument("--alpha-max", type=float, default=1e-4, action=_Given)
    p.add_argument("--alpha-points", type=int, default=25, action=_Given)
    p.add_argument("--delta-min", type=float, default=1e-8, action=_Given)
    p.add_argument("--delta-max", type=float, default=1e-2, action=_Given)
    p.add_argument("--delta-points", type=int, default=25, action=_Given)
    p.add_argument("--delta", type=float, default=1e-4, action=_Given,
                   help="noise level for the infimum mode")
    p.add_argument("--format", default="json", choices=("json", "csv"))

    p = sub.add_parser("lemmas", parents=[output], allow_abbrev=False,
                       help="verify the measure inequalities in batch")
    p.add_argument("--count", type=int, default=10000)

    p = sub.add_parser("conformance", parents=common, allow_abbrev=False,
                       help="compare computed verdicts with documented ones")
    p.add_argument("--all", action="store_true", help="run every named instance")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    needs_instance = args.command in ("check", "rates") or (
        args.command == "conformance" and not args.all)
    handlers = {"check": _cmd_check, "rates": _cmd_rates,
                "lemmas": _cmd_lemmas, "conformance": _cmd_conformance}
    try:
        if needs_instance and args.instance is None:
            raise ValueError("--instance is required")
        if "n" in args and args.n < 8:
            raise ValueError("--n must be at least 8")
        if args.seed < 0:
            raise ValueError("--seed must be a non-negative integer")
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
