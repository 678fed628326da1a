"""Semantic output checks for one CLI invocation.

These are not byte comparisons: a change that tightens ``beta_lower`` or
moves a constant within its documented bounds still passes.  A check
returns None when the output is correct, else a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

#: Documented convergence orders of counter26, as (slope, tolerance), keyed
#: by (instance, mode, mu); mu is None where the mode does not use it.
HEADLINE_SLOPES = {("counter26", "noise-free", None): (0.25, 0.03),
                   ("counter26", "noisy", 2.0 / 3.0): (1.0 / 3.0, 0.04)}

_CONFORMANCE_SUMMARY = re.compile(r"^(\d+) checks, 0 mismatches$")


def problem(inv, rc, out: str) -> str | None:
    """Why the output of ``inv`` is wrong, or None when it is correct."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[inv.args.command](inv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed
        return f"unreadable output: {exc!r}"


def _check(inv, out):
    rep = json.loads(out)
    if rep["verdict"] != inv.expected:
        return f"verdict {rep['verdict']}, documented {inv.expected}"
    consts = rep["constants"]
    if (rep["verdict"] == "Certified" and rep["condition"] in ("hvi", "svi")
            and not consts["beta"] >= consts["beta_lower"]):
        return (f"certified beta {consts['beta']} below the observed "
                f"ratio {consts['beta_lower']}")
    return None


def _rates(inv, out):
    payload = json.loads(out)
    if inv.args.mode == "infimum":
        value = payload["value"]
        return None if math.isfinite(value) and value > 0.0 else \
            f"infimum error {value}"
    slope = payload["fit"]["slope"]
    if not math.isfinite(slope):
        return f"slope {slope}"
    mu = inv.args.mu if inv.args.mode == "noisy" else None
    want = HEADLINE_SLOPES.get((inv.args.instance, inv.args.mode, mu))
    if want and abs(slope - want[0]) > want[1]:
        return f"slope {slope:.4f}, documented {want[0]:.4f} +- {want[1]}"
    return None


def _lemmas(inv, out):
    results = json.loads(out)
    bad = sum(results[suite]["violations"]
              for suite in ("cs_bound", "tail_bound", "split_point"))
    return None if bad == 0 else f"{bad} inequality violations"


def _conformance(inv, out):
    last = out.strip().splitlines()[-1]
    return None if _CONFORMANCE_SUMMARY.match(last) else last


_CHECKS = {"check": _check, "rates": _rates, "lemmas": _lemmas,
           "conformance": _conformance}
