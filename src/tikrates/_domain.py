"""Domain guards for the public scalar parameters: each domain is written once,
as an interval string such as ``"(0, 1]"`` or ``"[0, inf)"``, which serves
as both the rule and the error message; counts take :func:`check_count`."""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache


@lru_cache(maxsize=32)
def _rule(interval: str):
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    left = {"(": operator.lt, "[": operator.le}[interval[0]]
    right = {")": operator.lt, "]": operator.le}[interval[-1]]
    return lambda x: math.isfinite(x) and left(lo, x) and right(x, hi)


def in_interval(name: str, value, interval: str) -> float:
    """Return ``float(value)`` if it lies in ``interval``, else raise
    ``ValueError("<name> must lie in <interval>")``.  An ``inf`` endpoint
    means unbounded: NaN and +-inf are always rejected."""
    if _rule(interval)(x := float(value)):
        return x
    raise ValueError(f"{name} must lie in {interval}")


def check_count(name: str, n) -> None:
    """Raise ``ValueError`` unless ``n`` is an integer, not a bool, >= 1."""
    if type(n) is bool or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} must be at least 1, as an integer")
