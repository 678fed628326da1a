"""The three benchmark workloads: fixed lists of ``tikrates`` CLI invocations.

Every invocation is run in-process through ``tikrates.cli.main(argv)`` and
carries what its output check needs: the CLI's own parse of the arguments
and, for ``check``, the verdict documented in the instance's ``expected``
map.  The workload seed is passed to the CLI as ``--seed``.

Inputs left out on purpose (they fail at this commit, so timing them would
time an error path and penalise the fix):

* ``counter26`` at n >= 1000: LAPACK ``DLASCL`` errors, or a
  ``FrameMismatchError`` once ``2**-n`` underflows;
* ``random_diag`` at n = 10^4: ``FrameMismatchError`` from the same
  underflow;
* ``check harmonic4 --n 100000 --condition ivi --mu 1`` returns
  ``Certified`` where the documented verdict is ``RefutedAtN``.
"""

from __future__ import annotations

from dataclasses import dataclass


def _certify_deep(seed: int) -> list[str]:
    # Deep truncations exercise the probe families, the split bound and the
    # spectral-tail route (identity certifies everything) and the early-exit
    # refutation (harmonic4 ivi, with constants derived through hvi).
    deep = [
        "check --instance identity --n 100000 --condition hvi --nu 0.5",
        "check --instance identity --n 100000 --condition tail --nu 1.0",
        "check --instance identity --n 100000 --condition ssc --nu 1.0",
        "check --instance harmonic4 --n 100000 --condition tail --nu 1.0",
        "check --instance identity --n 10000 --condition svi --nu 1.0",
        "check --instance harmonic4 --n 10000 --condition ivi --mu 1.0",
    ]
    # At the default n: conformance --all, then every documented verdict of
    # counter26 and remark_nu_gap, each once.
    default_n = [
        "conformance --all",
        "check --instance counter26 --condition ssc --nu 0.5",
        "check --instance counter26 --condition ssc --nu 0.45",
        "check --instance counter26 --condition ssc --nu 0.4",
        "check --instance counter26 --condition ssc --nu 0.3",
        "check --instance counter26 --condition hvi --nu 0.5",
        "check --instance counter26 --condition tail --nu 0.5",
        "check --instance remark_nu_gap --condition ssc --nu 0.45",
        "check --instance remark_nu_gap --condition ssc --nu 0.4",
        "check --instance remark_nu_gap --condition ssc --nu 0.3",
        "check --instance remark_nu_gap --condition hvi --nu 0.5",
    ]
    return [f"{line} --seed {seed}" for line in deep + default_n]


def _rate_sweeps(seed: int) -> list[str]:
    # harmonic4 at n = 10^4 needs alphas above ten times its smallest
    # squared singular value (1e-4), hence the noise-free grids start at 1e-3.
    h4 = "rates --instance harmonic4 --n 10000"
    lines = [
        f"{h4} --mode noise-free --alpha-min 1e-3 --alpha-max 1e2 --alpha-points 200",
        f"{h4} --mode noise-free --alpha-min 2e-3 --alpha-max 1e3 --alpha-points 200",
        f"{h4} --mode noise-free --alpha-min 1e-3 --alpha-max 1e1 --alpha-points 100",
        f"{h4} --mode noisy --mu 0.5 --delta-points 200",
        f"{h4} --mode noisy --mu 1.0 --noise random --trials 8 --delta-points 150",
        f"{h4} --mode infimum --alpha-points 200",
        f"{h4} --mode infimum --noise random --alpha-points 100",
        f"{h4} --mode infimum --noise random --alpha-points 200 --delta 1e-3",
        # counter26 at the default n: its headline slopes are output checks
        "rates --instance counter26 --mode noise-free",
        "rates --instance counter26 --mode noisy",
        "rates --instance counter26 --mode infimum --delta 1e-4",
    ]
    return [f"{line} --seed {seed}" for line in lines]


def _construction(seed: int) -> list[str]:
    # Both ends of operator construction.  Each lemmas call builds thousands
    # of tiny operators (n <= 30), so per-object overhead in operators,
    # measures and suites dominates it; seeds are disjoint per workload seed.
    # finite_rank is the only dense instance: each of its calls runs two
    # n x n QR factorizations and one dense SVD in instances.build and
    # from_matrix.  Pure-Python work is what the host's speed drift hits
    # hardest, so the dense calls outnumber the lemmas calls.
    lemmas = [f"lemmas --count 500 --seed {seed * 2 + i}" for i in range(2)]
    fr = f"--instance finite_rank --n 900 --seed {seed}"
    dense = [f"check {fr} --condition svi --nu 2.0",
             f"check {fr} --condition ivi --mu 1.0",
             f"conformance {fr}",
             f"rates {fr} --mode noisy --mu 1.0"]
    return lemmas + dense


WORKLOADS = {
    "certify_deep": _certify_deep,
    "rate_sweeps": _rate_sweeps,
    "construction": _construction,
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the CLI's parse of it, and the documented
    verdict a ``check`` call must reproduce (None for other commands)."""

    argv: tuple
    args: object
    expected: str | None = None


def invocation(line: str) -> Invocation:
    """Parse one command line with the CLI's own parser and look up the
    documented verdict of a ``check`` call."""
    from tikrates import cli
    from tikrates.instances import build

    argv = tuple(line.split())
    args = cli._parser().parse_args(argv)
    expected = None
    if args.command == "check":
        condition = cli.CONDITION_ALIASES[args.condition]
        param = args.mu if condition == "ivi" else args.nu
        documented = build(args.instance, n=60, seed=args.seed).expected
        if (condition, param) not in documented:
            raise ValueError(f"{line!r}: no documented verdict to check")
        expected = documented[(condition, param)]
    return Invocation(argv, args, expected)


def invocations(workload: str, seed: int) -> list[Invocation]:
    return [invocation(line) for line in WORKLOADS[workload](seed)]
