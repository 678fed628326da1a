"""Write the golden ``--no-timestamp`` artifacts of the command line.

Usage: ``python3 tools/golden.py OUTDIR``

Writes 158 files into OUTDIR: ``conformance --all``; ``lemmas --count
2000``; ``check`` on every documented (instance, condition, parameter) at
n = 60; every invocation of the three benchmark workloads in
``perfbench/workloads.py`` at seed 1 (deep checks at n = 10^4 and 10^5,
the rate sweeps with 100- to 200-point fit windows, and the lemma and dense
finite_rank calls); harmonic4 hvi at nu = 1 and n = 10^5, where the needed
constant grows like ``sqrt(log n)``; seven operator JSON files, five
diagonal sections (two with a solution near 1e-170 and near 1e154), a
rank-3 integer matrix with two null directions and a full-rank square
matrix, each with ambient data and each run through
``check`` (hvi at nu = 0.5, ssc and svi at nu = 1.0) and ``rates --mode
noisy``, where two of the diagonal sections hold the only svi refutations
along the window probe families (see ``OPERATOR_FILES``); ``check --condition
ivi --mu 1.0`` with one constant supplied and the other derived, on identity
with ``--gamma 0.25`` and on harmonic4 with ``--beta 14``; and, on every
named instance, ``rates --mode noisy --mu 1.0`` as JSON, as CSV and as CSV
under ``--noise random --trials 5``; ``rates --mode infimum`` plain, with
``--noise in-range`` and with ``--delta 0``; ``check --condition svi --nu
1.0``; and ``check --condition ivi --mu 1.0 --beta 0.1 --gamma 0``.  The
package is imported from the ``src`` directory next to this script and the
workloads are only read, so running the script from two checkouts and
comparing the output directories with ``diff -r`` shows whether a change
moved any output byte; ``tools/golden_diff.py`` shows how far each moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tikrates.cli import main as cli_main  # noqa: E402
from tikrates.conditions import IVI  # noqa: E402
from tikrates.instances import INSTANCE_NAMES, build  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N = 60
BENCHMARK_SEED = 1
# Operator files for the loader, each with ambient data in the range: a
# diagonal section, a 6 x 5 integer matrix of rank 3 (two null directions
# dropped), and a 3 x 3 matrix of full rank, whose row count equals its rank.
# Two more diagonal sections pin the window probe families, which decide no
# documented instance: on op_zero_head (u_k = 1/k past a zero head) svi at
# nu = 1 is refuted along window8_inv_weight, else along window16_inv_weight;
# on op_dented (u_k = k**-1.5 at even k only) only window16_inv_weight
# refutes it.  Without those families both certify.  The last two pin the
# scale of the solution: on op_tiny the squares of u+ (near 1e-170)
# underflow, on op_huge (near 1e154) their sums overflow, unless the checks
# read u+ at its power of two.
K = range(1, 61)


def _diagonal_file(sigma, u) -> dict:
    return {"diagonal": sigma, "y": [s * v for s, v in zip(sigma, u)]}


OPERATOR_FILES = {
    "op_diagonal": {"diagonal": [k ** -0.5 for k in range(1, 41)],
                    "y": [k ** -1.5 for k in range(1, 41)]},
    "op_zero_head": _diagonal_file([1.0 / k for k in K],
                                   [1.0 / k if k > 10 else 0.0 for k in K]),
    "op_dented": _diagonal_file([k ** -1.5 for k in K],
                                [k ** -1.5 if k % 2 == 0 else 0.0 for k in K]),
    "op_matrix": {"matrix": [[2, 1, 1, 2, 3], [1, 2, 1, 3, 1],
                             [1, 1, 2, 1, 2], [3, 1, 2, 2, 5],
                             [1, 3, 2, 4, 1], [2, 2, 2, 3, 3]],
                  "y": [8, 5, 7, 13, 7, 10]},
    "op_square": {"matrix": [[4, 1, 0], [1, 3, 1], [0, 1, 2]],
                  "y": [5, 5, 3]},
    "op_tiny": _diagonal_file([2.0 ** -k for k in K],
                              [1e-170 * 2.0 ** (-k / 2) for k in K]),
    "op_huge": _diagonal_file([1.0 / k for k in K], [1e154 / k for k in K]),
}
# ivi checks with one constant supplied and the other derived
ONE_CONSTANT_IVI = (("identity", "--gamma", "0.25"),
                    ("harmonic4", "--beta", "14"))


def invocations(outdir: Path) -> list:
    runs = [["conformance", "--all", "--n", str(N),
             "--output", str(outdir / "conformance_all.json")],
            ["lemmas", "--count", "2000",
             "--output", str(outdir / "lemmas_2000.json")]]
    for name in INSTANCE_NAMES:
        for condition, param in sorted(build(name, n=N).expected):
            flag = "--mu" if condition == IVI else "--nu"
            out = outdir / f"check_{name}_{condition}_{param!r}.json"
            runs.append(["check", "--instance", name, "--n", str(N),
                         "--condition", condition, flag, repr(param),
                         "--output", str(out)])
    for workload, lines in WORKLOADS.items():
        for k, line in enumerate(lines(BENCHMARK_SEED), 1):
            out = outdir / f"bench_{workload}_{k:02d}.json"
            runs.append([*line.split(), "--output", str(out)])
    runs.append(["check", "--instance", "harmonic4", "--n", "100000",
                 "--condition", "hvi", "--nu", "1.0", "--output",
                 str(outdir / "check_harmonic4_n100000_hvi_1.0.json")])
    for stem, spec in OPERATOR_FILES.items():
        path = outdir / f"{stem}.json"
        path.write_text(json.dumps(spec) + "\n")
        runs.append(["check", "--instance", str(path), "--condition", "hvi",
                     "--nu", "0.5", "--output",
                     str(outdir / f"check_{stem}_hvi_0.5.json")])
        runs.append(["rates", "--instance", str(path), "--mode", "noisy",
                     "--output", str(outdir / f"rates_{stem}_noisy.json")])
        for condition in ("ssc", "svi"):
            runs.append(["check", "--instance", str(path), "--condition",
                         condition, "--nu", "1.0", "--output",
                         str(outdir / f"check_{stem}_{condition}_1.0.json")])
    for name, flag, value in ONE_CONSTANT_IVI:
        out = outdir / f"check_{name}_ivi_{flag[2:]}{value}.json"
        runs.append(["check", "--instance", name, "--n", str(N),
                     "--condition", "ivi", "--mu", "1.0", flag, value,
                     "--output", str(out)])
    for name in INSTANCE_NAMES:
        rates = ["rates", "--instance", name, "--n", str(N)]
        noisy = rates + ["--mode", "noisy", "--mu", "1.0"]
        runs.append(noisy + ["--output", str(outdir / f"rates_{name}_noisy.json")])
        runs.append(noisy + ["--format", "csv",
                             "--output", str(outdir / f"rates_{name}_noisy.csv")])
        runs.append(noisy + ["--noise", "random", "--trials", "5",
                             "--format", "csv", "--output",
                             str(outdir / f"rates_{name}_noisy_random.csv")])
        infimum = rates + ["--mode", "infimum"]
        runs.append(infimum + ["--output",
                               str(outdir / f"rates_{name}_infimum.json")])
        runs.append(infimum + ["--noise", "in-range", "--output",
                               str(outdir / f"rates_{name}_infimum_in_range.json")])
        runs.append(infimum + ["--delta", "0", "--output",
                               str(outdir / f"rates_{name}_infimum_delta0.json")])
        check = ["check", "--instance", name, "--n", str(N)]
        runs.append(check + ["--condition", "svi", "--nu", "1.0", "--output",
                             str(outdir / f"check_{name}_svi_nu1.json")])
        runs.append(check + ["--condition", "ivi", "--mu", "1.0",
                             "--beta", "0.1", "--gamma", "0", "--output",
                             str(outdir / f"check_{name}_ivi_beta0.1.json")])
    return runs


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: golden.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for argv_cli in invocations(outdir):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv_cli, "--no-timestamp"])
        if code != 0:
            failed += 1
            print(f"exit {code}: tikrates {' '.join(argv_cli)}", file=sys.stderr)
    written = sum(1 for p in outdir.iterdir() if p.is_file())
    print(f"{written} files in {outdir}, {failed} failed invocations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
