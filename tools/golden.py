"""Write the golden ``--no-timestamp`` artifacts of the command line.

Usage: ``python3 tools/golden.py OUTDIR``

Writes 109 files into OUTDIR: ``conformance --all``; ``lemmas --count
2000``; ``check`` on every documented (instance, condition, parameter) at
n = 60; the six deep ``check`` calls of the benchmark's ``certify_deep``
workload (identity hvi, tail and ssc and harmonic4 tail at n = 10^5,
identity svi and harmonic4 ivi at n = 10^4), where the random probes pass
through several chunks per block, and harmonic4 hvi at nu = 1 and
n = 10^5, where the needed constant grows like ``sqrt(log n)``; two
operator JSON files, a diagonal section and a rank-3 integer matrix with
ambient data, each run through ``check --condition hvi --nu 0.5`` and
``rates --mode noisy``; ``check --condition ivi --mu 1.0`` with one
constant supplied and the other derived, on identity with ``--gamma 0.25``
and on harmonic4 with ``--beta 14``; the eight harmonic4 n = 10^4 ``rates``
calls of the benchmark's ``rate_sweeps`` workload at seed 1, with 100- to
200-point fit windows and random noise at n = 10^4; and, on every named
instance, ``rates --mode noisy --mu 1.0`` as JSON, as CSV and as CSV under
``--noise random --trials 5``; ``rates --mode infimum`` plain, with
``--noise in-range`` and with ``--delta 0``; ``check --condition svi --nu
1.0``; and ``check --condition ivi --mu 1.0 --beta 0.1 --gamma 0``.  The
package is imported from the ``src`` directory next to this script, so
running the script from two checkouts and comparing the output directories
with ``diff -r`` shows whether a change moved any output byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tikrates.cli import main as cli_main  # noqa: E402
from tikrates.conditions import IVI  # noqa: E402
from tikrates.instances import INSTANCE_NAMES, build  # noqa: E402

N = 60
DEEP_CHECKS = (("identity", 100000, "hvi", "--nu", "0.5"),
               ("identity", 100000, "tail", "--nu", "1.0"),
               ("identity", 100000, "ssc", "--nu", "1.0"),
               ("harmonic4", 100000, "tail", "--nu", "1.0"),
               ("identity", 10000, "svi", "--nu", "1.0"),
               ("harmonic4", 10000, "ivi", "--mu", "1.0"),
               ("harmonic4", 100000, "hvi", "--nu", "1.0"))
# Operator files for the loader: a diagonal section, and a 6 x 5 integer
# matrix of rank 3 (two null directions dropped) whose ambient data lies in
# its range.
OPERATOR_FILES = {
    "op_diagonal": {"diagonal": [k ** -0.5 for k in range(1, 41)],
                    "y": [k ** -1.5 for k in range(1, 41)]},
    "op_matrix": {"matrix": [[2, 1, 1, 2, 3], [1, 2, 1, 3, 1],
                             [1, 1, 2, 1, 2], [3, 1, 2, 2, 5],
                             [1, 3, 2, 4, 1], [2, 2, 2, 3, 3]],
                  "y": [8, 5, 7, 13, 7, 10]},
}
DEEP_RATES = (
    "noise-free --alpha-min 1e-3 --alpha-max 1e2 --alpha-points 200",
    "noise-free --alpha-min 2e-3 --alpha-max 1e3 --alpha-points 200",
    "noise-free --alpha-min 1e-3 --alpha-max 1e1 --alpha-points 100",
    "noisy --mu 0.5 --delta-points 200",
    "noisy --mu 1.0 --noise random --trials 8 --delta-points 150",
    "infimum --alpha-points 200",
    "infimum --noise random --alpha-points 100",
    "infimum --noise random --alpha-points 200 --delta 1e-3")
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
    for name, n, condition, flag, param in DEEP_CHECKS:
        out = outdir / f"check_{name}_n{n}_{condition}_{param}.json"
        runs.append(["check", "--instance", name, "--n", str(n),
                     "--condition", condition, flag, param,
                     "--output", str(out)])
    for stem, spec in OPERATOR_FILES.items():
        path = outdir / f"{stem}.json"
        path.write_text(json.dumps(spec) + "\n")
        runs.append(["check", "--instance", str(path), "--condition", "hvi",
                     "--nu", "0.5", "--output",
                     str(outdir / f"check_{stem}_hvi_0.5.json")])
        runs.append(["rates", "--instance", str(path), "--mode", "noisy",
                     "--output", str(outdir / f"rates_{stem}_noisy.json")])
    for name, flag, value in ONE_CONSTANT_IVI:
        out = outdir / f"check_{name}_ivi_{flag[2:]}{value}.json"
        runs.append(["check", "--instance", name, "--n", str(N),
                     "--condition", "ivi", "--mu", "1.0", flag, value,
                     "--output", str(out)])
    for k, sweep in enumerate(DEEP_RATES, 1):
        out = outdir / f"rates_harmonic4_n10000_{k}.json"
        runs.append(["rates", "--instance", "harmonic4", "--n", "10000",
                     "--mode", *sweep.split(), "--seed", "1",
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
