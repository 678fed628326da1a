"""Compare two output directories of ``tools/golden.py`` value by value.

Usage: ``python3 tools/golden_diff.py A B``

For each file that differs between A and B, prints how many numbers moved
and the largest relative move ``|a - b| / max(|a|, |b|)`` with where it sits:
a JSON path such as ``fit.grid[3][1]``, or a CSV cell such as ``row 4,
error``.  Anything that is not a numeric move is a structural change and is
printed as such: a changed string, bool or null, a key or column that
appears or goes, a list or table of another length, a number that becomes
a string (the CLI writes a non-finite float as ``"inf"`` or ``"nan"``), or a
file that only one side has.  Exits 0 when nothing changed but numbers, 1 on
any structural change, 2 on a usage error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _move(a: float, b: float, where: str, moves: list,
          structural: list) -> None:
    """Record ``a -> b`` as a numeric move, or as structural when either side
    is not finite."""
    if a == b:
        return
    if math.isfinite(a) and math.isfinite(b):
        moves.append((abs(a - b) / max(abs(a), abs(b)), where))
    else:
        structural.append(f"{where}: {a!r} -> {b!r}")


def _json_diff(a, b, path: str, moves: list, structural: list) -> None:
    if _number(a) and _number(b):
        _move(a, b, path or "<root>", moves, structural)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                structural.append(f"key {sub} only in {'A' if key in a else 'B'}")
            else:
                _json_diff(a[key], b[key], sub, moves, structural)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append(f"{path or '<root>'}: length {len(a)} -> {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _json_diff(x, y, f"{path}[{i}]", moves, structural)
    elif type(a) is not type(b) or a != b:
        structural.append(f"{path or '<root>'}: {a!r} -> {b!r}")


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diff(a: str, b: str, moves: list, structural: list) -> None:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b):
        structural.append(f"{len(rows_a)} rows -> {len(rows_b)}")
        return
    header = rows_a[0] if rows_a else []
    for r, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            structural.append(f"row {r}: {len(ra)} cells -> {len(rb)}")
            continue
        for c, (x, y) in enumerate(zip(ra, rb)):
            where = f"row {r}, {header[c] if c < len(header) else c}"
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if r and fx is not None and fy is not None:
                _move(fx, fy, where, moves, structural)
            else:
                structural.append(f"{where}: {x!r} -> {y!r}")


def compare(path_a: Path, path_b: Path) -> tuple[list, list]:
    """Numeric moves ``(relative, where)`` and structural changes of one
    file pair."""
    text_a, text_b = path_a.read_text(), path_b.read_text()
    moves, structural = [], []
    if path_a.suffix == ".json":
        _json_diff(json.loads(text_a), json.loads(text_b), "", moves,
                   structural)
    elif path_a.suffix == ".csv":
        _csv_diff(text_a, text_b, moves, structural)
    elif text_a != text_b:
        structural.append("text differs")
    return moves, structural


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: golden_diff.py A B", file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(p) for p in argv)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    changed = broken = 0
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: structural: only in {'A' if name in names_a else 'B'}")
            changed, broken = changed + 1, broken + 1
            continue
        a, b = dir_a / name, dir_b / name
        if a.read_bytes() == b.read_bytes():
            continue
        changed += 1
        moves, structural = compare(a, b)
        if moves:
            rel, where = max(moves)
            print(f"{name}: {len(moves)} values moved, largest {rel:.2g} "
                  f"relative at {where}")
        for change in structural:
            print(f"{name}: structural: {change}")
        broken += bool(structural)
        if not (moves or structural):
            print(f"{name}: bytes differ, values equal")
    print(f"{changed} of {len(names_a | names_b)} files differ, "
          f"{broken} with structural changes")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
