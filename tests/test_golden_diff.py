"""Tests for tools/golden_diff.py, the value-by-value comparison of two
golden output directories."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden_diff  # noqa: E402


def _write(root, name, payload):
    root.mkdir(exist_ok=True)
    path = root / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_numeric_moves_are_counted_with_the_largest_and_its_path(tmp_path,
                                                                 capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    base = {"fit": {"slope": 1.0, "grid": [[1.0, 2.0], [3.0, 4.0]]},
            "verdict": "Certified", "count": 3}
    _write(a, "same.json", base)
    _write(b, "same.json", base)
    _write(a, "moved.json", base)
    _write(b, "moved.json", {**base, "fit": {"slope": 1.0 + 1e-15,
                                             "grid": [[1.0, 2.0],
                                                      [3.0, 4.0 * (1 + 1e-13)]]}})
    _write(a, "rows.csv", "x,error\n1e-3,2.0\n1e-2,5.0\n")
    _write(b, "rows.csv", "x,error\n1e-3,2.0\n0.01,5.000000000001\n")
    assert golden_diff.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("moved.json: 2 values moved, largest 1e-13 "
                               "relative at fit.grid[1][1]")
    assert lines[1].startswith("rows.csv: 1 values moved, largest 2e-13 "
                               "relative at row 2, error")
    assert lines[-1] == "2 of 3 files differ, 0 with structural changes"


@pytest.mark.parametrize("name, old, new, where", [
    ("r.json", {"verdict": "Certified"}, {"verdict": "RefutedAtN"},
     "verdict: 'Certified' -> 'RefutedAtN'"),
    ("r.json", {"a": 1.0}, {"b": 1.0}, "key a only in A"),
    ("r.json", {"a": [1.0, 2.0]}, {"a": [1.0]}, "a: length 2 -> 1"),
    ("r.json", {"c": 2.0}, {"c": "inf"}, "c: 2.0 -> 'inf'"),
    ("r.json", {"ok": True}, {"ok": False}, "ok: True -> False"),
    ("r.csv", "x,error\n1,2\n", "x,err\n1,2\n", "row 0, error: 'error' -> 'err'"),
    ("r.csv", "x,error\n1,2\n", "x,error\n1,nan\n", "row 1, error: 2.0 -> nan"),
])
def test_structural_changes_are_reported_and_exit_one(tmp_path, capsys, name,
                                                      old, new, where):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, name, old)
    _write(b, name, new)
    assert golden_diff.main([str(a), str(b)]) == 1
    assert f"{name}: structural: {where}" in capsys.readouterr().out


def test_a_file_on_one_side_only_is_structural(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "gone.json", {"x": 1})
    b.mkdir()
    assert golden_diff.main([str(a), str(b)]) == 1
    assert "gone.json: structural: only in A" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path):
    assert golden_diff.main([str(tmp_path)]) == 2
    assert golden_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
