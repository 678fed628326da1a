"""Command-line interface tests, run in-process through main()."""

import csv
import json

import numpy as np
import pytest

from tikrates.cli import main


def run(tmp_path, *argv):
    return main([*argv])


def test_check_writes_certified_report(tmp_path, capsys):
    out = tmp_path / "hvi.json"
    code = main(["check", "--instance", "counter26", "--condition", "hvi",
                 "--nu", "0.5", "--output", str(out), "--no-timestamp"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "Certified"
    assert payload["constants"]["beta"] <= 2.0 * np.sqrt(2.0)
    assert payload["truncation"] == 60


def test_check_reports_are_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["check", "--instance", "counter26", "--condition",
                     "tail", "--nu", "0.5", "--output", str(out),
                     "--no-timestamp"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_timestamp_present_by_default(tmp_path):
    out = tmp_path / "t.json"
    main(["check", "--instance", "counter26", "--condition", "ssc",
          "--nu", "0.45", "--output", str(out)])
    assert "generated_at" in json.loads(out.read_text())


def test_check_ivi_derives_constants_when_omitted(tmp_path):
    out = tmp_path / "ivi.json"
    code = main(["check", "--instance", "counter26", "--condition", "ivi",
                 "--mu", "0.6666666666666666", "--output", str(out),
                 "--no-timestamp"])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "Certified"


def test_rates_noise_free_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "nf.csv"
    code = main(["rates", "--instance", "counter26", "--mode", "noise-free",
                 "--format", "csv", "--output", str(out), "--no-timestamp"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["fit"]["slope"] - 0.25) <= 0.03
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "error", "alpha_used", "trial_witness_index"]
    assert len(rows) == 26


def test_rates_noisy_json(tmp_path, capsys):
    code = main(["rates", "--instance", "counter26", "--mode", "noisy",
                 "--mu", "0.6666666666666666", "--noise", "worst-case",
                 "--no-timestamp"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["fit"]["slope"] - 1.0 / 3.0) <= 0.04


def test_rates_infimum(tmp_path, capsys):
    code = main(["rates", "--instance", "counter26", "--mode", "infimum",
                 "--delta", "1e-4", "--alpha-min", "1e-9", "--alpha-max",
                 "1e-2", "--no-timestamp"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["value"] > 0.0


def test_conformance_all_passes(capsys):
    assert main(["conformance", "--all", "--n", "60"]) == 0
    text = capsys.readouterr().out
    assert "0 mismatches" in text


def test_conformance_requires_instance_or_all(capsys):
    assert main(["conformance"]) == 2


def test_lemmas_quick_run(capsys):
    assert main(["lemmas", "--count", "300", "--no-timestamp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cs_bound"]["violations"] == 0
    assert payload["split_point"]["violations"] == 0


def test_operator_file_diagonal(tmp_path, capsys):
    spec = {"diagonal": [0.5 ** k for k in range(1, 13)],
            "y": [0.5 ** (1.5 * k) for k in range(1, 13)]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    code = main(["check", "--instance", str(path), "--condition", "tail",
                 "--nu", "0.5", "--no-timestamp"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Certified"


def test_operator_file_matrix(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    spec = {"matrix": mat.tolist(), "y": (mat @ x).tolist()}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    code = main(["check", "--instance", str(path), "--condition", "ssc",
                 "--nu", "1.0", "--no-timestamp"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Certified"


def test_operator_file_off_range_data_exits_two(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 3))
    off_range = np.linalg.svd(mat)[0][:, -1]
    y = mat @ rng.standard_normal(3) + 0.1 * off_range
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"matrix": mat.tolist(), "y": y.tolist()}))
    code = main(["check", "--instance", str(path), "--condition", "ssc",
                 "--nu", "1.0", "--no-timestamp"])
    assert code == 2
    assert "not in range" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["check", "--condition", "hvi", "--nu", "0.5"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "hvi"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "ivi"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "hvi",
                 "--nu", "0.5", "--n", "4"]) == 2
    assert main(["check", "--instance", str(tmp_path / "missing.json"),
                 "--condition", "hvi", "--nu", "0.5"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["check", "--condition", "bogus"])
    assert err.value.code == 2


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TIKRATES_OUTDIR", str(tmp_path))
    assert main(["check", "--instance", "counter26", "--condition", "hvi",
                 "--nu", "0.5", "--output", "sub/report.json",
                 "--no-timestamp"]) == 0
    assert (tmp_path / "sub" / "report.json").exists()


def test_underflowing_spectrum_exits_two_without_lapack_chatter(capfd):
    assert main(["check", "--instance", "remark_nu_gap", "--n", "1000",
                 "--condition", "tail", "--nu", "0.5"]) == 2
    err = capfd.readouterr().err
    assert "positive finite squares" in err
    assert "DLASCL" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
@pytest.mark.parametrize("condition, flag", [("hvi", "--nu"), ("ivi", "--mu")])
def test_non_finite_or_out_of_domain_parameter_exits_two(condition, flag, value,
                                                         capsys):
    assert main(["check", "--instance", "counter26", "--condition", condition,
                 f"{flag}={value}"]) == 2
    assert f"{flag[2:]} must lie in (0, 1]" in capsys.readouterr().err
