"""Command-line interface tests, run in-process through main()."""

import argparse
import csv
import json

import numpy as np
import pytest

from tikrates import conditions as cond
from tikrates.cli import _load_instance, main


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


def test_check_ssc_with_finite_terms_past_an_overflowing_power(capsys):
    # sigma**(-2 nu) reaches 2**1200, but each term u_n**2 sigma_n**(-2 nu)
    # is at most 2**900
    assert main(["check", "--instance", "counter26", "--n", "300",
                 "--condition", "ssc", "--nu", "2.0", "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "RefutedAtN"
    assert captured.err == ""


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_check_output_is_strict_json_with_infinite_constants(capsys):
    assert main(["check", "--instance", "counter26", "--condition", "ivi",
                 "--mu", "0.6", "--beta", "100", "--gamma", "0",
                 "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out, parse_constant=_no_constant)
    assert payload["constants"]["needed_beta"] == "inf"


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


def test_operator_file_square_matrix_reads_y_as_ambient_data(tmp_path):
    # three rows and rank three: y is ambient data, not coefficients
    mat = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    y = np.array([1.0, -2.0, 3.0])
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"matrix": mat.tolist(), "y": y.tolist()}))
    inst = _load_instance(argparse.Namespace(instance=str(path), n=60, seed=0))
    np.testing.assert_allclose(inst.op.ambient_from_domain(inst.u_dagger),
                               np.linalg.solve(mat, y), rtol=1e-12)
    np.testing.assert_allclose(inst.op.ambient_from_data(inst.y), y,
                               rtol=1e-12)


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


@pytest.mark.parametrize("text, message", [
    ("5", "operator file must hold a JSON object"),
    ('{"diagonal": {"a": 1}, "y": [1]}', "'diagonal' must be a number"),
    ('{"matrix": {"a": 1}, "y": [1]}', "'matrix' must be a number"),
    ('{"diagonal": [1, 0.5], "y": {"a": 1}}', "'y' must be a number"),
    ('{"diagonal": [1, {"a": 1}], "y": [1, 1]}', "'diagonal' must be a number"),
], ids=["top-level-number", "diagonal-object", "matrix-object", "y-object",
        "diagonal-list-of-object"])
def test_malformed_operator_file_exits_two(text, message, tmp_path, capfd):
    path = tmp_path / "op.json"
    path.write_text(text)
    assert main(["check", "--instance", str(path), "--condition", "tail",
                 "--nu", "0.5"]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_checks_are_looked_up_on_the_conditions_module(monkeypatch, capsys):
    # a wrapper installed on the module, as perfbench's spans install one,
    # sees the checks that the command line and run_battery run
    calls = []
    check = cond.check_spectral_tail

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(cond, "check_spectral_tail", counted)
    assert main(["check", "--instance", "harmonic4", "--condition", "tail",
                 "--nu", "1.0", "--no-timestamp"]) == 0
    assert len(calls) == 1
    assert main(["conformance", "--instance", "harmonic4"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("condition, flag", [
    ("ssc", "--nu"), ("hvi", "--nu"), ("svi", "--nu"), ("tail", "--nu"),
    ("ivi", "--mu")])
def test_operator_file_with_increasing_sigma_exits_two(tmp_path, capsys,
                                                       condition, flag):
    k = range(12, 0, -1)
    spec = {"diagonal": [2.0 ** -i for i in k],
            "y": [2.0 ** (-1.5 * i) for i in k]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    code = main(["check", "--instance", str(path), "--condition", condition,
                 flag, "0.5", "--no-timestamp"])
    assert code == 2
    assert "non-increasing order" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["check", "--condition", "hvi", "--nu", "0.5"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "hvi"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "ivi"]) == 2
    assert main(["check", "--instance", "counter26", "--condition", "hvi",
                 "--nu", "0.5", "--n", "4"]) == 2
    assert main(["check", "--instance", str(tmp_path / "missing.json"),
                 "--condition", "hvi", "--nu", "0.5"]) == 2
    assert main(["lemmas", "--count", "0"]) == 2
    with pytest.raises(SystemExit) as err:
        main(["check", "--condition", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lemmas", "--count", "10"],
    ["check", "--instance", "identity", "--condition", "hvi", "--nu", "0.5"],
    ["check", "--instance", "finite_rank", "--condition", "svi", "--nu", "1.0"],
    ["rates", "--instance", "counter26", "--mode", "noisy"],
    ["conformance", "--all"],
])
def test_negative_seed_is_refused_naming_the_option(argv, capsys):
    assert main([*argv, "--seed", "-1", "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be a non-negative integer\n"
    assert captured.out == ""


@pytest.mark.parametrize("condition, flag", [("hvi", "--beta"),
                                             ("ssc", "--gamma"),
                                             ("svi", "--beta"),
                                             ("tail", "--gamma"),
                                             ("hvi", "--mu"),
                                             ("ivi", "--nu")])
def test_check_refuses_constants_only_ivi_reads(condition, flag, capsys):
    # a flag the condition does not read exits 2 rather than be ignored
    param = "--mu" if condition == "ivi" else "--nu"
    assert main(["check", "--instance", "counter26", "--condition", condition,
                 param, "0.5", flag, "0.3"]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert ("does not apply to ivi" if condition == "ivi"
            else "apply only to ivi") in err


@pytest.mark.parametrize("mode, option", [
    ("noise-free", ["--mu", "0.5"]),
    ("noise-free", ["--noise", "random"]),
    ("noise-free", ["--trials", "5"]),
    ("noise-free", ["--delta", "1e-3"]),
    ("noise-free", ["--delta-points", "10"]),
    ("noisy", ["--delta", "1e-3"]),
    ("noisy", ["--alpha-min", "1e-9"]),
    ("noisy", ["--alpha-points", "10"]),
    ("infimum", ["--mu", "0.5"]),
    ("infimum", ["--delta-min", "1e-6"]),
    ("infimum", ["--delta-points", "10"]),
])
def test_rates_refuses_options_its_mode_does_not_read(mode, option, capsys):
    # an option the mode would ignore exits 2, as a check flag does
    assert main(["rates", "--instance", "counter26", "--mode", mode,
                 *option, "--no-timestamp"]) == 2
    captured = capsys.readouterr()
    assert f"--mode {mode} does not read {option[0]}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode, options", [
    ("noise-free", ["--alpha-min", "1e-9", "--alpha-max", "1e-3",
                    "--alpha-points", "12"]),
    ("noisy", ["--mu", "0.5", "--noise", "random", "--trials", "3",
               "--delta-min", "1e-7", "--delta-max", "1e-3",
               "--delta-points", "12"]),
    ("infimum", ["--noise", "in-range", "--trials", "3", "--delta", "1e-3",
                 "--alpha-min", "1e-9", "--alpha-max", "1e-3",
                 "--alpha-points", "12"]),
])
def test_rates_accepts_every_option_its_mode_reads(mode, options, capsys):
    assert main(["rates", "--instance", "counter26", "--mode", mode,
                 *options, "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""


def test_parser_is_built_once_per_process(monkeypatch):
    from tikrates import cli

    parser = cli._parser()
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a))
    assert main(["rates", "--instance", "counter26", "--mode", "infimum",
                 "--no-timestamp"]) == 0
    assert cli._parser() is parser
    assert built == []


@pytest.mark.parametrize("option", [["--n", "100"],
                                    ["--instance", "counter26"]])
def test_lemmas_takes_no_instance_options(option):
    with pytest.raises(SystemExit) as err:
        main(["lemmas", "--count", "10", *option])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lemmas", "--count", "10", "--n"],
    ["check", "--inst", "counter26", "--cond", "hvi", "--nu", "0.5", "--no-t"],
])
def test_abbreviated_options_are_refused(argv):
    # a prefix is not taken for the option it abbreviates
    with pytest.raises(SystemExit) as err:
        main(argv)
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


@pytest.mark.parametrize("argv, message", [
    (["--mode", "noise-free", "--alpha-min", "0"],
     "--alpha-min must lie in (0, inf)"),
    (["--mode", "infimum", "--alpha-max", "-1"],
     "--alpha-max must lie in (0, inf)"),
    (["--mode", "noisy", "--delta-min", "-1"],
     "--delta-min must lie in (0, inf)"),
    (["--mode", "noisy", "--delta-max", "0"],
     "--delta-max must lie in (0, inf)"),
    (["--mode", "noisy", "--format", "csv"], "--format csv needs --output"),
])
def test_rates_refuses_unusable_grid_or_format(argv, message, capfd):
    assert main(["rates", "--instance", "counter26", *argv]) == 2
    captured = capfd.readouterr()
    assert message in captured.err
    assert "RuntimeWarning" not in captured.err
    assert captured.out == ""
