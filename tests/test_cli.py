"""Command-line entry points: exit codes, file emission, table output."""
import dataclasses
import json
import math

import pytest

from hiermpc import analysis, harness
from hiermpc.cli import main
from hiermpc.errors import ConfigInvalid


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "design" in capsys.readouterr().out


def test_verify_missing_directory_is_usage_error(capsys):
    assert main(["verify", "/no/such/archive"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_bad_sweep_lists_are_usage_errors(capsys):
    assert main(["analyze", "--sweep-NL", "5,abc"]) == 2
    assert main(["analyze", "--sweep-NL", "20"]) == 2
    capsys.readouterr()


def test_analyze_decoupled_prints_zero_disturbance(capsys):
    assert main(["analyze", "--decoupled"]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if "disturbance radius" in line)
    assert "0" in row.split()


@pytest.mark.parametrize("overrides, name", [
    (["--gamma1", "1", "--gamma2", "-1"], "gamma2"),
    (["--gamma1", "-1"], "gamma1"),
    (["--gamma1", "nan"], "gamma1"),
])
def test_tune_overrides_are_validated(overrides, name, capsys):
    assert main(["tune", *overrides]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and name in captured.err
    assert "re-substitution" not in captured.out


@pytest.mark.parametrize("command", ["design", "analyze", "simulate"])
def test_wrong_length_x0_rejected_before_design(command, tmp_path, capsys):
    config = tmp_path / "short_x0.json"
    config.write_text(json.dumps({"run": {"x0": [-2, -2, -2]}}))
    out = tmp_path / "out"
    args = [command, "--config", str(config)]
    if command != "analyze":
        args += ["--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "x0" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("r_fast", math.inf),
                                        ("q_slow", math.inf)])
def test_out_of_range_settings_rejected_before_design(key, value, tmp_path,
                                                      capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"run": {key: value}}))
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and key in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("tol_primal", 1e-8), ("tol_dual", 1e-8), ("max_iters", 50_000),
    ("rpi_tol", 1e-6),
])
def test_solver_settings_are_not_config_keys(key, value, tmp_path, capsys):
    # The QP tolerances, the Newton cap and the RPI series tolerance are the
    # solver's and rpi_outer's own defaults, not run settings: a config that
    # sets one, even to that default, is rejected before design, naming the
    # key.
    config = tmp_path / "solver.json"
    config.write_text(json.dumps({"run": {key: value}}))
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and key in captured.err
    assert captured.out == ""
    assert not out.exists()
    with pytest.raises(ConfigInvalid, match=key):
        harness.config_from_dict({key: value})


def test_analyze_runs_the_reduction_checks(monkeypatch, capsys):
    checked = harness.verify_reduction

    def failing(reduced, model):
        return dataclasses.replace(checked(reduced, model), dc_ok=False)

    monkeypatch.setattr(harness, "verify_reduction", failing)
    assert main(["analyze"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("design incomplete: ")
    assert "'reduction'" in captured.err
    assert captured.out == ""


def test_tune_resubstitution_passes(capsys):
    assert main(["tune", "--gamma1", "1", "--gamma2", "1"]) == 0
    assert "re-substitution: pass" in capsys.readouterr().out


def test_tune_computes_the_certificate_tables_once(monkeypatch, capsys):
    # The interaction matrix `tune` prints reads the tables `certify`
    # computed: one pass of the leakage norms and of the unit step-norm
    # table, both made inside `certificate_tables`.
    calls = []
    for name in ("certificate_tables", "_leakage_norms", "delta_state_bounds"):
        fn = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args, fn=fn, name=name:
                            calls.append(name) or fn(*args))
    monkeypatch.setattr(harness, "certificate_tables",
                        analysis.certificate_tables)
    assert main(["tune", "--gamma1", "1", "--gamma2", "1"]) == 0
    assert sorted(calls) == ["_leakage_norms", "certificate_tables",
                             "delta_state_bounds"]
    capsys.readouterr()


def test_design_writes_files_and_passes(tmp_path, capsys):
    out = tmp_path / "design"
    assert main(["design", "--out", str(out)]) == 0
    for name in ("model.json", "config.json", "design.json",
                 "certificate.json"):
        assert (out / name).is_file()
    capsys.readouterr()


def test_simulate_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    config = tmp_path / "case.json"
    config.write_text(json.dumps({"run": {"n_slow_steps": 12}}))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"unexpected": {}}))
    assert main(["analyze", "--config", str(bogus)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", "--config", str(broken)]) == 2
    assert main(["analyze", "--config", str(tmp_path / "missing.json")]) == 2
    bad_run = tmp_path / "bad_run.json"
    bad_run.write_text(json.dumps({"run": {"period": 0}}))
    assert main(["analyze", "--config", str(bad_run)]) == 1
    capsys.readouterr()


def test_output_directory_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HIERMPC_OUT_DIR", str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"run": {"n_slow_steps": 2}}))
    assert main(["simulate", "--config", str(config)]) == 0
    assert (tmp_path / "env_out" / "fast.csv").is_file()
    capsys.readouterr()


def test_design_incomplete_exits_one(tmp_path, capsys):
    config = tmp_path / "floor.json"
    config.write_text(json.dumps({"run": {"u_bar_floor": 1000.0}}))
    assert main(["design", "--config", str(config),
                 "--out", str(tmp_path / "x")]) == 1
    assert "design incomplete" in capsys.readouterr().err


def test_sweep_table_printed(capsys):
    assert main(["analyze", "--sweep-NL", "10,20,40"]) == 0
    out = capsys.readouterr().out
    assert "slow-period sweep" in out
    assert "monotonicity: pass" in out
