"""End-to-end CLI behaviour: determinism, artifacts, exit codes."""

import argparse
import json
import os

import numpy as np
import pytest

from srm3.cli import _load_config, main
from srm3.errors import ConfigError
from srm3.io import read_samples


def _write_uv_config(tmp_path, **target_extra):
    rows = []
    s = [0, 0, 0, 0, 1.0, 1.2, 0, 0, 0.8, 0.9, 0, 0, 0, 0, 0, 0]
    for k, v in enumerate(s):
        rows.append(f"{k},{v},0.0")
    (tmp_path / "spectrum.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "bispectrum.csv").write_text("4,4,1.2,0.0\n5,4,0.7,0.5\n")
    target = {"kind": "tabulated", "spectrum_csv": "spectrum.csv", "bispectrum_csv": "bispectrum.csv"}
    target.update(target_extra)
    data = {
        "schema_version": 1,
        "grid": {"m": 1, "N": 16, "delta_omega": 0.2},
        "target": target,
        "method": "third-uv",
        "seed": 11,
        "realizations": 3,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


def test_simulate_writes_deterministic_artifacts(tmp_path, capsys):
    config = _write_uv_config(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == ["report.json", "sample_0000.srm3", "sample_0001.srm3", "sample_0002.srm3"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["passed"] is True


def test_simulate_csv_format_matches_binary(tmp_path):
    config = _write_uv_config(tmp_path)
    out_bin, out_csv = tmp_path / "b", tmp_path / "c"
    main(["simulate", "--config", str(config), "--out", str(out_bin)])
    main(["simulate", "--config", str(config), "--out", str(out_csv), "--format", "csv"])
    record = read_samples(out_bin / "sample_0000.srm3")
    import csv as _csv

    with open(out_csv / "sample_0000.csv") as fh:
        parsed = [float(row[1]) for row in list(_csv.reader(fh))[1:]]
    assert np.array_equal(np.array(parsed), record.values[0])


def test_seed_and_realization_overrides(tmp_path):
    config = _write_uv_config(tmp_path)
    out = tmp_path / "o"
    main(["simulate", "--config", str(config), "--out", str(out), "--seed", "99", "--realizations", "1"])
    record = read_samples(out / "sample_0000.srm3")
    assert record.seed == 99
    assert not (out / "sample_0001.srm3").exists()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_infeasible_target_exit_code_and_error_record(tmp_path, capsys):
    config = _write_uv_config(tmp_path, bispectrum_scale=100.0)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "InfeasibleBispectrumError"
    assert "bin_index" in record
    # no partial sample files on domain errors
    assert not [n for n in os.listdir(out) if n.startswith("sample")]


def test_verify_passes_on_collision_free_target(tmp_path, capsys):
    config = _write_uv_config(tmp_path)
    assert main(["verify", "--config", str(config), "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "report: pass" in out


def test_bench_reports_speedup(capsys):
    assert main(["bench", "--size", "32", "--variates", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "N=32" in out


def _write_wind_config(tmp_path, **extra):
    data = {
        "schema_version": 1,
        "grid": {"m": 3, "N": 100, "omega_u": 2.0},
        "target": {"kind": "wind-example", "bispectrum_scale": 0.04},
        "method": "third-mv-fft",
        "realizations": 1,
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, value in extra.items():
        if key in ("blocks", "m_f"):
            data["grid"][key] = value
        else:
            data[key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "extra",
    [{"blocks": 0}, {"m_f": 50}, {"tolerances": {"second": "tight"}}, {"tolerances": {"bogus": 0.1}}],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bad_config_values_exit_2_without_artifacts(tmp_path, capsys, extra, command):
    config = _write_wind_config(tmp_path, **extra)
    assert main([command, "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,value", [("seed", -1), ("seed", 2**70), ("realizations", -1), ("realizations", 2**33)]
)
def test_out_of_range_overrides_rejected_before_running(tmp_path, key, value):
    # parse only: the arguments never reach a run
    args = argparse.Namespace(config=str(_write_uv_config(tmp_path)), seed=None, realizations=None)
    setattr(args, key, value)
    with pytest.raises(ConfigError) as excinfo:
        _load_config(args)
    assert any(p.startswith(f"--{key}") for p in excinfo.value.problems)


def test_runtime_errors_map_to_exit_codes(tmp_path, monkeypatch):
    from srm3 import cli
    from srm3.errors import InvalidParameterError, SampleFormatError

    config = _write_uv_config(tmp_path)
    out = tmp_path / "o"
    for exc, code in ((InvalidParameterError("bad"), 2), (SampleFormatError("bad"), 4)):

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_simulation", fail)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == code
        assert json.loads((out / "error.json").read_text())["error"] == type(exc).__name__


def _write_table_config(tmp_path, spectrum_rows, spectrum_csv="spectrum.csv"):
    (tmp_path / "spectrum.csv").write_text(spectrum_rows, encoding="utf-8")
    data = {
        "schema_version": 1,
        "grid": {"m": 1, "N": 4, "delta_omega": 0.25},
        "target": {"kind": "tabulated", "spectrum_csv": spectrum_csv},
        "method": "second",
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data))
    return path


_GOOD_ROWS = "0,1,0\n1,1,0\n2,1,0\n3,1,0\n"


@pytest.mark.parametrize(
    "rows,spectrum_csv",
    [
        ("0,1,0\n1,1e400,0\n2,1,0\n3,1,0\n", "spectrum.csv"),  # overflows to inf
        ("0,1,0\n1,nan,0\n2,1,0\n3,1,0\n", "spectrum.csv"),
        ("0,1,0\n7,1,0\n2,1,0\n3,1,0\n", "spectrum.csv"),  # bin out of range
        (_GOOD_ROWS + "3,1,0\n", "spectrum.csv"),  # an extra, repeated row
        ("0,1,0\n1.5,1,0\n2,1,0\n3,1,0\n", "spectrum.csv"),  # not a bin index
        ("\ufeff" + _GOOD_ROWS, "spectrum.csv"),  # byte-order mark on line 1
        (_GOOD_ROWS, "."),  # a directory, not a table
    ],
    ids=["inf", "nan", "bin-out-of-range", "repeated-row", "fractional-bin", "bom", "directory"],
)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_bad_tables_exit_2_without_artifacts(tmp_path, capsys, rows, spectrum_csv, command):
    config = _write_table_config(tmp_path, rows, spectrum_csv)
    assert main([command, "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_good_table_runs(tmp_path):
    config = _write_table_config(tmp_path, _GOOD_ROWS)
    assert main(["simulate", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_negative_seed_count_exits_2(tmp_path, capsys):
    config = _write_uv_config(tmp_path)
    assert main(["verify", "--config", str(config), "--seeds", "-1"]) == 2
    assert "--seeds must be in" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seed,seeds,problem",
    [(None, 10**23, "--seeds must be in"), (2**64 - 1, 2, "--seeds: the last seed")],
)
def test_out_of_range_seed_count_rejected_before_running(tmp_path, seed, seeds, problem):
    # parse only: the arguments never reach a run
    args = argparse.Namespace(
        config=str(_write_uv_config(tmp_path)), seed=seed, realizations=None, seeds=seeds
    )
    with pytest.raises(ConfigError) as excinfo:
        _load_config(args)
    assert any(p.startswith(problem) for p in excinfo.value.problems)


@pytest.mark.parametrize("seed,seeds", [(None, 0), (None, 2**32), (2**64 - 1, 1)])
def test_seed_counts_at_their_limits_accepted(tmp_path, seed, seeds):
    args = argparse.Namespace(
        config=str(_write_uv_config(tmp_path)), seed=seed, realizations=None, seeds=seeds
    )
    assert _load_config(args).seed == (11 if seed is None else seed)


def _edited_wind_config(tmp_path, field, value):
    """The wind config with ``field`` (dotted for nested) set to ``value``."""
    path = _write_wind_config(tmp_path)
    data = json.loads(path.read_text())
    section, _, key = field.rpartition(".")
    (data[section] if section else data)[key] = value
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("field", ["seed", "realizations", "grid.N"])
def test_boolean_for_a_number_exits_2(tmp_path, capsys, field):
    config = _edited_wind_config(tmp_path, field, True)
    assert main(["simulate", "--config", str(config)]) == 2
    assert f"field '{field}' must be int, got bool" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_duplicate_key_exits_2(tmp_path, capsys):
    config = _write_wind_config(tmp_path)
    config.write_text('{"seed": 1, "seed": 2, ' + config.read_text()[1:])
    assert main(["simulate", "--config", str(config)]) == 2
    assert "duplicate field 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_overflowing_split_exits_3_with_a_json_error_record(tmp_path):
    # the scaled B is finite, but the split's products overflow
    config = _edited_wind_config(tmp_path, "target.bispectrum_scale", 1e300)
    data = json.loads(config.read_text())
    data["grid"]["N"] = 20
    config.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(config)]) == 3

    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "out"
    record = json.loads((out / "error.json").read_text(), parse_constant=not_json)
    assert record["error"] == "InfeasibleBispectrumError"
    assert isinstance(record["bin_index"], int)
    assert not [n for n in os.listdir(out) if n.startswith("sample")]


def test_tables_runs_a_scaled_third_order_ensemble(capsys):
    code = main(["tables", "--realizations", "3", "--bispectrum-scale", "0.03"])
    assert code in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 55 and lines[-1] in ("report: pass", "report: FAIL")
    assert sum(" third-order ensemble (scale 0.03) E[" in line for line in lines) == 19


@pytest.mark.parametrize(
    "argv,problem",
    [
        (["--realizations", "0"], "--realizations must be at least 1"),
        (["--realizations", "-2"], "--realizations must be in"),
        (["--bispectrum-scale", "nan"], "--bispectrum-scale must be finite"),
        (["--bispectrum-scale", "inf"], "--bispectrum-scale must be finite"),
        (["--seed", "-1"], "--seed must be in"),
    ],
)
def test_tables_rejects_bad_arguments_before_running(monkeypatch, capsys, argv, problem):
    from srm3 import cli

    def never(*args, **kwargs):
        raise AssertionError("run_tables called")

    monkeypatch.setattr(cli, "run_tables", never)
    assert main(["tables", *argv]) == 2
    assert f"config error: {problem}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value,problem",
    [
        ("grid.omega_u", 10**309, "field 'grid.omega_u' is beyond the float range"),
        ("target.bispectrum_scale", -(10**400), "field 'target.bispectrum_scale' is beyond"),
        ("tolerances", {"second": 10**309}, "field 'tolerances.second' must be a finite number"),
    ],
    ids=["omega_u", "bispectrum_scale", "tolerance"],
)
def test_integer_beyond_the_float_range_exits_2(tmp_path, capsys, field, value, problem):
    config = _edited_wind_config(tmp_path, field, value)
    assert main(["simulate", "--config", str(config)]) == 2
    assert problem in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_too_long_to_read_exits_2(tmp_path, capsys):
    config = _write_wind_config(tmp_path)
    config.write_text(config.read_text().replace('"omega_u": 2.0', '"omega_u": ' + "9" * 5000))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
