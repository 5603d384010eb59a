"""Configuration parsing: strictness, precise errors, fail-fast targets."""

import json

import numpy as np
import pytest

from srm3.config import parse_config
from srm3.errors import ConfigError
from srm3.grids import OffsetRule
from srm3.simulate import Method, SamplingPlan


def _wind_config(**overrides):
    data = {
        "schema_version": 1,
        "grid": {"m": 3, "N": 100, "omega_u": 2.0},
        "target": {"kind": "wind-example"},
        "method": "third-mv-fft",
        "seed": 42,
        "realizations": 5,
    }
    data.update(overrides)
    return data


def test_minimal_wind_example_config():
    config = parse_config(json.dumps(_wind_config()))
    assert config.grid.m == 3 and config.grid.N == 100
    assert config.grid.delta_omega == pytest.approx(0.02)
    assert config.grid.offset_rule is OffsetRule.MULTIVARIATE_DOUBLE_INDEX
    assert config.method is Method.THIRD_ORDER_MV_FFT
    assert config.spectrum.values[0, 0, 0].real > 0


def test_cutoff_discretization_round_trip():
    # omega_u = 2, N = 100 fixes dw = 0.02 and, under m_f = 2N, dt = 1.57 s
    config = parse_config(json.dumps(_wind_config()))
    plan = SamplingPlan.for_grid(config.grid, config.m_f, blocks=1)
    assert config.grid.delta_omega == pytest.approx(0.02)
    assert plan.m_f == 200
    assert plan.delta_t == pytest.approx(1.5708, abs=5e-5)
    assert round(plan.delta_t, 2) == 1.57


def test_missing_method_reported_by_name():
    data = _wind_config()
    del data["method"]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data))
    assert any("method" in p for p in excinfo.value.problems)


def test_zero_bins_rejected():
    data = _wind_config()
    data["grid"]["N"] = 0
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data))
    assert any("grid.N" in p for p in excinfo.value.problems)


def test_unknown_fields_are_errors():
    data = _wind_config()
    data["grid"]["comment"] = "?"
    data["typo_field"] = 1
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data))
    joined = "\n".join(excinfo.value.problems)
    assert "grid.comment" in joined and "typo_field" in joined


def test_invalid_json_reported():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_method_variate_compatibility():
    data = _wind_config(method="third-uv")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data))
    assert any("third-uv" in p for p in excinfo.value.problems)


def test_tabulated_target_loaded_and_validated(tmp_path):
    rows = [f"{k},1.0,0.0" for k in range(8)]
    (tmp_path / "spectrum.csv").write_text("\n".join(rows) + "\n")
    data = {
        "schema_version": 1,
        "grid": {"m": 1, "N": 8, "delta_omega": 0.25},
        "target": {"kind": "tabulated", "spectrum_csv": "spectrum.csv"},
        "method": "third-uv",
        "seed": 0,
        "realizations": 1,
    }
    config = parse_config(json.dumps(data), base_dir=str(tmp_path))
    assert np.all(config.spectrum.values[:, 0, 0].real == 1.0)
    assert not np.any(config.bispectrum.values)


def test_missing_table_file_fails_fast(tmp_path):
    data = {
        "schema_version": 1,
        "grid": {"m": 1, "N": 8, "delta_omega": 0.25},
        "target": {"kind": "tabulated", "spectrum_csv": "nope.csv"},
        "method": "third-uv",
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data), base_dir=str(tmp_path))
    assert "nope.csv" in str(excinfo.value)


def test_invalid_tabulated_spectrum_fails_fast(tmp_path):
    rows = [f"{k},-1.0,0.0" for k in range(4)]  # negative diagonal
    (tmp_path / "spectrum.csv").write_text("\n".join(rows) + "\n")
    data = {
        "schema_version": 1,
        "grid": {"m": 1, "N": 4, "delta_omega": 0.25},
        "target": {"kind": "tabulated", "spectrum_csv": "spectrum.csv"},
        "method": "second",
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data), base_dir=str(tmp_path))
    assert any("spectrum target invalid" in p for p in excinfo.value.problems)


@pytest.mark.parametrize(
    "grid_extra",
    [
        {"blocks": 0},
        {"blocks": -2},
        {"m_f": 50},
        {"m_f": 300},
        {"blocks": 21474837},  # 200 * blocks samples overflow the uint32 header count
    ],
)
def test_bad_sampling_plan_rejected_at_parse_time(grid_extra):
    data = _wind_config()
    data["grid"].update(grid_extra)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(data))
    assert any(p.startswith("grid:") for p in excinfo.value.problems)


@pytest.mark.parametrize(
    "tolerances,field",
    [
        ({"second": "tight"}, "tolerances.second"),
        ({"bogus": 0.1}, "tolerances.bogus"),
        ({"mean": -0.1}, "tolerances.mean"),
        ({"third_abs": True}, "tolerances.third_abs"),
        ({"third_rel": float("nan")}, "tolerances.third_rel"),
        ({"third_rel": float("inf")}, "tolerances.third_rel"),
    ],
)
def test_bad_tolerances_rejected(tolerances, field):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(_wind_config(tolerances=tolerances)))
    assert any(field in p for p in excinfo.value.problems)


def test_good_tolerances_accepted():
    tolerances = {"mean": 0, "second": 0.05, "third_rel": 0.2, "third_abs": 1}
    assert parse_config(json.dumps(_wind_config(tolerances=tolerances))).tolerances == tolerances


@pytest.mark.parametrize(
    "field,value",
    [("seed", -1), ("seed", 2**64), ("seed", 2**70), ("realizations", -1), ("realizations", 2**32 + 1)],
)
def test_seed_and_realizations_out_of_range(field, value):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(_wind_config(**{field: value})))
    assert any(p.startswith(field) for p in excinfo.value.problems)


def test_seed_and_realizations_at_their_limits():
    config = parse_config(json.dumps(_wind_config(seed=2**64 - 1, realizations=2**32)))
    assert (config.seed, config.realizations) == (2**64 - 1, 2**32)
