"""Workbench orchestration: verification reports, runs, table reproduction."""

import json
import os

import pytest

from srm3.config import RunConfig
from srm3.estimators import build_terms
from srm3.simulate import Method
from srm3.terms import TermSet
from srm3.workbench import (
    run_simulation,
    run_tables,
    verify_ergodic_identities,
)

from _targets import collision_free_univariate, coupled_third_order


def _config(grid, S, B, method, **kw):
    defaults = dict(
        grid=grid,
        method=method,
        seed=1,
        realizations=2,
        target_kind="tabulated",
        spectrum=S,
        bispectrum=B,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_verify_passes_with_tight_rows_on_collision_free_target():
    grid, S, B = collision_free_univariate()
    report = verify_ergodic_identities(
        _config(grid, S, B, Method.THIRD_ORDER_UV), seeds=[0, 1]
    )
    assert report.passed
    assert report.metadata["resonant_collisions"] == 0
    assert not any(r.informational for r in report.rows)


def test_verify_marks_collision_targets_informational():
    grid, S, B = coupled_third_order(m=2, N=16)
    report = verify_ergodic_identities(
        _config(grid, S, B, Method.THIRD_ORDER_MV), seeds=[3]
    )
    assert report.metadata["resonant_collisions"] > 0
    moment_rows = [r for r in report.rows if "<f" in r.label and "f1 f" in r.label]
    assert moment_rows and all(
        r.informational for r in report.rows if "lag" in r.label
    )
    assert report.passed  # means still close; closures are informational


def _count_target_calls(monkeypatch):
    calls = {"second": 0, "third": 0}
    for kind in calls:
        original = getattr(TermSet, f"target_{kind}")

        def counted(self, *args, _original=original, _kind=kind):
            calls[_kind] += 1
            return _original(self, *args)

        monkeypatch.setattr(TermSet, f"target_{kind}", counted)
    return calls


@pytest.mark.parametrize(
    "target,method",
    [(collision_free_univariate, Method.THIRD_ORDER_UV), (coupled_third_order, Method.THIRD_ORDER_MV)],
)
def test_verify_computes_each_target_once_per_run(monkeypatch, target, method):
    config = _config(*target(), method)
    calls = _count_target_calls(monkeypatch)
    verify_ergodic_identities(config, seeds=[5])
    one = dict(calls)
    calls.update(second=0, third=0)
    verify_ergodic_identities(config, seeds=[5, 6, 7])
    assert calls == one and one["third"] > 0


def test_verify_rows_of_several_seeds_are_the_rows_of_each_seed():
    config = _config(*coupled_third_order(m=2, N=16), Method.THIRD_ORDER_MV)
    both = verify_ergodic_identities(config, seeds=[3, 8]).rows
    each = verify_ergodic_identities(config, seeds=[3]).rows
    each += verify_ergodic_identities(config, seeds=[8]).rows
    assert both == each
    assert both[0].label == "seed 3: <f1>" and both[len(each) // 2].label == "seed 8: <f1>"


def test_verify_mean_rows_report_the_signed_mean():
    grid, S, B = collision_free_univariate()
    config = _config(grid, S, B, Method.THIRD_ORDER_UV)
    rms = build_terms(S, B, Method.THIRD_ORDER_UV).target_rms(0)
    rows = [verify_ergodic_identities(config, seeds=[seed]).rows[0] for seed in range(5)]
    assert min(r.simulated for r in rows) < 0 < max(r.simulated for r in rows)
    for seed, row in enumerate(rows):
        assert row.label == f"seed {seed}: <f1>" and row.target == 0.0
        assert row.error == abs(row.simulated) / rms and row.passed


def test_run_simulation_artifacts_and_informational_third_moments(tmp_path):
    grid, S, B = collision_free_univariate()
    config = _config(
        grid,
        S,
        B,
        Method.SECOND_ORDER,
        out_dir=str(tmp_path / "out"),
        realizations=3,
        blocks=2,
    )
    report = run_simulation(config, write_plot_data=True)
    names = sorted(os.listdir(config.out_dir))
    assert names == [
        "moments.csv",
        "report.json",
        "sample_0000.srm3",
        "sample_0001.srm3",
        "sample_0002.srm3",
    ]
    third_rows = [r for r in report.rows if r.label.count("f") == 3]
    assert third_rows and all(r.informational for r in third_rows)
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["metadata"]["realizations"] == 3


def test_run_tables_structure_and_infeasibility_record():
    report, infeasible = run_tables(seed=0, realizations=4, blocks=2)
    assert infeasible is not None  # published amplitude is unrealizable
    assert "infeasible" in report.metadata
    target_rows = [r for r in report.rows if r.label.startswith("target ")]
    assert len(target_rows) == 16
    assert all(r.passed for r in target_rows)


def test_run_tables_with_scaled_bispectrum_runs_third_order():
    report, infeasible = run_tables(
        seed=0, realizations=3, bispectrum_scale=0.03, blocks=2
    )
    assert infeasible is None
    third_rows = [r for r in report.rows if r.label.startswith("third-order")]
    assert third_rows
