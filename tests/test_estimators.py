"""Temporal/ensemble estimators, discrete targets, and reports."""

import json

import numpy as np
import pytest

from srm3.errors import InvalidEnsembleError
from srm3.estimators import (
    NonErgodicRecordWarning,
    build_terms,
    ensemble_moments,
    standard_moment_labels,
    temporal_cross_correlation,
    temporal_mean,
    temporal_third_moment,
)
from srm3.simulate import (
    Method,
    SampleRecord,
    SamplingPlan,
    draw_phases,
    simulate_3rd_order_mv,
    simulate_3rd_order_uv,
)

from _targets import collision_free_diagonal, collision_free_univariate


def _record(values, delta_t=0.5):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return SampleRecord(values, delta_t, Method.SECOND_ORDER, 0, 0)


def test_temporal_mean_trivials():
    assert temporal_mean(_record(np.full(64, 3.25)), 0) == 3.25
    t = np.arange(128)
    cosine = np.cos(2 * np.pi * 4 * t / 128)
    assert abs(temporal_mean(_record(cosine), 0)) < 1e-12


def test_cross_correlation_trivials():
    t = np.arange(256)
    cosine = 1.5 * np.cos(2 * np.pi * 8 * t / 256)
    rec = _record(np.vstack([cosine, cosine]))
    assert temporal_cross_correlation(rec, 0, 0, 0) >= 0
    assert temporal_cross_correlation(rec, 0, 1, 0) == pytest.approx(1.5**2 / 2)


def test_third_moment_of_pure_cosine_vanishes():
    t = np.arange(240)
    cosine = 2.0 * np.cos(2 * np.pi * 5 * t / 240)
    rec = _record(cosine)
    value = temporal_third_moment(rec, 0, 0, 0, 0, 0)
    assert abs(value) < 1e-12 * rec.rms(0) ** 3


def test_partial_record_warns():
    grid, S, B = collision_free_univariate()
    plan = SamplingPlan.for_grid(grid, blocks=1)  # one base block, not a period
    rec = simulate_3rd_order_uv(S, B, draw_phases(0, 0, grid), plan)
    with pytest.warns(NonErgodicRecordWarning):
        temporal_cross_correlation(rec, 0, 0, 0, grid)


def test_estimator_symmetry_relabeling():
    # <f_a f_b(t+t1) f_c(t+t2)> is the same sum as <f_a f_c(t+t2) f_b(t+t1)>
    grid, S, B = collision_free_diagonal(2)
    rec = simulate_3rd_order_mv(S, B, draw_phases(5, 0, grid))
    one = temporal_third_moment(rec, 0, 0, 1, 3, 11, grid)
    other = temporal_third_moment(rec, 0, 1, 0, 11, 3, grid)
    assert one == pytest.approx(other, rel=1e-10, abs=1e-14)


def test_ensemble_convergence_rate():
    # standard error of the variance estimate shrinks with ensemble size
    grid, S, B = collision_free_diagonal(2)
    plan = SamplingPlan.for_grid(grid, blocks=1)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    target = terms.target_second(0, 0, 0.0)

    def spread(R, chunks=12):
        # dispersion of independent R-realization estimates
        estimates = []
        for chunk in range(chunks):
            vals = [
                np.mean(
                    simulate_3rd_order_mv(
                        S, B, draw_phases(1000 + chunk, r, grid), plan
                    ).values[0]
                    ** 2
                )
                for r in range(R)
            ]
            estimates.append(np.mean(vals))
        return np.std(estimates)

    spreads = [spread(R) for R in (10, 40, 160)]
    assert spreads[0] > spreads[1] > spreads[2]
    # roughly 1/sqrt(R): a factor 16 in R cuts the spread by about 4
    assert spreads[2] < spreads[0] / 2.0


def test_ensemble_report_rows_and_serialization():
    grid, S, B = collision_free_diagonal(2)
    plan = SamplingPlan.for_grid(grid, blocks=2)
    records = [
        simulate_3rd_order_mv(S, B, draw_phases(7, r, grid), plan) for r in range(40)
    ]
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    labels = standard_moment_labels(2)
    report = ensemble_moments(
        records, labels, terms, tolerances={"second": 0.2, "third_rel": 1.0}
    )
    assert len(report.rows) == len(labels)
    data = json.loads(report.to_json())
    assert data["passed"] == report.passed
    assert data["metadata"]["realizations"] == 40
    assert {row["label"] for row in data["rows"]} == {r.label for r in report.rows}


def test_ensemble_rejects_mixed_records():
    grid, S, B = collision_free_diagonal(2)
    plan1 = SamplingPlan.for_grid(grid, blocks=1)
    plan2 = SamplingPlan.for_grid(grid, blocks=2)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    records = [
        simulate_3rd_order_mv(S, B, draw_phases(0, 0, grid), plan1),
        simulate_3rd_order_mv(S, B, draw_phases(0, 1, grid), plan2),
    ]
    with pytest.raises(InvalidEnsembleError):
        ensemble_moments(records, [("mean", 0)], terms)
    with pytest.raises(InvalidEnsembleError):
        ensemble_moments([], [("mean", 0)], terms)


def test_informational_rows_do_not_fail_report():
    grid, S, B = collision_free_diagonal(2)
    plan = SamplingPlan.for_grid(grid, blocks=1)
    records = [
        simulate_3rd_order_mv(S, B, draw_phases(3, r, grid), plan) for r in range(5)
    ]
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    report = ensemble_moments(
        records,
        [("third", 0, 0, 0)],
        terms,
        tolerances={"third_rel": 1e-12, "third_abs": 0.0},
        third_order_informational=True,
    )
    assert not report.rows[0].passed or True  # row may fail...
    assert report.passed  # ...but informational rows never fail the report
