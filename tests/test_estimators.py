"""Temporal/ensemble estimators, discrete targets, and reports."""

import json
import math

import numpy as np
import pytest

from srm3.errors import InvalidEnsembleError
from srm3.estimators import (
    DEFAULT_ENSEMBLE_TOLERANCES,
    MomentCheck,
    NonErgodicRecordWarning,
    build_terms,
    ensemble_checks,
    ensemble_moments,
    moment_rows,
    standard_moment_labels,
    temporal_cross_correlation,
    temporal_mean,
    temporal_third_moment,
)
from srm3.fft import Synthesizer
from srm3.simulate import Method, SampleRecord, SamplingPlan

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
    rec = Synthesizer(S, B, Method.THIRD_ORDER_UV, plan).record(0, 0)
    with pytest.warns(NonErgodicRecordWarning):
        temporal_cross_correlation(rec, 0, 0, 0, grid)


def test_estimator_symmetry_relabeling():
    # <f_a f_b(t+t1) f_c(t+t2)> is the same sum as <f_a f_c(t+t2) f_b(t+t1)>
    grid, S, B = collision_free_diagonal(2)
    rec = Synthesizer(S, B, Method.THIRD_ORDER_MV).record(5, 0)
    one = temporal_third_moment(rec, 0, 0, 1, 3, 11, grid)
    other = temporal_third_moment(rec, 0, 1, 0, 11, 3, grid)
    assert one == pytest.approx(other, rel=1e-10, abs=1e-14)


def test_ensemble_convergence_rate():
    # standard error of the variance estimate shrinks with ensemble size
    grid, S, B = collision_free_diagonal(2)
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV, SamplingPlan.for_grid(grid, blocks=1))

    def spread(R, chunks=12):
        # dispersion of independent R-realization estimates
        estimates = []
        for chunk in range(chunks):
            vals = [np.mean(synth.record(1000 + chunk, r).values[0] ** 2) for r in range(R)]
            estimates.append(np.mean(vals))
        return np.std(estimates)

    spreads = [spread(R) for R in (10, 40, 160)]
    assert spreads[0] > spreads[1] > spreads[2]
    # roughly 1/sqrt(R): a factor 16 in R cuts the spread by about 4
    assert spreads[2] < spreads[0] / 2.0


def test_ensemble_report_rows_and_serialization():
    grid, S, B = collision_free_diagonal(2)
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV, SamplingPlan.for_grid(grid, blocks=2))
    records = [synth.record(7, r) for r in range(40)]
    terms = synth.terms
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
    synths = [
        Synthesizer(S, B, Method.THIRD_ORDER_MV, SamplingPlan.for_grid(grid, blocks=blocks))
        for blocks in (1, 2)
    ]
    terms = synths[0].terms
    records = [synths[0].record(0, 0), synths[1].record(0, 1)]
    with pytest.raises(InvalidEnsembleError):
        ensemble_moments(records, [("mean", 0)], terms)
    with pytest.raises(InvalidEnsembleError):
        ensemble_moments([], [("mean", 0)], terms)


def test_informational_rows_do_not_fail_report():
    grid, S, B = collision_free_diagonal(2)
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV, SamplingPlan.for_grid(grid, blocks=1))
    records = [synth.record(3, r) for r in range(5)]
    terms = synth.terms
    report = ensemble_moments(
        records,
        [("third", 0, 0, 0)],
        terms,
        tolerances={"third_rel": 1e-12, "third_abs": 0.0},
        third_order_informational=True,
    )
    row = report.rows[0]
    assert row.informational and not row.passed  # the row fails...
    assert report.passed  # ...but informational rows never fail the report
    # the same row, not informational, fails the report
    strict = ensemble_moments(
        records, [("third", 0, 0, 0)], terms, {"third_rel": 1e-12, "third_abs": 0.0}
    )
    assert not strict.rows[0].informational and not strict.passed


def _row(check, simulated):
    row = check.row(simulated)
    return row.error, row.passed


def test_row_rule_on_hand_values():
    # a mean: the miss over the RMS floor (the target is zero)
    mean = MomentCheck("m", (0,), (), 0.0, 2.0, 0.05)
    assert _row(mean, -0.1) == (0.05, True)
    assert _row(mean, 0.25) == (0.125, False)
    # a second moment: relative to the target, floored below
    second = MomentCheck("s", (0, 1), (0,), 4.0, 0.5, 0.02)
    assert _row(second, 4.06) == pytest.approx((0.015, True))
    assert _row(second, 3.8)[1] is False
    tiny = MomentCheck("s", (0, 1), (0,), 1e-9, 0.5, 0.02)  # floor 0.5, not 1e-9
    assert _row(tiny, 0.005) == pytest.approx((0.01, True))
    # a third moment: floored at third_abs, and a miss within third_abs admits
    third = MomentCheck("t", (0, 0, 0), (0, 0), 0.3, 0.15, 0.10, 0.15)
    error, passed = _row(third, 0.42)  # relative error 0.4, but miss 0.12 <= 0.15
    assert error == pytest.approx(0.4) and passed
    assert _row(third, 0.5)[1] is False  # miss 0.2 and relative error 0.67
    near_zero = MomentCheck("t", (0, 0, 0), (0, 0), 0.01, 0.15, 0.10, 0.15)
    assert _row(near_zero, 0.02) == pytest.approx((0.01 / 0.15, True))
    # a NaN estimate fails every rule
    for check in (mean, second, third):
        error, passed = _row(check, float("nan"))
        assert np.isnan(error) and passed is False


def test_row_rule_with_a_zero_denominator():
    # a zero process: target and floor are both zero
    zero = MomentCheck("s", (0, 0), (0,), 0.0, 0.0, 0.02)
    assert _row(zero, 0.0) == (0.0, True)
    assert _row(zero, 1e-30) == (math.inf, False)
    assert _row(MomentCheck("t", (0, 0, 0), (0, 0), 0.0, 0.0, 0.1, 1e-6), 1e-9) == (math.inf, True)


def test_row_carries_label_prefix_target_and_flags():
    check = MomentCheck("E[f1]", (0,), (), 0.0, 1.0, 0.1, informational=True)
    row = check.row(0.5, prefix="seed 3: ")
    assert row.label == "seed 3: E[f1]"
    assert (row.simulated, row.target, row.tolerance) == (0.5, 0.0, 0.1)
    assert row.informational and not row.passed


def test_ensemble_checks_floors_and_targets():
    grid, S, B = collision_free_diagonal(2)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    checks = ensemble_checks(standard_moment_labels(2), terms)
    rms = [terms.target_rms(a) for a in range(2)]
    by_label = {c.label: c for c in checks}
    tol = DEFAULT_ENSEMBLE_TOLERANCES
    assert [c.label for c in checks][:3] == ["E[f1]", "E[f2]", "E[f1 f1]"]
    assert by_label["E[f2]"].floor == rms[1] and by_label["E[f2]"].tolerance == tol["mean"]
    second = by_label["E[f1 f2]"]
    assert second.floor == 1e-3 * rms[0] * rms[1]
    assert second.target == terms.target_second(0, 1, 0.0)
    third = by_label["E[f1 f1 f2]"]
    assert (third.floor, third.abs_tolerance) == (tol["third_abs"], tol["third_abs"])
    assert third.tolerance == tol["third_rel"]
    assert third.target == terms.target_third(0, 0, 1, 0.0, 0.0)
    with pytest.raises(InvalidEnsembleError):
        ensemble_checks([("fourth", 0, 0, 0, 0)], terms)


def test_moment_rows_average_each_check_over_records():
    records = [_record([[1.0, 3.0], [2.0, 2.0]]), _record([[3.0, 5.0], [0.0, 4.0]])]
    checks = [
        MomentCheck("a", (0,), (), 0.0, 1.0, 0.1),
        MomentCheck("b", (0, 1), (1,), 0.0, 1.0, 0.1),
        MomentCheck("c", (0, 0, 1), (0, 1), 0.0, 1.0, 0.1),
    ]
    rows = moment_rows(records, checks, "p ")
    assert [r.label for r in rows] == ["p a", "p b", "p c"]
    # means 2 and 4; lag-1 products (1*2+3*2)/2=4 and (3*4+5*0)/2=6;
    # third (1*1*2 + 3*3*2)/2=10 and (3*3*4 + 5*5*0)/2=18
    assert [r.simulated for r in rows] == [3.0, 5.0, 14.0]
    with pytest.raises(InvalidEnsembleError):
        moment_rows([], checks)


def test_zero_lag_estimates_equal_the_plain_products():
    rng = np.random.default_rng(4)
    rec = _record(rng.standard_normal((2, 50)))
    a, b = rec.values
    assert temporal_cross_correlation(rec, 0, 1, 0) == float(np.mean(a * b))
    assert temporal_third_moment(rec, 0, 1, 1, 0, 0) == float(np.mean(a * b * b))
    assert temporal_cross_correlation(rec, 0, 1, 50) == float(np.mean(a * np.roll(b, -50)))
