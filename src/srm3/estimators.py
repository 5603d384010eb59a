"""Temporal and ensemble moment estimation against exact discrete targets.

Temporal estimators use circular lags: a record covering exactly one
fundamental period is periodic, so the circular average is the exact time
average of the underlying continuous record.  On partial records the
estimate is still returned but a :class:`NonErgodicRecordWarning` is issued,
since only full-period averages are guaranteed to match the targets.

Discrete targets come from the synthesis term set (:mod:`srm3.terms`), i.e.
they are the exact ensemble moments of the synthesized process, not
continuous-spectrum integrals.  For collision-free term sets they equal the
single-record full-period time averages for every phase draw, which is what
the verification suite checks.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidEnsembleError, UnsupportedConfigurationError
from .grids import FrequencyGrid
from .pure import compute_pure_multivariate
from .simulate import Method, SampleRecord
from .spectra import CrossBispectrum, CrossSpectrum
from .terms import TermSet, build_second_order_terms, build_third_order_terms


class NonErgodicRecordWarning(UserWarning):
    """The record does not cover a whole fundamental period."""


def build_terms(
    S: CrossSpectrum, B: CrossBispectrum | None = None, method: Method = Method.THIRD_ORDER_MV
) -> TermSet:
    """Term set of a synthesis method.

    Without an interaction pair (``second``, which ignores ``B``, or ``B``
    absent or zero) the terms come from the factor of ``S`` alone, which is
    what the split gives then; otherwise from the pure/interaction split,
    one for every third-order method.  ``third-uv`` needs ``m = 1``.
    """
    if method is Method.THIRD_ORDER_UV and S.m != 1:
        raise UnsupportedConfigurationError("method 'third-uv' requires m = 1")
    if method is Method.SECOND_ORDER or B is None or B.is_zero():
        return build_second_order_terms(S)
    return build_third_order_terms(compute_pure_multivariate(S, B), B)


def _warn_if_partial(record: SampleRecord, grid: FrequencyGrid | None):
    if grid is None:
        return
    period = grid.fundamental_period
    covered = record.t0_covered
    cycles = covered / period
    if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
        warnings.warn(
            f"record covers {covered:.6g} s, not a whole fundamental period"
            f" ({period:.6g} s); temporal averages are approximate",
            NonErgodicRecordWarning,
            stacklevel=3,
        )


def temporal_mean(record: SampleRecord, a: int) -> float:
    """Arithmetic mean of variate ``a`` over the record."""
    return float(np.mean(record.values[a]))


def temporal_cross_correlation(
    record: SampleRecord, a: int, b: int, lag: int, grid: FrequencyGrid | None = None
) -> float:
    """Circular average ``(1/M) sum_r f_a(r) f_b(r + lag mod M)``."""
    _warn_if_partial(record, grid)
    fa = record.values[a]
    fb = np.roll(record.values[b], -lag)
    return float(np.mean(fa * fb))


def temporal_third_moment(
    record: SampleRecord,
    a: int,
    b: int,
    c: int,
    lag1: int,
    lag2: int,
    grid: FrequencyGrid | None = None,
) -> float:
    """Circular average ``(1/M) sum_r f_a(r) f_b(r + lag1) f_c(r + lag2)``."""
    _warn_if_partial(record, grid)
    fa = record.values[a]
    fb = np.roll(record.values[b], -lag1)
    fc = np.roll(record.values[c], -lag2)
    return float(np.mean(fa * fb * fc))


# ----------------------------------------------------------------------
# ensemble aggregation and reporting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentRow:
    """One verified moment: estimate vs target at a tolerance."""

    label: str
    simulated: float
    target: float
    error: float
    tolerance: float
    passed: bool
    informational: bool = False

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "simulated": self.simulated,
            "target": self.target,
            "error": self.error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class MomentReport:
    """Verification outcome: every row's estimate, target and pass flag."""

    rows: tuple[MomentRow, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows if not r.informational)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "metadata": self.metadata,
                "rows": [r.as_dict() for r in self.rows],
            },
            indent=indent,
        )

    def __str__(self):
        lines = []
        for r in self.rows:
            status = "pass" if r.passed else "FAIL"
            if r.informational:
                status = "info"
            lines.append(
                f"[{status}] {r.label}: simulated {r.simulated:.6g}"
                f" target {r.target:.6g} error {r.error:.3g}"
                f" (tolerance {r.tolerance:.3g})"
            )
        lines.append(f"report: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


#: Default per-kind tolerances for ensemble verification runs.
DEFAULT_ENSEMBLE_TOLERANCES = {
    "mean": 0.05,  # |mean| as a fraction of RMS
    "second": 0.02,  # relative error of E[f_a f_b]
    "third_rel": 0.10,  # relative error of E[f_a f_b f_c] ...
    "third_abs": 0.15,  # ... or absolute error, whichever admits
}

MomentLabel = tuple  # ("mean", a) | ("second", a, b) | ("third", a, b, c)


def standard_moment_labels(m: int) -> list[MomentLabel]:
    """Means, distinct second moments, and distinct third moments for m variates."""
    labels: list[MomentLabel] = [("mean", a) for a in range(m)]
    labels += [("second", a, b) for a in range(m) for b in range(a, m)]
    labels += [
        ("third", a, b, c)
        for a in range(m)
        for b in range(a, m)
        for c in range(b, m)
    ]
    return labels


def _format_label(label: MomentLabel) -> str:
    kind = label[0]
    idx = "".join(str(i + 1) for i in label[1:])
    if kind == "mean":
        return f"E[f{idx}]"
    if kind == "second":
        return f"E[f{label[1]+1} f{label[2]+1}]"
    return f"E[f{label[1]+1} f{label[2]+1} f{label[3]+1}]"


def ensemble_moments(
    records: list[SampleRecord],
    moments: list[MomentLabel],
    terms: TermSet,
    tolerances: dict | None = None,
    third_order_informational: bool = False,
) -> MomentReport:
    """Average zero-lag product moments across records and time, vs targets.

    All records must share variate count, sample count, time step and method.
    Third-moment rows can be marked informational (e.g. when scoring a
    second-order synthesis against third-order targets).
    """
    if not records:
        raise InvalidEnsembleError("need at least one record")
    first = records[0]
    for r in records[1:]:
        if (
            r.values.shape != first.values.shape
            or r.delta_t != first.delta_t
            or r.method != first.method
        ):
            raise InvalidEnsembleError(
                "records mix shapes, time steps or methods"
            )

    tol = dict(DEFAULT_ENSEMBLE_TOLERANCES)
    tol.update(tolerances or {})

    m = first.m
    rms = [max(terms.target_rms(a), 1e-300) for a in range(m)]

    rows = []
    for label in moments:
        kind = label[0]
        if kind == "mean":
            (a,) = label[1:]
            sim = float(np.mean([np.mean(r.values[a]) for r in records]))
            target = terms.target_mean(a)
            err = abs(sim - target) / rms[a]
            tolerance = tol["mean"]
            passed = err <= tolerance
            info = False
        elif kind == "second":
            a, b = label[1:]
            sim = float(np.mean([np.mean(r.values[a] * r.values[b]) for r in records]))
            target = terms.target_second(a, b, 0.0)
            err = abs(sim - target) / max(abs(target), 1e-3 * rms[a] * rms[b])
            tolerance = tol["second"]
            passed = err <= tolerance
            info = False
        elif kind == "third":
            a, b, c = label[1:]
            sim = float(
                np.mean(
                    [np.mean(r.values[a] * r.values[b] * r.values[c]) for r in records]
                )
            )
            target = terms.target_third(a, b, c, 0.0, 0.0)
            abs_err = abs(sim - target)
            err = abs_err / max(abs(target), tol["third_abs"])
            tolerance = tol["third_rel"]
            passed = err <= tolerance or abs_err <= tol["third_abs"]
            info = third_order_informational
        else:
            raise InvalidEnsembleError(f"unknown moment kind {kind!r}")
        rows.append(
            MomentRow(_format_label(label), sim, target, err, tolerance, passed, info)
        )

    meta = {
        "method": first.method.value,
        "realizations": len(records),
        "samples_per_record": first.n_samples,
        "delta_t": first.delta_t,
        "seeds": sorted({r.seed for r in records}),
    }
    return MomentReport(tuple(rows), meta)
