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
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InvalidEnsembleError, UnsupportedConfigurationError
from .grids import FrequencyGrid
from .pure import compute_pure_multivariate
from .simulate import Method, SampleRecord
from .spectra import CrossBispectrum, CrossSpectrum
from .terms import TermSet, build_third_order_terms


class NonErgodicRecordWarning(UserWarning):
    """The record does not cover a whole fundamental period."""


def build_terms(
    S: CrossSpectrum, B: CrossBispectrum | None = None, method: Method = Method.THIRD_ORDER_MV
) -> TermSet:
    """Term set of a synthesis method, through the pure/interaction split.

    ``second`` ignores ``B``.  Without a nonzero pair (``second``, or ``B``
    absent or zero) the split leaves ``S`` as it is, so the linear terms come
    from the factor of ``S`` alone.  ``third-uv`` needs ``m = 1``.
    """
    if method is Method.THIRD_ORDER_UV and S.m != 1:
        raise UnsupportedConfigurationError("method 'third-uv' requires m = 1")
    if method is Method.SECOND_ORDER:
        B = None
    return build_third_order_terms(compute_pure_multivariate(S, B))


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


def _shifted(values: np.ndarray, lag: int) -> np.ndarray:
    """``values[(r + lag) mod M]``; the values themselves at lag 0."""
    return values if lag == 0 else np.roll(values, -lag)


def temporal_cross_correlation(
    record: SampleRecord, a: int, b: int, lag: int, grid: FrequencyGrid | None = None
) -> float:
    """Circular average ``(1/M) sum_r f_a(r) f_b(r + lag mod M)``."""
    _warn_if_partial(record, grid)
    return float(np.mean(record.values[a] * _shifted(record.values[b], lag)))


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
    fb = _shifted(record.values[b], lag1)
    return float(np.mean(record.values[a] * fb * _shifted(record.values[c], lag2)))


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
    return [
        (kind, *fields)
        for kind, order in (("mean", 1), ("second", 2), ("third", 3))
        for fields in combinations_with_replacement(range(m), order)
    ]


def variates(fields) -> str:
    """``f1 f2 f3`` for the 0-based variate indices ``(0, 1, 2)``."""
    return " ".join(f"f{i + 1}" for i in fields)


@dataclass(frozen=True)
class MomentCheck:
    """One moment's target and pass rule, built once per run.

    ``fields`` holds one, two or three variates (a mean, a cross-correlation
    or a third moment), ``lags`` the sample lags of the second and third.
    """

    label: str
    fields: tuple[int, ...]
    lags: tuple[int, ...]
    target: float
    floor: float
    tolerance: float
    abs_tolerance: float = 0.0
    informational: bool = False

    def estimate(self, record: SampleRecord) -> float:
        """The record's temporal (circular) average of the moment."""
        if len(self.fields) == 1:
            return temporal_mean(record, *self.fields)
        if len(self.fields) == 2:
            return temporal_cross_correlation(record, *self.fields, *self.lags)
        return temporal_third_moment(record, *self.fields, *self.lags)

    def row(self, simulated: float, prefix: str = "") -> MomentRow:
        """The report row of an estimate, under the one rule of every report.

        The error is the miss ``|simulated - target|`` over
        ``max(|target|, floor)``; the row passes when the error is within
        ``tolerance`` or the miss within ``abs_tolerance``.  Where that
        denominator is zero (a zero process), the error is zero for an exact
        hit and infinite otherwise.
        """
        miss = abs(simulated - self.target)
        scale = max(abs(self.target), self.floor)
        error = miss / scale if scale > 0 else (0.0 if miss == 0 else math.inf)
        passed = error <= self.tolerance or miss <= self.abs_tolerance
        return MomentRow(
            prefix + self.label, simulated, self.target, error, self.tolerance, passed,
            self.informational,
        )


def term_check(
    terms: TermSet, rms: list[float], label: str, fields, lags, tolerance: float,
    floor: float | None = None, abs_tolerance: float = 0.0, informational: bool = False,
    delta_t: float = 0.0,
) -> MomentCheck:
    """The check of ``fields`` at sample ``lags`` against the term-set target.

    The target's lags are ``lag * delta_t``.  ``floor`` defaults to ``rms``
    of a mean's variate, and to 1e-3 of the fields' RMS product otherwise.
    """
    if len(fields) == 1:
        target, default = terms.target_mean(*fields), rms[fields[0]]
    else:
        target_at = terms.target_second if len(fields) == 2 else terms.target_third
        target = target_at(*fields, *(lag * delta_t for lag in lags))
        default = 1e-3
        for a in fields:
            default *= rms[a]
    return MomentCheck(
        label, tuple(fields), tuple(lags), target, default if floor is None else floor,
        tolerance, abs_tolerance, informational,
    )


def moment_rows(
    records: list[SampleRecord], checks: list[MomentCheck], prefix: str = ""
) -> list[MomentRow]:
    """One row per check: its estimate averaged over records of one shape and method."""
    if not records:
        raise InvalidEnsembleError("need at least one record")
    if len({(r.values.shape, r.delta_t, r.method) for r in records}) > 1:
        raise InvalidEnsembleError("records mix shapes, time steps or methods")
    return [
        check.row(float(np.mean([check.estimate(r) for r in records])), prefix)
        for check in checks
    ]


def ensemble_checks(
    moments: list[MomentLabel],
    terms: TermSet,
    tolerances: dict | None = None,
    third_order_informational: bool = False,
) -> list[MomentCheck]:
    """Zero-lag checks at the ensemble tolerances; a third moment's floor is ``third_abs``."""
    tol = {**DEFAULT_ENSEMBLE_TOLERANCES, **(tolerances or {})}
    rms = [max(terms.target_rms(a), 1e-300) for a in range(terms.m)]
    checks = []
    for kind, *fields in moments:
        label, lags = f"E[{variates(fields)}]", (0,) * (len(fields) - 1)
        if kind == "third":
            check = term_check(
                terms, rms, label, fields, lags, tol["third_rel"], tol["third_abs"],
                tol["third_abs"], third_order_informational,
            )
        elif kind in ("mean", "second"):
            check = term_check(terms, rms, label, fields, lags, tol[kind])
        else:
            raise InvalidEnsembleError(f"unknown moment kind {kind!r}")
        checks.append(check)
    return checks


def ensemble_moments(
    records: list[SampleRecord],
    moments: list[MomentLabel],
    terms: TermSet,
    tolerances: dict | None = None,
    third_order_informational: bool = False,
) -> MomentReport:
    """Average zero-lag product moments across records and time, vs targets.

    One :func:`ensemble_checks` list, built before any record is read, gives
    every row (:func:`moment_rows`).  Third-moment rows can be marked
    informational (e.g. when scoring a second-order synthesis against
    third-order targets).
    """
    checks = ensemble_checks(moments, terms, tolerances, third_order_informational)
    rows = moment_rows(records, checks)
    first = records[0]
    meta = {
        "method": first.method.value,
        "realizations": len(records),
        "samples_per_record": first.n_samples,
        "delta_t": first.delta_t,
        "seeds": sorted({r.seed for r in records}),
    }
    return MomentReport(tuple(rows), meta)
