"""Run orchestration: simulation ensembles, verification suites, benchmarks.

Everything here is deterministic given the configuration: realization ``r``
of a run always uses phases keyed ``(seed, r)``, so re-running a
configuration reproduces every artifact byte for byte, regardless of thread
count or realization order.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import Srm3Error
from .estimators import (
    MomentCheck,
    MomentReport,
    MomentRow,
    ensemble_checks,
    ensemble_moments,
    moment_rows,
    standard_moment_labels,
    term_check,
    variates,
)
from .fft import Synthesizer
from .grids import FrequencyGrid
from .io import export_csv, write_samples
from .simulate import Method, SamplingPlan, draw_phases, synthesize_direct
from .spectra import CrossBispectrum, CrossSpectrum
from .wind import TABLE_SECOND_ORDER, TABLE_THIRD_ORDER, build_example_targets

#: Temporal-closure tolerances of the ergodic verification suite.
ERGODIC_TOLERANCES = {"mean": 1e-10, "second": 1e-8, "third": 1e-6}

#: Sample lags (in time steps) at which each kind of closure is checked.
CLOSURE_LAGS = {"mean": [()], "second": [(0,), (7,), (31,)], "third": [(0, 0), (7, 3), (31, 11)]}


def run_simulation(config: RunConfig, write_plot_data: bool = False) -> MomentReport:
    """Simulate the configured ensemble, write artifacts, return the report.

    Per realization one sample file (``sample_<idx>.srm3`` or ``.csv``) is
    written; the ensemble moment report goes to ``report.json``.  With
    ``write_plot_data`` a ``moments.csv`` with the report rows is added.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    plan = SamplingPlan.for_grid(config.grid, config.m_f, config.blocks)
    synth = Synthesizer(config.spectrum, config.bispectrum, config.method, plan)
    records = []
    for r in range(config.realizations):
        record = synth.record(config.seed, r)
        records.append(record)
        if config.out_format == "csv":
            export_csv(os.path.join(config.out_dir, f"sample_{r:04d}.csv"), record)
        else:
            write_samples(os.path.join(config.out_dir, f"sample_{r:04d}.srm3"), record)

    report = MomentReport((), {"realizations": 0})
    if records:
        report = ensemble_moments(
            records,
            standard_moment_labels(config.grid.m),
            synth.terms,
            tolerances=config.tolerances,
            third_order_informational=config.method is Method.SECOND_ORDER,
        )
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    if write_plot_data and records:
        _write_moment_csv(os.path.join(config.out_dir, "moments.csv"), report)
    return report


def _write_moment_csv(path, report: MomentReport):
    with open(path, "w") as fh:
        fh.write("label,simulated,target,error,tolerance,passed,informational\n")
        for r in report.rows:
            fh.write(
                f"{r.label},{r.simulated:.17g},{r.target:.17g},{r.error:.6g},"
                f"{r.tolerance:.6g},{int(r.passed)},{int(r.informational)}\n"
            )


def write_error_record(out_dir: str, exc: Exception) -> None:
    """Machine-readable failure record for scripted callers."""
    os.makedirs(out_dir, exist_ok=True)
    record = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("bin_index", "deficit", "problems"):
        if getattr(exc, attr, None) is not None:
            record[attr] = getattr(exc, attr)
    with open(os.path.join(out_dir, "error.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# ergodic identity verification
# ----------------------------------------------------------------------


def verify_ergodic_identities(
    config: RunConfig, seeds: list[int] | None = None
) -> MomentReport:
    """Single-record time averages over the fundamental period vs targets.

    For every seed, one realization covering exactly one fundamental period
    is synthesized and its temporal mean, second moments (three lags) and
    third moments (three lag pairs) are compared against the discrete term-set
    targets.  The checks are built once, before the first seed; a mean row
    reports the signed mean.  If the term set has resonant frequency
    collisions the closure rows are informational: their time averages then
    legitimately depend on the phase draw (only the ensemble matches the
    targets).

    Records are sampled at ``m_f = 4N`` unless configured otherwise: discrete
    circular averages keep any combination of up to three oscillator
    frequencies (maximum about ``3N``) from wrapping to a multiple of the
    block length, so the sampled averages equal the continuous-time ones.
    """
    grid = config.grid
    # full fundamental period (the configured block count is for ensembles)
    synth = Synthesizer(
        config.spectrum,
        config.bispectrum,
        config.method,
        SamplingPlan.for_grid(grid, config.m_f or 4 * grid.N),
    )
    terms = synth.terms
    seeds = list(seeds if seeds is not None else [config.seed])
    meta = {
        "suite": "ergodic-identities",
        "method": config.method.value,
        "seeds": seeds,
        "samples_per_record": synth.plan.n_samples,
        "fundamental_period": grid.fundamental_period,
    }
    if not seeds:  # the diagnostics and targets below group every phase key
        return MomentReport((), meta)
    collisions = terms.resonant_collisions()
    triples = terms.triple_resonances()
    informational = bool(collisions)
    third_informational = informational or triples is None or bool(triples)
    checks = _closure_checks(terms, synth.plan.delta_t, informational, third_informational)
    rows = []
    for seed in seeds:
        rows += moment_rows([synth.record(seed, 0)], checks, f"seed {seed}: ")

    meta["resonant_collisions"] = len(collisions)
    meta["triple_resonances"] = None if triples is None else len(triples)
    if informational or third_informational:
        meta["note"] = (
            "targets have resonant frequency combinations; affected"
            " single-record closures are reported informationally"
        )
    return MomentReport(tuple(rows), meta)


def _closure_checks(terms, delta_t, informational, third_informational) -> list[MomentCheck]:
    """Checks of every mean, and of every second and third moment at each lag."""
    rms = [max(terms.target_rms(a), 1e-300) for a in range(terms.m)]
    info = {"mean": False, "second": informational, "third": third_informational}
    suffix = {"mean": "", "second": " lag {}", "third": " lags ({},{})"}
    return [
        term_check(
            terms, rms, f"<{variates(fields)}>" + suffix[kind].format(*lags), fields, lags,
            ERGODIC_TOLERANCES[kind], informational=info[kind], delta_t=delta_t,
        )
        for kind, *fields in standard_moment_labels(terms.m)
        for lags in CLOSURE_LAGS[kind]
    ]


# ----------------------------------------------------------------------
# published-table reproduction
# ----------------------------------------------------------------------


def run_tables(
    seed: int = 0,
    realizations: int = 200,
    bispectrum_scale: float | None = None,
    blocks: int = 8,
) -> tuple[MomentReport, Exception | None]:
    """Reproduce the three-point wind model's published statistics.

    Three parts: (a) the package's discrete targets checked against the
    published values, (b) a second-order ensemble, its third moments held to
    ``|E| <= 0.1`` (the Gaussian baseline), and (c) a third-order ensemble;
    a label prefix names the part.  Part (c) runs at ``bispectrum_scale``
    if given; at the published scale (``None`` / 1.0) the bispectral target
    is unrealizable -- the interaction energy it demands exceeds the
    prescribed spectrum at low frequency -- and the infeasibility error is
    returned alongside the report instead of samples.
    """
    from .wind import example_grid

    grid = example_grid()
    S, B = build_example_targets(grid)
    plan = SamplingPlan.for_grid(grid, blocks=blocks)
    synth2 = Synthesizer(S, None, Method.SECOND_ORDER, plan)
    terms2 = synth2.terms
    labels = standard_moment_labels(3)

    # (a) discrete targets vs published values
    rows = []
    for fields, published in TABLE_SECOND_ORDER.items():
        check = MomentCheck(f"target E[{variates(fields)}]", fields, (0,), published, 0.0, 5e-3)
        rows.append(check.row(terms2.target_second(*fields, 0.0)))
    for fields, published in TABLE_THIRD_ORDER.items():
        check = MomentCheck(f"target E[{variates(fields)}]", fields, (0, 0), published, 0.0, 5e-3)
        rows.append(check.row(zero_lag_third_target(B, *fields)))

    # (b) second-order ensemble; the Gaussian baseline's third moments are near zero
    checks2 = ensemble_checks([label for label in labels if label[0] != "third"], terms2)
    checks2 += [
        MomentCheck(f"E[{variates(f)}]", tuple(f), (0, 0), 0.0, 1.0, 0.1)
        for kind, *f in labels if kind == "third"
    ]
    records = [synth2.record(seed, r) for r in range(realizations)]
    rows += moment_rows(records, checks2, "second-order ensemble ")

    # (c) third-order ensemble
    infeasible: Exception | None = None
    scale = 1.0 if bispectrum_scale is None else bispectrum_scale
    B_run = B if scale == 1.0 else CrossBispectrum(grid, B.values * scale)
    name = f"third-order ensemble (scale {scale:g})"
    try:
        synth3 = Synthesizer(S, B_run, Method.THIRD_ORDER_MV_FFT, plan)
        checks3 = ensemble_checks(labels, synth3.terms, {"third_abs": 0.15 * scale})
        records = [synth3.record(seed + 1, r) for r in range(realizations)]
        rows += moment_rows(records, checks3, f"{name} ")
    except Srm3Error as exc:
        infeasible = exc
        rows.append(MomentRow(name, float("nan"), float("nan"), float("inf"), 0.0, False))

    meta = {
        "suite": "published-tables",
        "seed": seed,
        "realizations": realizations,
        "bispectrum_scale": scale,
    }
    if infeasible is not None:
        meta["infeasible"] = str(infeasible)
    return MomentReport(tuple(rows), meta), infeasible


def zero_lag_third_target(B: CrossBispectrum, a: int, b: int, c: int) -> float:
    """Zero-lag third-moment target straight from the bispectral table.

    ``6 * sum`` over ordered source pairs of ``Re B[i,j,a,b,c] dw^2``.  For
    one-variate targets this equals ``TermSet.target_third(a, b, c, 0, 0)``
    exactly; for vector targets the exact synthesized moment additionally
    carries the coherent equal-bin channel-pair contributions, a small
    per-diagonal-pair correction.  Unlike the term-set target this sum is
    defined for any bispectral table, realizable or not.
    """
    grid = B.grid
    pairs = grid.interaction_pairs()
    if pairs.size == 0:
        return 0.0
    i, j = pairs[:, 0], pairs[:, 1]
    vals = B.values[i, j, a, b, c].real
    weight = np.where(i == j, 1.0, 2.0)  # ordered pairs: (i, j) and (j, i)
    return float(6.0 * np.sum(weight * vals) * grid.delta_omega**2)


# ----------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    N: int
    m: int
    n_samples: int
    compile_seconds: float  # once per run: split, term set, channel layout
    direct_seconds: float  # one record by direct summation
    fft_seconds: float  # one record by the compiled FFT path, median of five
    max_mismatch_over_rms: float

    @property
    def speedup(self) -> float:
        return self.direct_seconds / self.fft_seconds


def synthetic_bench_targets(
    N: int, m: int, delta_omega: float = 0.01
) -> tuple[CrossSpectrum, CrossBispectrum]:
    """Broad-band feasible targets exercising every interaction pair."""
    grid = FrequencyGrid(m, N, delta_omega)
    w = grid.sample_frequencies
    S = np.zeros((N, m, m), dtype=np.complex128)
    for a in range(m):
        for b in range(m):
            coh = np.exp(-0.5 * abs(a - b) * w)
            S[:, a, b] = np.sqrt(
                1.0 / (1 + w) ** 2 * 1.0 / (1 + 0.5 * (a + b) * w)
            ) * coh
    wsum = w[:, None] + w[None, :]
    base = 0.02 / (1.0 + wsum) ** 2
    B = np.zeros((N, N, m, m, m), dtype=np.complex128)
    for a in range(m):
        for l in range(m):
            for n in range(m):
                B[:, :, a, l, n] = base / (1.0 + 0.3 * (a + l + n))
    return CrossSpectrum(grid, S), CrossBispectrum(grid, B)


def run_bench(N: int = 512, m: int = 3, seed: int = 0, blocks: int = 1) -> BenchResult:
    """Time one record by direct summation and by the compiled FFT path.

    The synthesizer is compiled once (split, term set, channel layout) and
    timed separately; ``fft_seconds`` is the per-record draw users pay for
    every realization after that, the median over realizations 0-4 so that
    one-time FFT set-up is not counted.  Realization 0 is checked against
    direct summation; both paths see identical terms and phases.
    """
    S, B = synthetic_bench_targets(N, m)
    plan = SamplingPlan.for_grid(S.grid, blocks=blocks)
    phases = [draw_phases(seed, r, S.grid) for r in range(5)]

    t0 = time.perf_counter()
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV_FFT, plan)
    t_compile = time.perf_counter() - t0

    t0 = time.perf_counter()
    direct = synthesize_direct(synth.terms, phases[0], plan)
    t_direct = time.perf_counter() - t0

    t_fft, via_fft = [], []
    for phase_set in phases:
        t0 = time.perf_counter()
        via_fft.append(synth.draw(phase_set).values)
        t_fft.append(time.perf_counter() - t0)

    rms = float(np.sqrt(np.mean(direct**2)))
    mismatch = float(np.abs(direct - via_fft[0]).max() / max(rms, 1e-300))
    return BenchResult(
        N, m, plan.n_samples, t_compile, t_direct, float(np.median(t_fft)), mismatch
    )
