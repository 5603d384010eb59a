"""Acceptance suite: one test per acceptance criterion, with a printed
pass/fail line each.

Criterion 2 (reproduction of the wind model's published ensemble tables by a
third-order run at the published bispectrum amplitude) is expected to fail:
the published target pair is not realizable by cosine-series synthesis.  The
third-moment table pins the quadratic interaction amplitudes; the
second-moment energy those amplitudes necessarily carry then either breaks
the second-moment table by roughly +100 percent (if the linear part is left
at full strength) or exceeds the spectrum's small eigenvalues at low
frequency (if the linear part is reduced to compensate, which is what the
pure-spectrum recursion does: it goes indefinite at bin 2 with eigenvalue
-44 against a spectrum whose smallest eigenvalue there is 0.24; the largest
realizable bispectrum amplitude is about 5 percent of the published one).
Both tables therefore cannot be met simultaneously at any interaction
amplitude, and the run refuses the target.  The surrounding
tests show everything that is attainable: the published target values
themselves are reproduced exactly, the second-order ensemble matches the
second-moment table, and a realizably-scaled third-order ensemble matches
its own targets at the criterion tolerances.
"""

import math
import time

import numpy as np
import pytest

from srm3.config import parse_config
from srm3.errors import InfeasibleBispectrumError
from srm3.estimators import (
    build_terms,
    temporal_cross_correlation,
    temporal_mean,
    temporal_third_moment,
)
from srm3.fft import (
    Synthesizer,
    assemble_coefficients,
    simulate_3rd_order_mv_fft,
    synthesize_fft,
)
from srm3.pure import compute_pure_multivariate
from srm3.simulate import (
    Method,
    SamplingPlan,
    draw_phases,
    simulate_2nd_order_mv,
    simulate_3rd_order_mv,
    simulate_3rd_order_uv,
    synthesize_direct,
)
from srm3.spectra import CrossBispectrum, zero_bispectrum
from srm3.wind import (
    TABLE_SECOND_ORDER,
    TABLE_THIRD_ORDER,
    build_example_targets,
    example_grid,
)
from srm3.workbench import run_bench, zero_lag_third_target

from _targets import (
    brute_force_univariate,
    collision_free_diagonal,
    collision_free_univariate,
    coherent_gaussian,
    univariate_target,
)

SEEDS = list(range(20))
SECOND_LAGS = (0, 7, 31)
THIRD_LAG_PAIRS = ((0, 0), (7, 3), (31, 11))


def _report(criterion, ok, detail):
    status = "pass" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------------------
# 1. ergodic identity suite
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,maker,method",
    [
        ("m=1 N=16 third-order", collision_free_univariate, Method.THIRD_ORDER_UV),
        ("m=2 N=16 third-order", lambda: collision_free_diagonal(2, N=16), Method.THIRD_ORDER_MV),
        ("m=3 N=12 third-order", lambda: collision_free_diagonal(3, N=12), Method.THIRD_ORDER_MV),
        ("m=3 N=12 correlated Gaussian", lambda: coherent_gaussian(3, N=12), Method.THIRD_ORDER_MV),
    ],
)
def test_criterion_1_ergodic_identities(name, maker, method):
    """Single-record time averages over one fundamental period equal the
    discrete targets for every seed, at tight tolerances."""
    grid, S, B = maker()
    terms = build_terms(S, B, method)
    assert terms.resonant_collisions() == [], "suite targets must be collision-free"
    assert terms.triple_resonances() == [], "suite targets must be collision-free"
    # m_f = 4N: no sum of up to three oscillator frequencies can reach the
    # FFT block length, so discrete circular averages are exact time averages
    plan = SamplingPlan.for_grid(grid, m_f=4 * grid.N)
    dt = plan.delta_t
    m = grid.m
    rms = [terms.target_rms(a) for a in range(m)]

    worst_mean = worst_second = worst_third = 0.0
    for seed in SEEDS:
        phases = draw_phases(seed, 0, grid)
        if method is Method.THIRD_ORDER_UV:
            rec = simulate_3rd_order_uv(S, B, phases, plan)
        else:
            rec = simulate_3rd_order_mv(S, B, phases, plan)
        for a in range(m):
            worst_mean = max(worst_mean, abs(temporal_mean(rec, a)) / rms[a])
        for a in range(m):
            for b in range(a, m):
                for lag in SECOND_LAGS:
                    est = temporal_cross_correlation(rec, a, b, lag, grid)
                    tgt = terms.target_second(a, b, lag * dt)
                    floor = max(abs(tgt), 1e-3 * rms[a] * rms[b])
                    worst_second = max(worst_second, abs(est - tgt) / floor)
                for c in range(b, m):
                    for l1, l2 in THIRD_LAG_PAIRS:
                        est = temporal_third_moment(rec, a, b, c, l1, l2, grid)
                        tgt = terms.target_third(a, b, c, l1 * dt, l2 * dt)
                        floor = max(abs(tgt), 1e-3 * rms[a] * rms[b] * rms[c])
                        worst_third = max(worst_third, abs(est - tgt) / floor)

    _report(
        "1",
        worst_mean < 1e-10 and worst_second < 1e-8 and worst_third < 1e-6,
        f"{name}, {len(SEEDS)} seeds: |mean|/rms {worst_mean:.2e} (< 1e-10),"
        f" second {worst_second:.2e} (< 1e-8), third {worst_third:.2e} (< 1e-6)",
    )


# ----------------------------------------------------------------------
# 2. ensemble suite on the wind model
# ----------------------------------------------------------------------


def test_criterion_2a_published_targets_reproduced():
    """The discrete targets reproduce every published table value."""
    grid = example_grid()
    S, B = build_example_targets(grid)
    terms2 = build_terms(S, method=Method.SECOND_ORDER)
    worst = 0.0
    for (a, b), published in TABLE_SECOND_ORDER.items():
        worst = max(worst, abs(terms2.target_second(a, b, 0.0) - published) / published)
    for (a, b, c), published in TABLE_THIRD_ORDER.items():
        worst = max(worst, abs(zero_lag_third_target(B, a, b, c) - published) / published)
    _report("2a", worst < 5e-3, f"all 16 published moment targets within {worst:.2%}")


def test_criterion_2b_ensemble_at_published_amplitude():
    """EXPECTED FAILURE: the published bispectrum amplitude is unrealizable.

    The synthesis refuses the target during the pure-spectrum split; see the
    module docstring for why no amplitude convention can meet both published
    tables at once.  This test states the criterion literally and records
    the precise failure mode.
    """
    grid = example_grid()
    S, B = build_example_targets(grid)
    try:
        for r in range(200):
            simulate_3rd_order_mv_fft(S, B, draw_phases(0, r, grid))
    except InfeasibleBispectrumError as exc:
        _report(
            "2",
            False,
            "third-order ensemble at the published bispectrum amplitude is"
            f" unrealizable: {exc} (largest realizable amplitude is about"
            " 5% of the published one); the published second- and"
            " third-moment tables are mutually incompatible for this"
            " synthesis, so the criterion cannot be met as stated",
        )
    # would continue with table comparisons if the target were realizable
    pytest.fail("unexpectedly realizable")


def test_criterion_2c_second_order_ensemble_matches_second_moment_table():
    """The Gaussian part of the criterion: 200 realizations, table within 2%."""
    grid = example_grid()
    S, _ = build_example_targets(grid)
    plan = SamplingPlan.for_grid(grid, blocks=4)
    sums = np.zeros((3, 3))
    R = 200
    for r in range(R):
        rec = simulate_2nd_order_mv(S, draw_phases(12, r, grid), plan)
        sums += rec.values @ rec.values.T / rec.n_samples
    est = sums / R
    worst = 0.0
    for (a, b), published in TABLE_SECOND_ORDER.items():
        worst = max(worst, abs(est[a, b] - published) / published)
    _report("2c", worst < 0.02, f"200-realization second moments within {worst:.2%} of the table")


def test_criterion_2d_scaled_third_order_ensemble_matches_its_targets():
    """A realizable (scaled) variant meets the criterion tolerances against
    its own exact targets: 2% on second moments, max(10%, scaled 0.15
    absolute) on third moments, 200 realizations."""
    scale = 0.04
    grid = example_grid()
    S, B = build_example_targets(grid)
    small = CrossBispectrum(grid, B.values * scale)
    synth = Synthesizer(S, small, Method.THIRD_ORDER_MV_FFT, SamplingPlan.for_grid(grid))
    terms = synth.terms

    t0 = time.time()
    R = 200
    second = np.zeros((3, 3))
    third = {key: 0.0 for key in TABLE_THIRD_ORDER}
    mean = np.zeros(3)
    for r in range(R):
        rec = synth.record(2, r)
        v = rec.values
        mean += v.mean(axis=1)
        second += v @ v.T / rec.n_samples
        for (a, b, c) in third:
            third[(a, b, c)] += float(np.mean(v[a] * v[b] * v[c]))
    mean /= R
    second /= R
    runtime = time.time() - t0

    worst2 = max(
        abs(second[a, b] - terms.target_second(a, b, 0.0))
        / terms.target_second(a, b, 0.0)
        for (a, b) in TABLE_SECOND_ORDER
    )
    worst3_rel, worst3_abs = 0.0, 0.0
    ok3 = True
    for key, total in third.items():
        est = total / R
        tgt = terms.target_third(*key, 0.0, 0.0)
        abs_err = abs(est - tgt)
        rel_err = abs_err / max(abs(tgt), 1e-300)
        if rel_err > 0.10 and abs_err > 0.15 * scale:
            ok3 = False
        worst3_rel = max(worst3_rel, rel_err)
        worst3_abs = max(worst3_abs, abs_err)
    worst_mean = max(abs(mean[a]) / terms.target_rms(a) for a in range(3))

    _report(
        "2d",
        worst_mean < 1e-10 and worst2 < 0.02 and ok3 and runtime < 600,
        f"scaled ({scale:g}) third-order ensemble, 200 realizations in"
        f" {runtime:.0f}s: means {worst_mean:.1e}, second moments within"
        f" {worst2:.2%}, third moments within {worst3_rel:.1%} rel"
        f" / {worst3_abs:.3f} abs of exact targets",
    )


# ----------------------------------------------------------------------
# 3. Gaussian-baseline contrast
# ----------------------------------------------------------------------


def test_criterion_3_second_order_third_moments_near_zero():
    """Second-order synthesis of the wind spectrum carries no skewness:
    ensemble third moments stay below 0.1 in magnitude (cf. the published
    near-zero second-order column).  On the ergodic double-indexed grid the
    full-period third moments vanish identically, so this holds for every
    seed rather than only in ensemble."""
    grid = example_grid()
    S, _ = build_example_targets(grid)
    from srm3.terms import build_second_order_terms

    assert build_second_order_terms(S).triple_resonances(limit=400) == []
    plan = SamplingPlan.for_grid(grid)
    R = 200
    totals = np.zeros(3)
    worst_single = 0.0
    for r in range(R):
        rec = simulate_2nd_order_mv(S, draw_phases(7, r, grid), plan)
        vals = np.array([float(np.mean(rec.values[a] ** 3)) for a in range(3)])
        totals += vals
        worst_single = max(worst_single, np.abs(vals).max())
    ensemble = np.abs(totals / R)
    _report(
        "3",
        bool(np.all(ensemble < 0.1)),
        f"|E[f^3]| = {np.round(ensemble, 6).tolist()} (< 0.1 each;"
        f" worst single record {worst_single:.2e})",
    )


# ----------------------------------------------------------------------
# 4. FFT equivalence and speed
# ----------------------------------------------------------------------


def test_criterion_4_fft_equivalence_and_speed():
    worst = 0.0
    for maker in (
        collision_free_univariate,
        lambda: collision_free_diagonal(2, N=16),
        lambda: collision_free_diagonal(3, N=12),
        lambda: coherent_gaussian(3, N=12),
    ):
        grid, S, B = maker()
        terms = build_terms(S, B, Method.THIRD_ORDER_MV)
        plan = SamplingPlan.for_grid(grid)
        for seed in (0, 1, 2, 3, 4):
            phases = draw_phases(seed, 0, grid)
            direct = synthesize_direct(terms, phases, plan)
            fast = synthesize_fft(
                assemble_coefficients(terms, phases, plan.m_f), grid, plan
            )
            rms = max(np.sqrt(np.mean(direct**2, axis=1)).max(), 1e-300)
            worst = max(worst, np.abs(direct - fast).max() / rms)

    bench = run_bench(N=512, m=3)
    _report(
        "4",
        worst < 1e-8 and bench.max_mismatch_over_rms < 1e-8 and bench.speedup >= 10,
        f"equivalence {worst:.2e} (< 1e-8) across the grid matrix;"
        f" N=512 m=3: mismatch {bench.max_mismatch_over_rms:.2e},"
        f" direct {bench.direct_seconds:.1f}s vs fft {bench.fft_seconds:.2f}s"
        f" = {bench.speedup:.0f}x (>= 10x)",
    )


# ----------------------------------------------------------------------
# 5. reduction chain
# ----------------------------------------------------------------------


def test_criterion_5_reductions():
    grid, S, B = collision_free_diagonal(1, N=16)
    phases = draw_phases(13, 0, grid)
    plan = SamplingPlan.for_grid(grid)

    oracle, _ = brute_force_univariate(
        S.values[:, 0, 0].real, B.values[:, :, 0, 0, 0], grid.delta_omega
    )
    mv_pure = compute_pure_multivariate(S, B)
    pure_gap = float(np.abs(oracle - mv_pure.S_p[:, 0, 0]).max())

    uv = simulate_3rd_order_uv(S, B, phases, plan)
    mv = simulate_3rd_order_mv(S, B, phases, plan)
    path_gap = float(np.abs(uv.values - mv.values).max() / uv.rms(0))

    g2, S2, _ = coherent_gaussian(3, N=12)
    phases2 = draw_phases(4, 0, g2)
    plan2 = SamplingPlan.for_grid(g2)
    degenerate = simulate_3rd_order_mv(S2, zero_bispectrum(g2), phases2, plan2)
    second = simulate_2nd_order_mv(S2, phases2, plan2)
    collapse_gap = float(
        np.abs(degenerate.values - second.values).max()
        / max(second.rms(a) for a in range(3))
    )

    _report(
        "5",
        pure_gap < 1e-12 and path_gap < 1e-12 and collapse_gap < 1e-12,
        f"m=1 pure-spectrum gap {pure_gap:.2e}, m=1 simulator gap {path_gap:.2e},"
        f" zero-bispectrum collapse gap {collapse_gap:.2e} (all < 1e-12)",
    )


# ----------------------------------------------------------------------
# 6. infeasibility detection
# ----------------------------------------------------------------------


def test_criterion_6_infeasibility_detected_at_first_violating_bin():
    N = 12
    grid, S, B = univariate_target(N, [1.0] * N, {(1, 1): 1.2, (3, 2): 1.1, (4, 3): 0.9})

    # independent forward recursion to locate the first violation
    _, first_bad = brute_force_univariate(
        S.values[:, 0, 0].real, B.values[:, :, 0, 0, 0], grid.delta_omega
    )

    with pytest.raises(InfeasibleBispectrumError) as excinfo:
        compute_pure_multivariate(S, B)
    _report(
        "6",
        first_bad is not None and excinfo.value.bin_index == first_bad,
        f"oversized bispectrum refused at bin {excinfo.value.bin_index}"
        f" (oracle: {first_bad}), deficit {excinfo.value.deficit:.3e}",
    )


# ----------------------------------------------------------------------
# 7. discretization round trip
# ----------------------------------------------------------------------


def test_criterion_7_discretization_round_trip():
    config = parse_config(
        '{"schema_version": 1,'
        ' "grid": {"m": 3, "N": 100, "omega_u": 2.0},'
        ' "target": {"kind": "wind-example"},'
        ' "method": "third-mv-fft", "seed": 0, "realizations": 1}'
    )
    plan = SamplingPlan.for_grid(config.grid, config.m_f, blocks=1)
    ok = (
        config.grid.delta_omega == pytest.approx(0.02)
        and plan.m_f == 200
        and round(plan.delta_t, 2) == 1.57
        and plan.delta_t == pytest.approx(math.pi / 2)
    )
    _report(
        "7",
        ok,
        f"omega_u=2, N=100 -> delta_omega={config.grid.delta_omega},"
        f" delta_t={plan.delta_t:.4f}s under m_f=2N",
    )
