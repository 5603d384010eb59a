"""Phase draws, sampling plans, and the direct-summation simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srm3.errors import InvalidParameterError, UnsupportedConfigurationError
from srm3.estimators import temporal_cross_correlation, temporal_mean
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.simulate import (
    Method,
    SamplingPlan,
    draw_phases,
    simulate_2nd_order_mv,
    simulate_3rd_order_mv,
    simulate_3rd_order_uv,
)
from srm3.spectra import CrossBispectrum, CrossSpectrum, zero_bispectrum

from _targets import collision_free_diagonal, collision_free_univariate, coherent_gaussian


def test_phases_deterministic_and_distinct():
    g = FrequencyGrid(2, 16, 0.5)
    a = draw_phases(1234, 0, g)
    b = draw_phases(1234, 0, g)
    c = draw_phases(1234, 1, g)
    d = draw_phases(1235, 0, g)
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)
    assert not np.array_equal(a.phi, d.phi)
    assert a.phi.shape == (2, 16)
    assert np.all(a.phi >= 0) and np.all(a.phi < 2 * np.pi)


def test_phase_fill_order_is_channel_major():
    g2 = FrequencyGrid(2, 8, 0.5)
    g1 = FrequencyGrid(1, 16, 0.5, OffsetRule.UNIVARIATE_ERGODIC)
    # same stream, reshaped: the (m, N) array fills row-major
    a = draw_phases(99, 0, g2).phi.ravel()
    b = draw_phases(99, 0, g1).phi.ravel()
    np.testing.assert_array_equal(a, b)


def test_phase_mean_law_of_large_numbers():
    g = FrequencyGrid(1, 10**6, 1.0, OffsetRule.UNIVARIATE_ERGODIC)
    phi = draw_phases(2024, 0, g).phi
    se = 2 * np.pi / np.sqrt(12.0) / 1000.0
    assert abs(phi.mean() - np.pi) < 3 * se


def test_negative_realization_index_rejected():
    g = FrequencyGrid(1, 4, 1.0, OffsetRule.UNIVARIATE_ERGODIC)
    with pytest.raises(InvalidParameterError):
        draw_phases(1, -1, g)


def test_sampling_plan_defaults_and_validation():
    g = FrequencyGrid(1, 100, 0.02, OffsetRule.UNIVARIATE_ERGODIC)
    plan = SamplingPlan.for_grid(g)
    assert plan.m_f == 200
    assert plan.delta_t == pytest.approx(2 * np.pi / (200 * 0.02))
    assert plan.delta_t == pytest.approx(1.5708, abs=1e-4)
    assert plan.blocks == g.period_blocks
    assert plan.n_samples * plan.delta_t == pytest.approx(g.fundamental_period)
    SamplingPlan.for_grid(g, m_f=400)  # power-of-two multiple is fine
    with pytest.raises(InvalidParameterError):
        SamplingPlan.for_grid(g, m_f=300)
    with pytest.raises(InvalidParameterError):
        SamplingPlan.for_grid(g, m_f=100)


def test_single_bin_record_is_pure_cosine():
    # one spectral line, zero phases: f(t) = 2 sqrt(c dw) cos(w0 t)
    N, dw, c = 4, 0.5, 2.0
    g = FrequencyGrid(1, N, dw, OffsetRule.UNIVARIATE_ERGODIC)
    s = np.zeros((N, 1, 1), dtype=complex)
    s[0] = c
    S = CrossSpectrum(g, s)
    from srm3.simulate import PhaseSet

    phases = PhaseSet(g, np.zeros((1, N)), seed=0, realization_index=0)
    plan = SamplingPlan.for_grid(g, blocks=1)
    rec = simulate_2nd_order_mv(S, phases, plan)
    w0 = g.oscillator_frequencies[0, 0]
    expected = 2 * np.sqrt(c * dw) * np.cos(w0 * plan.times())
    np.testing.assert_allclose(rec.values[0], expected, atol=1e-12)


def test_record_metadata():
    grid, S, B = collision_free_univariate()
    plan = SamplingPlan.for_grid(grid)
    rec = simulate_3rd_order_uv(S, B, draw_phases(5, 2, grid), plan)
    assert rec.method is Method.THIRD_ORDER_UV
    assert (rec.seed, rec.realization_index) == (5, 2)
    assert rec.n_samples * rec.delta_t == pytest.approx(grid.fundamental_period)
    assert np.all(np.isfinite(rec.values))


def test_uv_requires_single_variate():
    grid, S, B = collision_free_diagonal(2)
    with pytest.raises(UnsupportedConfigurationError):
        simulate_3rd_order_uv(S, B, draw_phases(0, 0, grid))


def test_mismatched_phase_grid_rejected():
    grid, S, B = collision_free_univariate()
    other = FrequencyGrid(1, 8, 0.2, OffsetRule.UNIVARIATE_ERGODIC)
    with pytest.raises(UnsupportedConfigurationError):
        simulate_3rd_order_uv(S, B, draw_phases(0, 0, other))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_ergodic_mean_any_seed(seed):
    grid, S, B = collision_free_univariate()
    rec = simulate_3rd_order_uv(S, B, draw_phases(seed, 0, grid))
    assert abs(temporal_mean(rec, 0)) < 1e-10 * rec.rms(0)


def test_second_order_ensemble_variance():
    # 500 realizations: sample variance within 5 percent of 2 sum(S) dw
    grid, S, _ = coherent_gaussian(2, N=12, rule=OffsetRule.SECOND_ORDER_CLASSIC)
    plan = SamplingPlan.for_grid(grid, blocks=grid.period_blocks)
    total = np.zeros(2)
    R = 500
    for r in range(R):
        rec = simulate_2nd_order_mv(S, draw_phases(31, r, grid), plan)
        total += np.mean(rec.values**2, axis=1)
    estimate = total / R
    target = 2 * np.sum(S.values[:, (0, 1), (0, 1)].real, axis=0) * grid.delta_omega
    np.testing.assert_allclose(estimate, target, rtol=0.05)


def test_third_order_collapses_to_second_on_zero_bispectrum():
    grid, S, _ = coherent_gaussian(3, N=10)
    phases = draw_phases(8, 0, grid)
    plan = SamplingPlan.for_grid(grid, blocks=2)
    second = simulate_2nd_order_mv(S, phases, plan)
    third = simulate_3rd_order_mv(S, zero_bispectrum(grid), phases, plan)
    scale = max(second.rms(a) for a in range(3))
    assert np.abs(third.values - second.values).max() <= 1e-12 * scale


def test_univariate_and_multivariate_paths_agree():
    # one split for every method: at m = 1 the two records are the same bytes
    # (the second target is the README quick start's)
    for (grid, S, B), seed in (
        (collision_free_diagonal(1, N=16), 21),
        (collision_free_univariate(), 1),
    ):
        phases = draw_phases(seed, 0, grid)
        plan = SamplingPlan.for_grid(grid)
        uv = simulate_3rd_order_uv(S, B, phases, plan)
        mv = simulate_3rd_order_mv(S, B, phases, plan)
        assert uv.values.tobytes() == mv.values.tobytes()


def test_scaling_property():
    # S -> c^2 S and B -> c^3 B scales every sample by c
    grid, S, B = collision_free_diagonal(2)
    c = 1.7
    S2 = CrossSpectrum(grid, S.values * c**2)
    B3 = CrossBispectrum(grid, B.values * c**3)
    phases = draw_phases(77, 0, grid)
    plan = SamplingPlan.for_grid(grid, blocks=1)
    base = simulate_3rd_order_mv(S, B, phases, plan)
    scaled = simulate_3rd_order_mv(S2, B3, phases, plan)
    scale = max(base.rms(a) for a in range(2))
    assert np.abs(scaled.values - c * base.values).max() <= 1e-10 * c * scale


def test_phase_shift_invariance_of_temporal_moments():
    # a constant added to one channel's phases leaves full-period moments alone
    from srm3.estimators import temporal_third_moment

    grid, S, B = collision_free_diagonal(2)
    plan = SamplingPlan.for_grid(grid, m_f=4 * grid.N)  # alias-proof averaging
    base_phases = draw_phases(3, 0, grid)
    shifted = np.array(base_phases.phi)
    shifted[1] = (shifted[1] + 1.2345) % (2 * np.pi)
    from srm3.simulate import PhaseSet

    rec0 = simulate_3rd_order_mv(S, B, base_phases, plan)
    rec1 = simulate_3rd_order_mv(S, B, PhaseSet(grid, shifted, 3, 0), plan)
    for a in range(2):
        r0 = temporal_cross_correlation(rec0, a, a, 7, grid)
        r1 = temporal_cross_correlation(rec1, a, a, 7, grid)
        assert r1 == pytest.approx(r0, rel=1e-8)
        t0 = temporal_third_moment(rec0, a, a, a, 0, 0, grid)
        t1 = temporal_third_moment(rec1, a, a, a, 0, 0, grid)
        assert t1 == pytest.approx(t0, rel=1e-8, abs=1e-10 * rec0.rms(a) ** 3)
