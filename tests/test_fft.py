"""Offset-channel FFT synthesis: channel structure and exact equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srm3.errors import CoefficientOverflowError
from srm3.estimators import build_terms
from srm3.fft import (
    OffsetChannels,
    _rotations,
    assemble_coefficients,
    simulate_3rd_order_mv_fft,
    synthesize_fft,
)
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.simulate import (
    Method,
    PhaseSet,
    SamplingPlan,
    draw_phases,
    synthesize_direct,
)
from srm3.spectra import CrossSpectrum
from srm3.terms import TermSet

from _targets import (
    collision_free_diagonal,
    collision_free_univariate,
    coherent_gaussian,
    coupled_third_order,
)


def test_single_coefficient_is_pure_cosine():
    N, dw = 8, 0.5
    g = FrequencyGrid(1, N, dw, OffsetRule.UNIVARIATE_ERGODIC)
    s = np.zeros((N, 1, 1), dtype=complex)
    s[3] = 1.25
    S = CrossSpectrum(g, s)
    terms = build_terms(S, method=Method.SECOND_ORDER)
    phases = PhaseSet(g, np.full((1, N), 0.4), seed=0, realization_index=0)
    plan = SamplingPlan.for_grid(g, blocks=g.period_blocks)
    channels = assemble_coefficients(terms, phases, plan.m_f)
    assert len(channels) == 1
    out = synthesize_fft(channels, g, plan)
    w = g.oscillator_frequencies[0, 3]
    expected = 2 * np.sqrt(1.25 * dw) * np.cos(w * plan.times() + 0.4)
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_channel_offsets_match_enumeration_m2():
    # m = 2: linear channels at l/4 + 1/N; interaction channels at
    # {1/2 + 2/N, 3/4 + 2/N, 1 + 2/N} (the last carries into the index)
    grid, S, B = coupled_third_order(m=2, N=16)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    channels = assemble_coefficients(terms, draw_phases(0, 0, grid), 2 * grid.N)
    N = Fraction(1, grid.N)
    offsets = {ch.offset for ch in channels}
    expected = {
        Fraction(1, 4) + N,
        Fraction(2, 4) + N,
        Fraction(2, 4) + 2 * N,
        Fraction(3, 4) + 2 * N,
        Fraction(0) + 2 * N,  # offset 1 + 2/N wraps one unit into the index
    }
    assert offsets == expected


def test_term_count_conservation():
    grid, S, B = coupled_third_order(m=2, N=16)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    channels = assemble_coefficients(terms, draw_phases(3, 0, grid), 2 * grid.N)
    assert sum(ch.n_terms for ch in channels) == terms.n_linear + terms.n_interaction


def test_aliasing_guard():
    grid, S, B = coupled_third_order(m=2, N=16)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    channels = assemble_coefficients(terms, draw_phases(1, 0, grid), 2 * grid.N)
    top = max(
        int(np.nonzero(np.any(ch.C != 0, axis=0))[0].max()) for ch in channels
    )
    assert top < 2 * grid.N


def test_overflow_error_when_block_too_short():
    grid, S, B = coupled_third_order(m=2, N=16)
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    with pytest.raises(CoefficientOverflowError):
        assemble_coefficients(terms, draw_phases(1, 0, grid), grid.N // 2)


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize(
    "maker",
    [
        lambda: collision_free_univariate(),
        lambda: collision_free_diagonal(2),
        lambda: collision_free_diagonal(3, N=12),
        lambda: coupled_third_order(m=2, N=16),
        lambda: coherent_gaussian(3, N=12),
    ],
)
def test_fft_equals_direct(maker, seed):
    grid, S, B = maker()
    terms = build_terms(S, B, Method.THIRD_ORDER_MV)
    phases = draw_phases(seed, 0, grid)
    plan = SamplingPlan.for_grid(grid)  # full fundamental period
    direct = synthesize_direct(terms, phases, plan)
    via_fft = synthesize_fft(
        assemble_coefficients(terms, phases, plan.m_f), grid, plan
    )
    rms = max(np.sqrt(np.mean(direct**2, axis=1)).max(), 1e-300)
    assert np.abs(direct - via_fft).max() <= 1e-8 * rms


def test_fft_record_wrapper_matches_direct_simulator():
    grid, S, B = collision_free_diagonal(2)
    phases = draw_phases(11, 4, grid)
    plan = SamplingPlan.for_grid(grid, blocks=3)
    direct = synthesize_direct(build_terms(S, B, Method.THIRD_ORDER_MV), phases, plan)
    fast = simulate_3rd_order_mv_fft(S, B, phases, plan)
    rms = np.sqrt(np.mean(direct**2, axis=1)).max()
    assert np.abs(direct - fast.values).max() <= 1e-8 * rms
    assert fast.method is Method.THIRD_ORDER_MV_FFT
    assert (fast.seed, fast.realization_index) == (11, 4)


def test_cost_scaling_favours_fft():
    """Doubling N grows the FFT path's runtime by less than the direct path's."""
    import time

    from srm3.pure import compute_pure_multivariate
    from srm3.terms import build_third_order_terms
    from srm3.workbench import synthetic_bench_targets

    def runtimes(N):
        S, B = synthetic_bench_targets(N, 2)
        terms = build_third_order_terms(compute_pure_multivariate(S, B), B)
        plan = SamplingPlan.for_grid(S.grid, blocks=1)
        phases = draw_phases(0, 0, S.grid)
        direct = fft = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            synthesize_direct(terms, phases, plan)
            direct = min(direct, time.perf_counter() - t0)
            t0 = time.perf_counter()
            synthesize_fft(assemble_coefficients(terms, phases, plan.m_f), S.grid, plan)
            fft = min(fft, time.perf_counter() - t0)
        return direct, fft

    d1, f1 = runtimes(128)
    d2, f2 = runtimes(256)
    assert f2 / f1 < d2 / d1


def test_block_continuation_joins_smoothly():
    # multi-block synthesis must equal one continuous evaluation, not a
    # restarted per-block one: check a sample deep inside the record
    grid, S, B = collision_free_univariate()
    phases = draw_phases(2, 0, grid)
    plan = SamplingPlan.for_grid(grid)
    terms = build_terms(S, B, Method.THIRD_ORDER_UV)
    out = synthesize_fft(assemble_coefficients(terms, phases, plan.m_f), grid, plan)
    r = plan.m_f + 3  # second block
    t = r * plan.delta_t
    phi = phases.phi

    def nu(*slots):  # exact oscillator frequency of a (channel, bin) multiset
        return float(sum(grid.frequency_index(int(p), int(k)) for p, k in slots)) * grid.delta_omega

    direct_value = 0.0
    for tt in range(terms.n_linear):
        c = terms.lin_coef[0, tt] * np.exp(1j * phi[0, terms.lin_bin[tt]])
        direct_value += (c * np.exp(1j * nu((terms.lin_chan[tt], terms.lin_bin[tt])) * t)).real
    for tt in range(terms.n_interaction):
        ang = phi[0, terms.int_i[tt]] + phi[0, terms.int_j[tt]]
        c = terms.int_coef[0, tt] * np.exp(1j * ang)
        u = (terms.int_p[tt], terms.int_i[tt])
        v = (terms.int_q[tt], terms.int_j[tt])
        direct_value += (c * np.exp(1j * nu(u, v) * t)).real
    assert out[0, r] == pytest.approx(direct_value, rel=1e-10, abs=1e-12)


# ----------------------------------------------------------------------
# the integer frequency layout against a Fraction oracle
# ----------------------------------------------------------------------


def _full_terms(grid, channels):
    """Every slot and every interaction pair of ``channels``, on every pair of them.

    The layout depends only on which (channel, bin) slots a term draws on,
    so the coefficients are left at zero.  A channel subset leaves residues
    unpopulated, which can shorten the mixing period below ``Q``.
    """
    m, N, n = grid.m, grid.N, len(channels)
    chan = np.array(sorted(channels))
    pairs = grid.interaction_pairs()
    p, q = (a.ravel() for a in np.meshgrid(chan, chan, indexing="ij"))
    n_int = len(pairs) * n * n
    return TermSet(
        grid,
        np.tile(chan, N),
        np.repeat(np.arange(N), n),
        np.zeros((m, n * N), dtype=complex),
        np.tile(p, len(pairs)),
        np.tile(q, len(pairs)),
        np.repeat(pairs[:, 0], n * n),
        np.repeat(pairs[:, 1], n * n),
        np.zeros((m, n_int), dtype=complex),
    )


@st.composite
def layout_cases(draw):
    m = draw(st.integers(1, 4))
    rules = [OffsetRule.MULTIVARIATE_DOUBLE_INDEX, OffsetRule.SECOND_ORDER_CLASSIC]
    if m == 1:
        rules.append(OffsetRule.UNIVARIATE_ERGODIC)
    rule = draw(st.sampled_from(rules))
    N = draw(st.integers(1, 12))
    channels = draw(st.sets(st.integers(0, m - 1), min_size=1))
    blocks = draw(st.integers(1, 2 * N * m + 1))
    return FrequencyGrid(m, N, 0.3, rule), channels, blocks


@settings(max_examples=80, deadline=None)
@given(layout_cases())
def test_integer_layout_matches_fraction_oracle(case):
    grid, channels, blocks = case
    terms = _full_terms(grid, channels)
    Q, m_f = grid.period_blocks, 2 * grid.N + 2
    slots = [((int(p), int(k)),) for p, k in zip(terms.lin_chan, terms.lin_bin)]
    slots += [
        ((int(p), int(i)), (int(q), int(j)))
        for p, q, i, j in zip(terms.int_p, terms.int_q, terms.int_i, terms.int_j)
    ]
    exact = [sum(grid.frequency_index(c, k) for c, k in s) for s in slots]
    assert terms.freq.tolist() == [f * Q for f in exact]  # int == Fraction only if integral

    frac = [f - math.floor(f) for f in exact]
    offsets = sorted(set(frac))
    layout = OffsetChannels(terms, m_f)
    assert [Fraction(int(r), Q) for r in layout.residues] == offsets
    expected = [offsets.index(x) * m_f + math.floor(f) for x, f in zip(frac, exact)]
    assert layout.scatter.tolist() == expected

    period = math.lcm(*(x.denominator for x in offsets))
    inner, mix = _rotations(layout.residues, Q, m_f, blocks)
    assert mix.shape == (min(blocks, period), 2 * len(offsets))
    assert inner.shape == (len(offsets), m_f)
