"""Frequency grids: offset rules, exact periods, interaction pair sets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srm3.errors import InvalidParameterError
from srm3.grids import FrequencyGrid, OffsetRule


def test_univariate_ergodic_frequencies():
    g = FrequencyGrid(1, 8, 0.5, OffsetRule.UNIVARIATE_ERGODIC)
    expected = (np.arange(8) + 1.0 / 8.0) * 0.5
    np.testing.assert_allclose(g.oscillator_frequencies[0], expected, rtol=0, atol=0)


def test_double_index_frequencies():
    g = FrequencyGrid(2, 4, 1.0, OffsetRule.MULTIVARIATE_DOUBLE_INDEX)
    # channel l (1-based): k + l/(2m) + 1/N
    for l in (1, 2):
        expected = np.arange(4) + l / 4.0 + 0.25
        np.testing.assert_allclose(g.oscillator_frequencies[l - 1], expected)


def test_second_order_classic_frequencies():
    g = FrequencyGrid(3, 5, 0.1, OffsetRule.SECOND_ORDER_CLASSIC)
    for l in (1, 2, 3):
        expected = (np.arange(5) + l / 3.0) * 0.1
        np.testing.assert_allclose(g.oscillator_frequencies[l - 1], expected)


def test_omega_u_and_frequency_bounds():
    for rule, m in [
        (OffsetRule.UNIVARIATE_ERGODIC, 1),
        (OffsetRule.MULTIVARIATE_DOUBLE_INDEX, 3),
        (OffsetRule.SECOND_ORDER_CLASSIC, 3),
    ]:
        g = FrequencyGrid(m, 12, 0.25, rule)
        assert g.omega_u == pytest.approx(12 * 0.25, abs=0)
        freqs = g.oscillator_frequencies
        assert np.all(freqs > 0)
        assert np.all(freqs < g.omega_u + g.delta_omega)


def test_fundamental_period_univariate_reference_value():
    # N = 100, delta_omega = 0.02: one period spans N base blocks
    g = FrequencyGrid(1, 100, 0.02, OffsetRule.UNIVARIATE_ERGODIC)
    assert g.period_blocks == 100
    assert g.fundamental_period == pytest.approx(2 * 100 * math.pi / 0.02)
    assert g.fundamental_period == pytest.approx(31415.9265, abs=1e-3)


def test_fundamental_period_double_index_m2():
    g = FrequencyGrid(2, 16, 0.5, OffsetRule.MULTIVARIATE_DOUBLE_INDEX)
    # offsets l/4 + 1/16 = {5/16, 9/16}: sixteen blocks clear both
    assert g.period_blocks == 16
    assert g.fundamental_period == pytest.approx(16 * 2 * math.pi / 0.5)


def test_fundamental_period_classic_m2():
    g = FrequencyGrid(2, 16, 0.5, OffsetRule.SECOND_ORDER_CLASSIC)
    assert g.period_blocks == 2
    assert g.fundamental_period == pytest.approx(2 * 2 * math.pi / 0.5)


def _lcm_oracle(offsets):
    # least Q with Q*offset integral for every channel, via denominators
    q = 1
    for off in offsets:
        frac = off - math.floor(off)
        if frac:
            q = math.lcm(q, frac.denominator)
    return q


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    N=st.integers(1, 40),
    rule=st.sampled_from(list(OffsetRule)),
)
def test_period_blocks_matches_lcm_oracle_and_clears_every_oscillator(m, N, rule):
    if rule is OffsetRule.UNIVARIATE_ERGODIC:
        m = 1
    g = FrequencyGrid(m, N, 0.3, rule)
    q = g.period_blocks
    assert q == _lcm_oracle(g.channel_offsets)
    for chan in range(m):
        for k in (0, N - 1):
            cycles = q * g.frequency_index(chan, k)
            assert cycles == Fraction(int(cycles))  # exact integer
    # minimality: no smaller block count clears all channels
    for smaller in range(1, q):
        if all(
            (smaller * (off - math.floor(off))).denominator == 1
            for off in g.channel_offsets
        ):
            pytest.fail(f"{smaller} blocks already clear the offsets, {q} reported")


def test_interaction_pairs_cover_triangle():
    g = FrequencyGrid(1, 7, 1.0, OffsetRule.UNIVARIATE_ERGODIC)
    pairs = {tuple(p) for p in g.interaction_pairs()}
    expected = {
        (i, j) for k in range(7) for j in range(1, k) for i in (k - j,) if i >= j
    } | {(i, i) for i in range(1, 4) if 2 * i <= 6}
    assert pairs == expected
    assert all(i >= j >= 1 and i + j <= 6 for i, j in pairs)


def test_interaction_pairs_empty_for_tiny_grids():
    g = FrequencyGrid(1, 2, 1.0, OffsetRule.UNIVARIATE_ERGODIC)
    assert g.interaction_pairs().size == 0


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(0, 4, 0.1)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(1, 0, 0.1)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(1, 4, -1.0)
    with pytest.raises(InvalidParameterError):
        FrequencyGrid(2, 4, 0.1, OffsetRule.UNIVARIATE_ERGODIC)
