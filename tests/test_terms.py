"""Cosine term sets: coefficients, targets, collision detection."""

from fractions import Fraction

import numpy as np
import pytest

from srm3.estimators import build_terms
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.pure import compute_pure_multivariate
from srm3.simulate import Method
from srm3.spectra import CrossBispectrum, CrossSpectrum, zero_bispectrum
from srm3.terms import build_second_order_terms, build_third_order_terms
from srm3.wind import build_example_targets, example_grid

from _targets import (
    brute_force_univariate,
    coherent_gaussian,
    collision_free_diagonal,
    collision_free_univariate,
    coupled_third_order,
)


def _oracle_pure(grid, S, B):
    s_p, violated = brute_force_univariate(
        S.values[:, 0, 0].real, B.values[:, :, 0, 0, 0], grid.delta_omega
    )
    assert violated is None
    return s_p


def test_linear_coefficients_univariate():
    # m = 1: linear amplitude is 2 sqrt(S_p dw), real positive
    grid, S, B = collision_free_univariate()
    terms = build_third_order_terms(compute_pure_multivariate(S, B), B)
    assert terms.n_linear == grid.N
    expected = 2.0 * np.sqrt(_oracle_pure(grid, S, B) * grid.delta_omega)
    np.testing.assert_allclose(terms.lin_coef[0].real, expected, atol=1e-15)
    np.testing.assert_allclose(terms.lin_coef[0].imag, 0, atol=1e-15)


def test_interaction_coefficients_univariate():
    grid, S, B = collision_free_univariate()
    terms = build_third_order_terms(compute_pure_multivariate(S, B), B)
    dw = grid.delta_omega
    s_p = _oracle_pure(grid, S, B)
    # one term per stored pair; amplitude 2 |B| dw / sqrt(S_p S_p), phase -beta
    by_pair = {
        (int(i), int(j)): terms.int_coef[0, t]
        for t, (i, j) in enumerate(zip(terms.int_i, terms.int_j))
    }
    assert set(by_pair) == {(4, 4), (5, 4)}
    for (i, j), coef in by_pair.items():
        b = B.values[i, j, 0, 0, 0]
        expected = 2.0 * dw * np.conj(b) / np.sqrt(s_p[i] * s_p[j])
        assert coef == pytest.approx(expected, rel=1e-12)


def test_zero_bispectrum_gives_linear_only():
    grid, S, B = collision_free_univariate()
    terms = build_terms(S, zero_bispectrum(grid), Method.THIRD_ORDER_MV)
    assert terms.n_interaction == 0


@pytest.mark.parametrize(
    "targets",
    [lambda: build_example_targets(example_grid(N=100)), lambda: coherent_gaussian(3)[1:]],
    ids=["wind N=100", "complex S"],
)
def test_second_order_terms_equal_zero_bispectrum_split(targets):
    # build_terms skips the split without an interaction pair; it must not matter
    S, _ = targets()
    zero = zero_bispectrum(S.grid)
    split = build_third_order_terms(compute_pure_multivariate(S, zero), zero)
    for terms in (build_terms(S, method=Method.SECOND_ORDER), build_terms(S, zero)):
        assert terms.lin_coef.tobytes() == split.lin_coef.tobytes()
        assert terms.n_interaction == split.n_interaction == 0


def test_second_order_terms_draw_from_full_spectrum():
    grid, S, _ = collision_free_univariate()
    terms = build_second_order_terms(S)
    expected = 2.0 * np.sqrt(S.values[:, 0, 0].real * grid.delta_omega)
    np.testing.assert_allclose(terms.lin_coef[0].real, expected, atol=1e-15)


def test_constant_spectrum_variance_target():
    # 2 s N dw at zero lag
    N, dw, s = 8, 0.25, 1.7
    grid = FrequencyGrid(1, N, dw, OffsetRule.UNIVARIATE_ERGODIC)
    S = CrossSpectrum(grid, np.full((N, 1, 1), s, dtype=complex))
    terms = build_second_order_terms(S)
    assert terms.target_second(0, 0, 0.0) == pytest.approx(2 * s * N * dw, rel=1e-14)


def test_single_pair_third_moment_target():
    # a single real entry b at (i0, j0), i0 != j0: 6 * 2 * b * dw^2 at zero lag
    N, dw, b = 12, 0.3, 0.4
    grid = FrequencyGrid(1, N, dw, OffsetRule.UNIVARIATE_ERGODIC)
    s = np.ones((N, 1, 1), dtype=complex)
    vals = np.zeros((N, N, 1, 1, 1), dtype=complex)
    vals[5, 3] = b
    vals[3, 5] = b
    S, B = CrossSpectrum(grid, s), CrossBispectrum(grid, vals)
    terms = build_terms(S, B, Method.THIRD_ORDER_UV)
    assert terms.target_third(0, 0, 0, 0.0, 0.0) == pytest.approx(
        12 * b * dw**2, rel=1e-12
    )
    # and for a diagonal pair the ordered-sum weight is one
    vals = np.zeros((N, N, 1, 1, 1), dtype=complex)
    vals[4, 4] = b
    B = CrossBispectrum(grid, vals)
    terms = build_terms(S, B, Method.THIRD_ORDER_UV)
    assert terms.target_third(0, 0, 0, 0.0, 0.0) == pytest.approx(
        6 * b * dw**2, rel=1e-12
    )


def test_third_moment_lag_structure_univariate():
    """At nonzero lags the six slot placements carry distinct phases."""
    grid, S, B = collision_free_univariate()
    terms = build_terms(S, B, Method.THIRD_ORDER_UV)
    osc = grid.oscillator_frequencies[0]
    dw = grid.delta_omega

    def oracle(t1, t2):
        total = 0.0
        for (i, j) in ((4, 4), (5, 4)):
            bij = B.values[i, j, 0, 0, 0]
            amp = abs(bij) * dw**2
            beta = np.angle(bij)
            weight = 1.0 if i == j else 2.0
            ni, nj, ns = osc[i], osc[j], osc[i] + osc[j]
            fams = [
                np.cos(ni * t1 + nj * t2 + beta) + np.cos(nj * t1 + ni * t2 + beta),
                np.cos(ns * t1 - nj * t2 - beta) + np.cos(ns * t1 - ni * t2 - beta),
                np.cos(ns * t2 - nj * t1 - beta) + np.cos(ns * t2 - ni * t1 - beta),
            ]
            total += weight * amp * sum(fams)
        return total

    for t1, t2 in ((0.0, 0.0), (0.7, 0.0), (1.3, 2.9)):
        assert terms.target_third(0, 0, 0, t1, t2) == pytest.approx(
            oracle(t1, t2), rel=1e-10, abs=1e-12
        )


def test_collision_detection():
    grid, S, B = collision_free_univariate()
    assert build_terms(S, B, Method.THIRD_ORDER_UV).resonant_collisions() == []
    for m in (2, 3):
        g, S, B = collision_free_diagonal(m, N=16 if m == 2 else 12)
        assert build_terms(S, B, Method.THIRD_ORDER_MV).resonant_collisions() == []
    # a full spectrum with interactions collides: some bin sum has two splits
    g, S, B = coupled_third_order()
    assert build_terms(S, B, Method.THIRD_ORDER_MV).resonant_collisions()


def test_triple_resonance_detection():
    # classic offsets admit zero-sum triples (e.g. channel fractions
    # 1/m + 2/m = 3/m); the suite fixtures and double-index rules do not
    from srm3.grids import OffsetRule
    from srm3.terms import build_second_order_terms

    g = FrequencyGrid(3, 12, 0.5, OffsetRule.SECOND_ORDER_CLASSIC)
    w = g.sample_frequencies
    s = np.zeros((12, 3, 3), dtype=complex)
    for a in range(3):
        s[:, a, a] = 1.0 / (1 + w)
    terms = build_second_order_terms(CrossSpectrum(g, s))
    assert terms.resonant_collisions() == []
    assert terms.triple_resonances()  # e.g. (l=1,k) + (l=2,k') = (l=3,k'')

    grid, S, B = collision_free_univariate()
    t = build_terms(S, B, Method.THIRD_ORDER_UV)
    assert t.triple_resonances() == []
    assert t.triple_resonances(limit=1) is None  # over budget: unknown


def test_term_frequencies_are_exact_rationals():
    grid, S, B = collision_free_univariate()
    terms = build_terms(S, B, Method.THIRD_ORDER_UV)
    for t in range(terms.n_interaction):
        fidx = Fraction(int(terms.freq[terms.n_linear + t]), grid.period_blocks)
        assert fidx == _int_frequency(terms, t)
        i, j = int(terms.int_i[t]), int(terms.int_j[t])
        assert fidx == i + j + 2 * grid.channel_offsets[0]


# ----------------------------------------------------------------------
# grouped phase keys against a Fraction/dict oracle
# ----------------------------------------------------------------------


def _int_frequency(terms, t):
    """Exact frequency of interaction term ``t`` from the grid's own offsets."""
    g = terms.grid
    return g.frequency_index(int(terms.int_p[t]), int(terms.int_i[t])) + g.frequency_index(
        int(terms.int_q[t]), int(terms.int_j[t])
    )


def _oracle_groups(terms):
    """``{key: (Fraction frequency, summed coef)}`` in order of first term."""
    g = terms.grid
    groups = {}
    for t in range(terms.n_linear):
        p, k = int(terms.lin_chan[t]), int(terms.lin_bin[t])
        groups[((p, k),)] = (g.frequency_index(p, k), terms.lin_coef[:, t].copy())
    for t in range(terms.n_interaction):
        u = (int(terms.int_p[t]), int(terms.int_i[t]))
        v = (int(terms.int_q[t]), int(terms.int_j[t]))
        key = tuple(sorted((u, v)))
        if key in groups:
            groups[key][1][:] += terms.int_coef[:, t]
        else:
            groups[key] = (_int_frequency(terms, t), terms.int_coef[:, t].copy())
    return groups


def _oracle_collisions(groups):
    by_freq = {}
    for key, (fidx, coef) in groups.items():
        if np.any(coef):
            by_freq.setdefault(fidx, []).append(key)
    return sorted((f, sorted(keys)) for f, keys in by_freq.items() if len(keys) > 1)


def _oracle_triples(groups):
    active = [(f, key) for key, (f, coef) in groups.items() if np.any(coef)]
    by_freq = {}
    for f, key in active:
        by_freq.setdefault(f, []).append(key)
    out = []
    for i, (fa, ka) in enumerate(active):
        for fb, kb in active[i:]:
            merged = tuple(sorted(ka + kb))
            out += [(ka, kb, kc) for kc in by_freq.get(fa + fb, ()) if kc != merged]
    return sorted(out)


def _classic_second_order():
    g = FrequencyGrid(3, 12, 0.5, OffsetRule.SECOND_ORDER_CLASSIC)
    s = np.zeros((12, 3, 3), dtype=complex)
    for a in range(3):
        s[:, a, a] = 1.0 / (1 + g.sample_frequencies)
    return build_second_order_terms(CrossSpectrum(g, s))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_terms(*collision_free_univariate()[1:], Method.THIRD_ORDER_UV),
        lambda: build_terms(*coupled_third_order()[1:], Method.THIRD_ORDER_MV),
        lambda: build_terms(*coupled_third_order(m=3, N=10)[1:], Method.THIRD_ORDER_MV),
        _classic_second_order,
    ],
)
def test_grouped_keys_match_fraction_oracle(make):
    terms = make()
    groups = _oracle_groups(terms)
    cache = terms.phase_groups()
    assert [terms._key(k) for k in cache.keys] == list(groups)
    for code, freq, coef in zip(cache.keys, cache.freq, cache.coef.T):
        fidx, want = groups[terms._key(code)]
        assert Fraction(int(freq), cache.denominator) == fidx
        assert np.array_equal(coef, want)
    assert terms.resonant_collisions() == _oracle_collisions(groups)
    assert terms.triple_resonances() == _oracle_triples(groups)
    dw = terms.grid.delta_omega
    for a, b, tau in ((0, 0, 0.0), (0, terms.m - 1, 0.7)):
        want = sum(
            0.5 * (c[a] * np.conj(c[b]) * np.exp(-1j * float(f) * dw * tau)).real
            for f, c in groups.values()
        )
        assert terms.target_second(a, b, tau) == pytest.approx(want, rel=1e-13, abs=1e-15)
