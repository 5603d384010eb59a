"""Pure/interaction split: recursion values, feasibility, reductions."""

import numpy as np
import pytest

from srm3.errors import InfeasibleBispectrumError, SingularPureSpectrumError
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.pure import compute_pure_multivariate
from srm3.spectra import CrossBispectrum, CrossSpectrum, zero_bispectrum

from _targets import (
    brute_force_univariate,
    collision_free_diagonal,
    collision_free_univariate,
    coupled_third_order,
    univariate_target,
)


def test_zero_bispectrum_keeps_spectrum():
    grid, S, _ = univariate_target(6, [1, 2, 3, 4, 5, 6], {})
    pure = compute_pure_multivariate(S, zero_bispectrum(grid))
    np.testing.assert_array_equal(pure.S_p, S.values)
    assert not np.any(pure.S_I)


def test_hand_recursion_single_pair():
    # S = 1 everywhere, one bispectral entry feeding bin 2: only bin 2 changes
    b = 0.8
    grid, S, B = univariate_target(4, [1.0] * 4, {(1, 1): b})
    pure = compute_pure_multivariate(S, B)
    s_p = pure.S_p[:, 0, 0].real
    dw = grid.delta_omega
    np.testing.assert_allclose(s_p, [1.0, 1.0, 1.0 - b**2 * dw, 1.0], atol=1e-15)


def test_recursion_matches_brute_force_oracle():
    grid, S, B = collision_free_univariate()
    pure = compute_pure_multivariate(S, B)
    oracle, violated = brute_force_univariate(
        S.values[:, 0, 0].real, B.values[:, :, 0, 0, 0], grid.delta_omega
    )
    assert violated is None
    np.testing.assert_allclose(pure.S_p[:, 0, 0].real, oracle, rtol=1e-14, atol=1e-16)


def test_infeasible_bispectrum_raises_at_first_bad_bin():
    b = 2.4  # 1 - b^2 * dw < 0 for dw = 0.5
    grid, S, B = univariate_target(6, [1.0] * 6, {(1, 1): b})
    with pytest.raises(InfeasibleBispectrumError) as excinfo:
        compute_pure_multivariate(S, B)
    oracle, violated = brute_force_univariate(
        S.values[:, 0, 0].real, B.values[:, :, 0, 0, 0], grid.delta_omega
    )
    assert excinfo.value.bin_index == violated == 2
    assert excinfo.value.deficit == pytest.approx(-oracle[2], rel=1e-12)


def test_zero_source_bin_with_demand_raises():
    grid, S, B = univariate_target(6, [1.0, 0.0, 1.0, 1.0, 1.0, 1.0], {(2, 1): 0.5})
    with pytest.raises(SingularPureSpectrumError) as excinfo:
        compute_pure_multivariate(S, B)
    assert excinfo.value.bin_index == 1
    assert isinstance(excinfo.value, InfeasibleBispectrumError)


def test_multivariate_reduces_to_univariate():
    # m = 1 on the multivariate-rule grid: the split is the scalar recursion
    grid, S, B = collision_free_diagonal(1, N=16)
    s = S.values[:, 0, 0].real
    oracle, violated = brute_force_univariate(s, B.values[:, :, 0, 0, 0], grid.delta_omega)
    assert violated is None
    mv = compute_pure_multivariate(S, B)
    np.testing.assert_allclose(mv.S_p[:, 0, 0], oracle, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(mv.S_I[:, 0, 0], s - oracle, rtol=1e-12, atol=1e-15)


def test_multivariate_correction_matches_nested_loop_oracle():
    # one nonzero tensor at one pair: compare against an index-by-index loop
    m, N, dw = 2, 6, 0.4
    grid = FrequencyGrid(m, N, dw)
    s = np.tile(np.array([[2.0, 0.3], [0.3, 1.5]], dtype=complex), (N, 1, 1))
    S = CrossSpectrum(grid, s)
    rng = np.random.default_rng(7)
    tensor = rng.normal(size=(m, m, m)) + 1j * rng.normal(size=(m, m, m))
    b = np.zeros((N, N, m, m, m), dtype=complex)
    b[3, 2] = tensor
    b[2, 3] = np.conj(tensor)
    B = CrossBispectrum(grid, b)

    pure = compute_pure_multivariate(S, B)

    W = np.linalg.inv(s[0])  # S_p = S at the source bins 2 and 3
    corr = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for bb in range(m):
            for e in range(m):
                for f in range(m):
                    for g in range(m):
                        for h in range(m):
                            corr[a, bb] += (
                                tensor[a, e, f]
                                * W[e, g]
                                * W[f, h]
                                * np.conj(tensor[bb, g, h])
                            )
    expected = s[5] - corr * dw
    np.testing.assert_allclose(pure.S_p[5], expected, rtol=1e-12, atol=1e-14)
    scale = np.linalg.norm(corr)
    assert np.linalg.norm(corr - np.conj(corr.T)) < 1e-12 * scale


def test_partition_is_exact_and_diagonal_monotone():
    grid, S, B = coupled_third_order()
    pure = compute_pure_multivariate(S, B)
    np.testing.assert_allclose(
        pure.S_p + pure.S_I, S.values, rtol=1e-15, atol=1e-18
    )
    for a in range(S.m):
        assert np.all(pure.S_p[:, a, a].real <= S.values[:, a, a].real + 1e-15)
        assert np.all(pure.S_I[:, a, a].real >= -1e-15)


def test_multivariate_infeasibility_is_hard_error():
    grid, S, B = coupled_third_order()
    big = CrossBispectrum(grid, B.values * 100.0)
    with pytest.raises(InfeasibleBispectrumError) as excinfo:
        compute_pure_multivariate(S, big)
    assert excinfo.value.bin_index is not None
    assert excinfo.value.deficit > 0
