"""The wind demonstration model: closed forms and published statistics."""

import math

import numpy as np
import pytest

from srm3.errors import InfeasibleBispectrumError, UnsupportedConfigurationError
from srm3.estimators import build_terms
from srm3.pure import compute_pure_multivariate
from srm3.simulate import Method
from srm3.spectra import validate_bispectrum, validate_spectrum
from srm3.wind import (
    TABLE_SECOND_ORDER,
    TABLE_THIRD_ORDER,
    build_example_targets,
    example_coherence,
    example_grid,
    example_psd,
)
from srm3.workbench import zero_lag_third_target


def test_numeric_model_reference_values():
    assert example_psd(0, 0.0) == pytest.approx(38.3)
    assert example_psd(1, 0.0) == pytest.approx(43.3)
    assert example_psd(2, 0.0) == pytest.approx(135.0)
    # two-point coherence at 1 rad/s
    assert example_coherence(0, 1, 1.0) == pytest.approx(math.exp(-0.1757))
    assert example_coherence(0, 1, 1.0) == pytest.approx(0.83887, abs=5e-6)
    # cross-spectrum value at w -> 0: sqrt(38.3 * 43.3)
    assert math.sqrt(example_psd(0, 0.0) * example_psd(1, 0.0)) == pytest.approx(
        40.72, abs=5e-3
    )


def test_coherences_and_bicoherence_factors_in_unit_interval():
    w = np.linspace(0.0, 4.0, 500)
    for j in range(3):
        for k in range(j + 1, 3):
            coh = example_coherence(j, k, w)
            assert np.all(coh > 0) and np.all(coh <= 1.0)
    from srm3.wind import CROSS_BISPECTRUM_RECIPE

    s = np.linspace(0.0, 8.0, 500)
    for _, decay in CROSS_BISPECTRUM_RECIPE.values():
        factor = np.exp(-decay * s)
        assert np.all(factor > 0) and np.all(factor <= 1.0)


def test_builder_requires_three_variates():
    from srm3.grids import FrequencyGrid

    with pytest.raises(UnsupportedConfigurationError):
        build_example_targets(FrequencyGrid(2, 10, 0.2))


def test_builder_output_validates():
    grid = example_grid(N=24)
    S, B = build_example_targets(grid)
    assert validate_spectrum(S).ok
    assert validate_bispectrum(B).ok


def test_zero_cross_bicoherence_zeroes_mixed_entries():
    grid = example_grid(N=10)
    _, B = build_example_targets(grid, cross_scale=0.0)
    for a in range(3):
        for l in range(3):
            for n in range(3):
                block = B.values[:, :, a, l, n]
                if a == l == n:
                    assert np.all(block.real > 0)
                else:
                    assert not np.any(block)


def test_published_second_order_targets_reproduced():
    grid = example_grid()
    S, _ = build_example_targets(grid)
    dw = grid.delta_omega
    for (a, b), published in TABLE_SECOND_ORDER.items():
        mine = 2.0 * np.sum(S.values[:, a, b].real) * dw
        assert mine == pytest.approx(published, rel=1.5e-3), (a, b)


def test_published_third_order_targets_reproduced():
    grid = example_grid()
    _, B = build_example_targets(grid)
    for (a, b, c), published in TABLE_THIRD_ORDER.items():
        mine = zero_lag_third_target(B, a, b, c)
        assert mine == pytest.approx(published, rel=5e-3), (a, b, c)


def test_published_bispectrum_scale_is_unrealizable():
    """The full-scale bispectral target demands more interaction energy at
    low frequency than the prescribed spectrum holds; synthesis must refuse
    it rather than silently alter the second-order target."""
    grid = example_grid()
    S, B = build_example_targets(grid)
    with pytest.raises(InfeasibleBispectrumError) as excinfo:
        compute_pure_multivariate(S, B)
    assert excinfo.value.bin_index == 2


def test_scaled_wind_targets_are_feasible_and_consistent():
    from srm3.spectra import CrossBispectrum

    grid = example_grid()
    S, B = build_example_targets(grid)
    small = CrossBispectrum(grid, B.values * 0.04)
    terms = build_terms(S, small, Method.THIRD_ORDER_MV)
    dw = grid.delta_omega
    # synthesized second moments meet the prescribed spectrum exactly
    for a in range(3):
        prescribed = 2.0 * np.sum(S.values[:, a, a].real) * dw
        assert terms.target_second(a, a, 0.0) == pytest.approx(prescribed, rel=1e-12)
    # exact third moments track the plain bispectrum sum; the small gap is
    # the equal-bin channel-pair coherence absent from the plain sum
    for (a, b, c) in ((0, 0, 0), (0, 1, 2)):
        assert terms.target_third(a, b, c, 0.0, 0.0) == pytest.approx(
            0.04 * zero_lag_third_target(B, a, b, c), rel=0.05
        )
