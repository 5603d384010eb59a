"""Turbulent-wind demonstration targets at three heights of a vertical profile.

A fixed three-variate numeric model (heights 35 m, 40 m, 140 m) whose
published ensemble statistics this package reproduces; see
:data:`TABLE_SECOND_ORDER` and :data:`TABLE_THIRD_ORDER` for those reference
values, and :func:`build_example_targets` for the targets on a grid.

The numeric model's closed forms all decay algebraically or exponentially in
frequency (or frequency sum), and every tabulated target is attached to its
grid bin at the bin's upper-edge frequency ``(k+1) * delta_omega``; the
reference statistics are discrete sums over exactly that sampling.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedConfigurationError
from .grids import FrequencyGrid
from .spectra import CrossBispectrum, CrossSpectrum

#: Heights above ground of the three profile points, in meters.
HEIGHTS = (35.0, 40.0, 140.0)

#: Algebraic-decay coefficients of the three single-point spectra.
PSD_AMPLITUDE = (38.3, 43.3, 135.0)
PSD_DECAY = (6.19, 6.98, 21.8)

#: Exponential decay rates of the two-point coherences, per rad/s.
COHERENCE_DECAY = {(0, 1): 0.1757, (0, 2): 3.478, (1, 2): 3.292}

#: Amplitude shared by the three single-point bispectra.
BISPECTRUM_AMPLITUDE = 50.0

#: Cross-bispectrum recipe per unordered variate triple (0-based): the
#: algebraic part is the geometric mean of three single-point factors with
#: the listed decay coefficients, times an exponential in the frequency sum.
#: The recipe reproduces the model's published third-order statistics.
CROSS_BISPECTRUM_RECIPE = {
    (0, 1, 1): ((6.19, 6.19, 6.98), 0.171),
    (0, 2, 2): ((6.19, 6.98, 6.98), 0.357),
    (0, 0, 1): ((6.19, 6.19, 21.8), 1.287),
    (1, 2, 2): ((6.19, 21.8, 21.8), 1.589),
    (0, 0, 2): ((6.98, 6.98, 21.8), 2.659),
    (1, 1, 2): ((6.98, 21.8, 21.8), 2.775),
    (0, 1, 2): ((6.19, 6.98, 21.8), 3.473),
}

#: Published ensemble second moments E[f_a f_b] of the model (targets).
TABLE_SECOND_ORDER = {
    (0, 0): 14.539, (1, 1): 14.722, (2, 2): 14.723,
    (0, 1): 13.698, (0, 2): 7.628, (1, 2): 8.005,
}

#: Published ensemble third moments E[f_a f_b f_c] of the model (targets).
TABLE_THIRD_ORDER = {
    (0, 0, 0): 4.801, (1, 1, 1): 3.825, (2, 2, 2): 0.368,
    (0, 1, 1): 3.939, (0, 2, 2): 3.231, (0, 0, 1): 0.981,
    (1, 2, 2): 0.391, (0, 0, 2): 0.513, (1, 1, 2): 0.247,
    (0, 1, 2): 0.425,
}


def example_psd(j: int, omega) -> np.ndarray:
    """Single-point spectrum ``S_jj`` of the numeric model (0-based variate)."""
    omega = np.asarray(omega, dtype=float)
    return PSD_AMPLITUDE[j] / (1.0 + PSD_DECAY[j] * omega) ** (5.0 / 3.0)


def example_coherence(j: int, k: int, omega) -> np.ndarray:
    """Two-point coherence ``gamma_jk`` of the numeric model, in (0, 1]."""
    omega = np.asarray(omega, dtype=float)
    if j == k:
        return np.ones_like(omega)
    return np.exp(-COHERENCE_DECAY[(min(j, k), max(j, k))] * omega)


def example_bispectrum_diagonal(j: int, freq_sum) -> np.ndarray:
    """Single-point bispectrum ``B_jjj`` as a function of ``w1 + w2``."""
    s = np.asarray(freq_sum, dtype=float)
    return BISPECTRUM_AMPLITUDE / (1.0 + PSD_DECAY[j] * s) ** 2.5


def example_bispectrum(triple: tuple[int, int, int], freq_sum) -> np.ndarray:
    """Bispectrum tensor entry for any variate triple, from the recipe."""
    key = tuple(sorted(triple))
    s = np.asarray(freq_sum, dtype=float)
    if key[0] == key[1] == key[2]:
        return example_bispectrum_diagonal(key[0], s)
    betas, decay = CROSS_BISPECTRUM_RECIPE[key]
    alg = BISPECTRUM_AMPLITUDE
    for b in betas:
        alg = alg / (1.0 + b * s) ** (2.5 / 3.0)
    return alg * np.exp(-decay * s)


def build_example_targets(
    grid: FrequencyGrid, cross_scale: float = 1.0
) -> tuple[CrossSpectrum, CrossBispectrum]:
    """Tabulate the three-point wind model on ``grid``.

    ``cross_scale`` multiplies every cross (mixed-index) bispectrum entry;
    zero keeps only the three single-point bispectra.

    Raises
    ------
    UnsupportedConfigurationError
        If the grid is not three-variate.
    """
    if grid.m != 3:
        raise UnsupportedConfigurationError(
            f"the wind example is three-variate, got m = {grid.m}"
        )
    w = grid.sample_frequencies
    m, N = 3, grid.N

    S = np.zeros((N, m, m), dtype=np.complex128)
    for j in range(m):
        for k in range(m):
            S[:, j, k] = np.sqrt(example_psd(j, w) * example_psd(k, w)) * (
                example_coherence(j, k, w)
            )

    s_sum = w[:, None] + w[None, :]
    B = np.zeros((N, N, m, m, m), dtype=np.complex128)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                scale = 1.0 if a == b == c else cross_scale
                if scale == 0.0:
                    continue
                B[:, :, a, b, c] = scale * example_bispectrum((a, b, c), s_sum)

    return CrossSpectrum(grid, S), CrossBispectrum(grid, B)


def example_grid(N: int = 100, omega_u: float = 2.0) -> FrequencyGrid:
    """The model's standard discretization: cutoff 2 rad/s over ``N`` bins."""
    return FrequencyGrid(m=3, N=N, delta_omega=omega_u / N)
