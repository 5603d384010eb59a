"""Synthetic targets shared across test modules.

The ergodic-closure targets are built so that no two distinct phase-draw
combinations share an oscillator frequency (band-limited spectra, one
bispectral pair per frequency sum, diagonal coupling for m > 1).  Under that
condition single-record time averages over the fundamental period are exact,
which the tests assert through ``TermSet.resonant_collisions()``.
"""

import numpy as np

from srm3.decomposition import factor_spectrum, invert_factor
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.spectra import CrossBispectrum, CrossSpectrum


def univariate_grid(N=16, delta_omega=0.2):
    return FrequencyGrid(1, N, delta_omega, OffsetRule.UNIVARIATE_ERGODIC)


def univariate_target(N, s_values, pairs, delta_omega=0.5):
    """One-variate S from ``s_values``; B from ``{(i, j): value}`` and its mirror."""
    grid = univariate_grid(N, delta_omega)
    s = np.asarray(s_values, dtype=complex).reshape(N, 1, 1)
    b = np.zeros((N, N, 1, 1, 1), dtype=complex)
    for (i, j), value in pairs.items():
        b[i, j] = value
        b[j, i] = np.conj(value)
    return grid, CrossSpectrum(grid, s), CrossBispectrum(grid, b)


def brute_force_univariate(s, b, dw):
    """Independent scalar split recursion, loop style: ``(S_p, first bad bin)``.

    The oracle of the pure/interaction split at ``m = 1``; the first bin
    whose pure spectrum goes negative stops the loop (``None`` if none does).
    """
    N = len(s)
    s_p = np.array(s, dtype=float)
    for k in range(N):
        corr = 0.0
        for j in range(1, k // 2 + 1):
            i = k - j
            if b[i, j] != 0:
                corr += abs(b[i, j]) ** 2 / (s_p[i] * s_p[j])
        s_p[k] = s[k] - corr * dw
        if s_p[k] < 0:
            return s_p, k
    return s_p, None


def contracted_interaction_terms(pure, B):
    """Interaction terms contracted pair by pair: ``(int_p, int_q, int_i, int_j, int_coef)``.

    The oracle of the split's pair tensors.  Every pair of
    ``grid.interaction_pairs()`` with a nonzero tensor gives the ``m x m``
    channel pairs ``(p, q)`` with
    ``c[a] = 2 dw sum_{l,n} conj(B[i,j][a,l,n]) G[i][p,l] G[j][q,n]``,
    where ``G`` inverts the factor of ``S_p`` at every bin.
    """
    grid = pure.grid
    m, dw = grid.m, grid.delta_omega
    G = invert_factor(factor_spectrum(CrossSpectrum(grid, pure.S_p))).G
    P, Q = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    ps, qs, is_, js, coefs = [], [], [], [], []
    for i, j in grid.interaction_pairs():
        if not np.any(B.values[i, j]):
            continue
        tensor = 2.0 * dw * np.einsum("aln,pl,qn->apq", np.conj(B.values[i, j]), G[i], G[j])
        ps.append(P.ravel())
        qs.append(Q.ravel())
        is_.append(np.full(m * m, i))
        js.append(np.full(m * m, j))
        coefs.append(tensor.reshape(m, m * m))
    return (*(np.concatenate(x) for x in (ps, qs, is_, js)), np.concatenate(coefs, axis=1))


def collision_free_univariate(N=16, delta_omega=0.2):
    """Band-limited S on bins {4,5,8,9}; B at (4,4) and complex (5,4)."""
    grid = univariate_grid(N, delta_omega)
    s = np.zeros(N)
    s[[4, 5, 8, 9]] = [1.0, 1.2, 0.8, 0.9]
    S = CrossSpectrum(grid, s.reshape(N, 1, 1).astype(complex))
    b = np.zeros((N, N, 1, 1, 1), dtype=complex)
    b[4, 4] = 1.2
    b[5, 4] = 0.7 + 0.5j
    b[4, 5] = np.conj(b[5, 4])
    return grid, S, CrossBispectrum(grid, b)


def collision_free_diagonal(m, N=16, delta_omega=0.2, channels=None):
    """Uncorrelated variates, each with its own band-limited third-order target.

    ``channels`` lists the variates carrying a bispectrum; for m = 3 the
    middle variate must stay Gaussian (its doubled channel offset collides
    with the (first, third) channel-pair offsets).
    """
    grid = FrequencyGrid(m, N, delta_omega, OffsetRule.MULTIVARIATE_DOUBLE_INDEX)
    if channels is None:
        channels = [a for a in range(m) if m != 3 or a != 1]
    s = np.zeros((N, m, m), dtype=complex)
    support = {4: 1.0, 5: 1.2, 8: 0.8, 9: 0.9} if N >= 12 else {}
    if N == 12:
        support = {3: 1.0, 4: 1.2, 6: 0.9, 7: 0.8, 8: 1.1}
    for k, v in support.items():
        for a in range(m):
            s[k, a, a] = v * (1.0 + 0.25 * a)
    S = CrossSpectrum(grid, s)
    b = np.zeros((N, N, m, m, m), dtype=complex)
    for a in channels:
        amp = 1.0 + 0.4 * a
        if N == 12:
            b[3, 3, a, a, a] = 0.9 * amp
            b[4, 3, a, a, a] = (0.5 + 0.35j) * amp
            b[3, 4, a, a, a] = np.conj(b[4, 3, a, a, a])
            b[4, 4, a, a, a] = 0.6 * amp
        else:
            b[4, 4, a, a, a] = 0.9 * amp
            b[5, 4, a, a, a] = (0.5 + 0.35j) * amp
            b[4, 5, a, a, a] = np.conj(b[5, 4, a, a, a])
    return grid, S, CrossBispectrum(grid, b)


def coherent_gaussian(m, N=16, delta_omega=0.2, rule=OffsetRule.MULTIVARIATE_DOUBLE_INDEX):
    """Fully cross-correlated spectrum with no bispectrum (Gaussian case)."""
    grid = FrequencyGrid(m, N, delta_omega, rule)
    w = grid.sample_frequencies
    s = np.zeros((N, m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            coh = np.exp(-0.35 * abs(a - b) * w)
            amp = np.sqrt((1.0 + 0.3 * a) * (1.0 + 0.3 * b)) / (1.0 + w) ** 2
            # a frequency-odd phase keeps the off-diagonal entries complex
            phase = np.exp(0.2j * (a - b) * w)
            s[:, a, b] = amp * coh * phase
    S = CrossSpectrum(grid, s)
    from srm3.spectra import zero_bispectrum

    return grid, S, zero_bispectrum(grid)


def coupled_third_order(m=2, N=16, delta_omega=0.25):
    """Coherent S with a full (cross-channel) bispectral tensor, feasible.

    Carries resonant collisions, so only ensemble statements hold; used for
    path-equivalence and recursion tests, not for single-record closure.
    """
    grid = FrequencyGrid(m, N, delta_omega, OffsetRule.MULTIVARIATE_DOUBLE_INDEX)
    w = grid.sample_frequencies
    s = np.zeros((N, m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            coh = np.exp(-0.3 * abs(a - b) * w)
            s[:, a, b] = np.sqrt((1.0 + 0.2 * a) * (1.0 + 0.2 * b)) / (1 + w) * coh
    S = CrossSpectrum(grid, s)
    wsum = w[:, None] + w[None, :]
    base = 0.08 / (1.0 + wsum) ** 2
    b = np.zeros((N, N, m, m, m), dtype=complex)
    for a in range(m):
        for l in range(m):
            for n in range(m):
                b[:, :, a, l, n] = base * (1.0 + 0.1 * a) / (1.0 + 0.2 * (l + n))
    # enforce the (l, n) symmetry at equal-frequency pairs
    b = 0.5 * (b + np.transpose(b, (0, 1, 2, 4, 3)))
    return grid, S, CrossBispectrum(grid, b)
