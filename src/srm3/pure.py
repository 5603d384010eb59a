"""Splitting the target spectrum into pure-wave and wave-interaction parts.

The quadratic interaction terms of the third-order synthesis carry spectral
energy of their own: the pair ``(i, j)`` deposits energy at bin ``i + j``.
The linear (pure-wave) amplitudes must therefore be drawn from the *pure*
spectrum ``S_p = S - S_I``, where ``S_I`` is exactly the energy the
interactions will add back, so that the synthesized process meets the full
target ``S``.

``S_I`` at bin ``k`` depends on ``S_p`` at the source bins of every pair
``(i, j)`` with ``i + j = k`` and ``i >= j >= 1``, all strictly below ``k``,
so a single forward sweep over bins resolves the recursion::

    S_p[k] = S[k] - sum_{i+j=k} B(i,j) (W_i x W_j) B(i,j)^dagger dw,
    W_i    = S_p[i]^-1

(at ``m = 1``: ``S_p[k] = S[k] - sum |B|^2 dw / (S_p[i] S_p[j])``).

The single power of ``dw`` is what energy conservation fixes: an interaction
term has amplitude ``2 |B| dw / sqrt(S_p S_p)`` and therefore variance
``2 |B|^2 dw^2 / (S_p S_p)``, which must equal ``2 S_I dw`` for the
synthesized process to carry exactly the prescribed ``2 sum_k S dw`` of
second-moment mass per bin.

A target whose bispectrum demands more energy at some bin than the spectrum
provides is unrealizable; the recursion then fails loudly rather than
clipping, since clipping would silently change the second-order target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import (
    InverseFactor,
    SpectralFactor,
    _factor_one,
    _inverse,
    factor_spectrum,
    invert_factor,
)
from .errors import (
    InfeasibleBispectrumError,
    InvalidInputError,
    SingularFactorError,
    SingularPureSpectrumError,
)
from .grids import FrequencyGrid
from .spectra import (
    PSD_TOLERANCE,
    ZERO_TRACE,
    CrossBispectrum,
    CrossSpectrum,
)


@dataclass(frozen=True)
class PureSpectrum:
    """Result of the pure/interaction split, with factors ready for synthesis.

    ``S_p + S_I == S`` holds exactly by construction.  ``H`` factors ``S_p``
    at every non-empty bin; ``G = H^-1`` is populated at least at every
    interaction source bin (bins never used by an interaction term may carry
    ``G = 0`` if they are empty or singular).
    """

    grid: FrequencyGrid
    S_p: np.ndarray
    S_I: np.ndarray
    factor: SpectralFactor
    inverse: InverseFactor
    source_bins: np.ndarray  # bool, bins feeding some nonzero interaction pair


def compute_pure_multivariate(S: CrossSpectrum, B: CrossBispectrum) -> PureSpectrum:
    """Pure/interaction split of an m-variate cross-spectral matrix.

    The interaction energy at bin ``k`` is the Hermitian contraction
    ``C_ab = sum_{efgh} B_aef(i,j) W_eg(i) W_fh(j) conj(B_bgh(i,j)) dw``
    summed over source pairs, with ``W = S_p^-1`` taken from already-resolved
    bins (equal-bin pairs additionally combine their swapped channel pairs
    coherently).  At ``m = 1`` it reduces to the scalar recursion of the
    module docstring.

    Raises
    ------
    InfeasibleBispectrumError
        If ``S_p`` goes indefinite at some bin (reports the bin and deficit),
        or the correction there is not finite (reports the bin).
    SingularPureSpectrumError
        If an interaction pair draws from an empty or singular ``S_p`` bin.
    """
    grid = S.grid
    if B.grid != grid:
        raise InvalidInputError("spectrum and bispectrum grids differ")
    m, N = S.m, S.N
    dw = grid.delta_omega

    # which pairs carry a nonzero tensor, and which bins they draw from
    pair_nonzero = np.any(B.values != 0, axis=(2, 3, 4))
    sources = np.zeros(N, dtype=bool)
    for i in range(1, N):
        for j in range(1, min(i, N - 1 - i) + 1):
            if pair_nonzero[i, j] or pair_nonzero[j, i]:
                sources[i] = sources[j] = True
    sym = 0.5 * (S.values + np.conj(np.swapaxes(S.values, 1, 2)))

    S_p = np.array(sym, dtype=np.complex128)
    G: dict[int, np.ndarray] = {}

    def whitening_factor(b: int) -> np.ndarray:
        if b not in G:
            trace = np.trace(S_p[b]).real
            if trace < ZERO_TRACE:
                raise SingularPureSpectrumError(
                    f"pure spectrum is empty at source bin {b}", bin_index=b
                )
            G[b] = _inverse(_factor_one(0.5 * (S_p[b] + np.conj(S_p[b].T)), trace, b))
            if G[b] is None:
                raise SingularPureSpectrumError(
                    f"pure spectrum is singular at source bin {b}", bin_index=b
                )
        return G[b]

    diag = np.arange(m)
    # an overflowing correction is caught below as a non-finite bin
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, N):
            corr = np.zeros((m, m), dtype=np.complex128)
            hit = False
            for j in range(1, k // 2 + 1):
                i = k - j
                if not pair_nonzero[i, j]:
                    continue
                # T[a, p, q] is the complex amplitude (per dw) the synthesis puts
                # on phase channel pair (p, q); the correction is the exact
                # second-moment mass of those terms.  W = G* G = S_p^-1, so for
                # i > j this is the contraction B (W x W) B^dagger.
                T = np.einsum(
                    "aln,pl,qn->apq",
                    np.conj(B.values[i, j]),
                    whitening_factor(i),
                    whitening_factor(j),
                )
                if i == j:
                    # channel pairs (p, q) and (q, p) share one phase draw pair
                    # and add coherently before squaring
                    T_sym = T + np.transpose(T, (0, 2, 1))
                    Td = T[:, diag, diag]
                    corr += 0.5 * np.einsum(
                        "apq,bpq->ab", T_sym, np.conj(T_sym)
                    ) - np.einsum("ap,bp->ab", Td, np.conj(Td))
                else:
                    corr += np.einsum("apq,bpq->ab", T, np.conj(T))
                hit = True
            if not hit:
                continue
            correction = np.conj(corr) * dw
            if not np.all(np.isfinite(correction)):
                raise InfeasibleBispectrumError(
                    f"interaction energy at bin {k} is not finite", bin_index=k
                )
            S_p[k] = S_p[k] - correction
            trace = np.trace(S_p[k]).real
            eigmin = float(np.linalg.eigvalsh(0.5 * (S_p[k] + np.conj(S_p[k].T)))[0])
            if eigmin < -PSD_TOLERANCE * max(abs(trace), ZERO_TRACE):
                raise InfeasibleBispectrumError(
                    f"interaction energy exceeds the spectrum at bin {k}:"
                    f" pure-spectrum eigenvalue {eigmin:.6e}",
                    bin_index=k,
                    deficit=-eigmin,
                )

    S_I = sym - S_p
    pure = CrossSpectrum(grid, S_p)
    factor = factor_spectrum(pure)
    inverse = _invert_where_possible(factor, sources)
    S_p.setflags(write=False)
    S_I.setflags(write=False)
    sources.setflags(write=False)
    return PureSpectrum(grid, S_p, S_I, factor, inverse, sources)


def _invert_where_possible(factor: SpectralFactor, sources: np.ndarray) -> InverseFactor:
    """Invert every bin that allows it; a singular source bin is an error."""
    try:
        return invert_factor(factor, required=sources)
    except SingularFactorError as exc:
        raise SingularPureSpectrumError(
            f"pure spectrum is singular at source bin {exc.bin_index}",
            bin_index=exc.bin_index,
        ) from None
