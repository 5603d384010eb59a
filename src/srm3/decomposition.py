"""Per-bin factorization of cross-spectral matrices and its inverse.

Each Hermitian PSD matrix ``S[k]`` is factored as ``S = H H*`` through its
eigendecomposition ``S = Phi Sigma Phi*`` with ``H = Phi sqrt(Sigma)``.  The
eigen route is preferred over Cholesky for numerical robustness on nearly
rank-deficient matrices; the factor is made deterministic by a fixed
eigenvalue ordering and eigenvector sign convention, so identical inputs give
bit-identical factors.

``G[k] = H[k]^-1`` supplies the whitening factors used by the quadratic
interaction terms.  Bins with (numerically) zero trace carry ``H = 0``; they
hold no energy, are excluded from inversion, and synthesis treats their
contribution as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInputError,
    NotPositiveSemidefiniteError,
    SingularFactorError,
)
from .grids import FrequencyGrid
from .spectra import PSD_TOLERANCE, ZERO_TRACE, CrossSpectrum

#: Relative singular-value floor below which a factor bin counts as singular.
SINGULAR_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SpectralFactor:
    """Deterministic per-bin factor ``H`` with ``H H* = S``."""

    grid: FrequencyGrid
    H: np.ndarray
    zero_bins: np.ndarray  # bool, bins with no energy (H = 0)


@dataclass(frozen=True)
class InverseFactor:
    """Per-bin inverse ``G = H^-1`` (zero on empty bins)."""

    grid: FrequencyGrid
    G: np.ndarray
    zero_bins: np.ndarray


def _normalize_columns(vecs: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its first non-negligible entry is real > 0.

    ``vecs`` is a stack ``(..., m, m)`` of eigenvector matrices (columns).
    """
    mags = np.abs(vecs)
    floor = 1e-12 * np.maximum(mags.max(axis=-2, keepdims=True), 1e-300)
    lead = np.argmax(mags > floor, axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, lead, axis=-2)
    size = np.abs(pivot)
    vecs = vecs * np.where(size > 0, np.conj(pivot) / np.where(size > 0, size, 1.0), 1.0)
    # force exactly-real pivots despite rounding
    np.put_along_axis(vecs, lead, np.take_along_axis(vecs, lead, axis=-2).real, axis=-2)
    return vecs


def _order_ties(eigvals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within groups of equal eigenvalues, order columns descending-lex.

    Keeps e.g. the factor of the identity matrix equal to the identity.
    """
    n = len(eigvals)
    order = list(range(n))
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and eigvals[stop] == eigvals[start]:
            stop += 1
        if stop - start > 1:
            block = order[start:stop]
            block.sort(
                key=lambda c: tuple(
                    np.concatenate([vecs[:, c].real, vecs[:, c].imag])
                ),
                reverse=True,
            )
            order[start:stop] = block
        start = stop
    order = np.array(order)
    return eigvals[order], vecs[:, order]


def _factor_stack(sym: np.ndarray, traces: np.ndarray, bins) -> np.ndarray:
    """Factors of a stack ``(n, m, m)`` of Hermitian bins, one batched ``eigh``.

    ``bins`` names the stacked bins in errors.
    """
    eigvals, vecs = np.linalg.eigh(sym)
    floor = -PSD_TOLERANCE * np.maximum(traces, ZERO_TRACE)
    bad = np.nonzero(eigvals[:, 0] < floor)[0]
    if bad.size:
        i = bad[0]
        raise NotPositiveSemidefiniteError(
            f"matrix at bin {bins[i]} is not PSD: eigenvalue {eigvals[i, 0]:.6e}"
            f" below tolerance {floor[i]:.3e}",
            bin_index=int(bins[i]),
            eigenvalue=float(eigvals[i, 0]),
        )
    eigvals = np.maximum(eigvals, 0.0)  # clip roundoff negatives
    vecs = _normalize_columns(vecs)
    for i in np.nonzero(np.any(eigvals[:, 1:] == eigvals[:, :-1], axis=1))[0]:
        eigvals[i], vecs[i] = _order_ties(eigvals[i], vecs[i])
    return vecs * np.sqrt(eigvals)[:, None, :]


def _factor_one(sym: np.ndarray, trace: float, k: int) -> np.ndarray:
    return _factor_stack(sym[None], np.array([trace]), [k])[0]


def factor_spectrum(spectrum: CrossSpectrum) -> SpectralFactor:
    """Factor ``S[k] = H[k] H[k]*`` at every bin.

    Raises
    ------
    InvalidInputError
        If some bin is not Hermitian.
    NotPositiveSemidefiniteError
        If some bin has an eigenvalue below ``-PSD_TOLERANCE * trace``.
    """
    vals = spectrum.values
    m, N = spectrum.m, spectrum.N

    herm_err = np.abs(vals - np.conj(np.swapaxes(vals, 1, 2))).max(axis=(1, 2))
    scale = np.maximum(np.abs(vals).max(axis=(1, 2)), 1.0)
    bad = np.nonzero(herm_err > 1e-10 * scale)[0]
    if bad.size:
        raise InvalidInputError(
            f"spectrum is not Hermitian at bin {bad[0]}"
            f" (max asymmetry {herm_err[bad[0]]:.3e})"
        )

    sym = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    traces = np.trace(sym, axis1=1, axis2=2).real
    H = np.zeros((N, m, m), dtype=np.complex128)
    zero_bins = traces < ZERO_TRACE
    live = np.nonzero(~zero_bins)[0]
    if live.size:
        H[live] = _factor_stack(sym[live], traces[live], live)
    H.setflags(write=False)
    zero_bins.setflags(write=False)
    return SpectralFactor(spectrum.grid, H, zero_bins)


def invert_factor(factor: SpectralFactor, required: np.ndarray | None = None) -> InverseFactor:
    """Invert ``H`` per bin; empty bins stay zero and are never inverted.

    With ``required`` (a bool per bin), a singular bin outside it keeps
    ``G = 0`` instead of raising.

    Raises
    ------
    SingularFactorError
        If a non-empty (required) bin has condition number beyond
        ``1/SINGULAR_TOLERANCE`` (smallest singular value below
        ``SINGULAR_TOLERANCE`` times largest).
    """
    G = np.zeros_like(factor.H)
    for k in np.nonzero(~factor.zero_bins)[0]:
        inverse = _inverse(factor.H[k])
        if inverse is not None:
            G[k] = inverse
        elif required is None or required[k]:
            svals = np.linalg.svd(factor.H[k], compute_uv=False)
            raise SingularFactorError(
                f"spectral factor is singular at bin {k}"
                f" (singular values {svals[0]:.3e} .. {svals[-1]:.3e})",
                bin_index=int(k),
            )
    G.setflags(write=False)
    return InverseFactor(factor.grid, G, factor.zero_bins)


def _inverse(Hk: np.ndarray) -> np.ndarray | None:
    """``Hk^-1``, or ``None`` if ``Hk`` is singular to ``SINGULAR_TOLERANCE``."""
    svals = np.linalg.svd(Hk, compute_uv=False)
    if svals[-1] <= SINGULAR_TOLERANCE * svals[0]:
        return None
    return np.linalg.inv(Hk)
