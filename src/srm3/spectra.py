"""Containers and validators for the second- and third-order spectral targets.

A :class:`CrossSpectrum` holds one Hermitian ``m x m`` matrix per frequency
bin; a :class:`CrossBispectrum` holds one ``m x m x m`` complex tensor per
ordered bin pair ``(i, j)``.  Both are immutable after construction and carry
the grid they were sampled on.  Validation never raises: it returns a report
listing each violated condition with indices and magnitudes, so callers can
decide what is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .grids import FrequencyGrid

#: Relative tolerance (against the bin trace) below which an eigenvalue of a
#: cross-spectral matrix counts as a PSD violation.
PSD_TOLERANCE = 1e-12

#: Bins whose trace falls below this are treated as empty (no energy, no
#: factorization, no inversion).
ZERO_TRACE = 1e-300


@dataclass(frozen=True)
class Violation:
    """One violated structural condition."""

    condition: str
    where: tuple
    magnitude: float

    def __str__(self):
        return f"{self.condition} at {self.where}: magnitude {self.magnitude:.3e}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation; empty iff the input is valid."""

    violations: tuple[Violation, ...] = field(default=())

    def __bool__(self):
        return not self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _as_complex_array(values, shape_tail, name):
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != len(shape_tail) + 1 or arr.shape[1:] != shape_tail:
        raise InvalidInputError(
            f"{name} must have shape (N, {', '.join(map(str, shape_tail))}),"
            f" got {arr.shape}"
        )
    return arr


@dataclass(frozen=True)
class CrossSpectrum:
    """Cross power spectral density sampled per frequency bin.

    ``values[k]`` is the ``m x m`` matrix attached to bin ``k``; units are
    signal^2 * s/rad.  Hermitian symmetry, real non-negative diagonals and
    positive semi-definiteness are checked by :func:`validate_spectrum`.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _as_complex_array(self.values, (self.grid.m, self.grid.m), "values")
        if arr.shape[0] != self.grid.N:
            raise InvalidInputError(
                f"expected {self.grid.N} bins, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def N(self) -> int:
        return self.grid.N


@dataclass(frozen=True)
class CrossBispectrum:
    """Cross-bispectral density sampled per ordered frequency-bin pair.

    ``values[i, j]`` is the ``m x m x m`` tensor at the pair ``(w_i, w_j)``;
    units are signal^3 * s^2/rad^2.  The zero tensor is a valid target (the
    synthesis then degenerates to the Gaussian, second-order case).
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        m, N = self.grid.m, self.grid.N
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (N, N, m, m, m):
            raise InvalidInputError(
                f"values must have shape (N, N, m, m, m) = {(N, N, m, m, m)},"
                f" got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def N(self) -> int:
        return self.grid.N

    def is_zero(self) -> bool:
        return not np.any(self.values)


def zero_bispectrum(grid: FrequencyGrid) -> CrossBispectrum:
    """The all-zero bispectral target (Gaussian case) on ``grid``."""
    m, N = grid.m, grid.N
    return CrossBispectrum(grid, np.zeros((N, N, m, m, m), dtype=np.complex128))


def validate_spectrum(spectrum: CrossSpectrum) -> ValidationReport:
    """Check finiteness, Hermitian symmetry, real non-negative diagonal and PSD per bin.

    Every violated condition is reported with its bin index and magnitude;
    the report is empty iff the spectrum is a valid synthesis target.  A bin
    with a non-finite entry is reported as such and skips the other checks.
    """
    out = []
    vals = spectrum.values
    m = spectrum.m

    finite = np.isfinite(vals).all(axis=(1, 2))
    for k in np.nonzero(~finite)[0]:
        i, j = np.argwhere(~np.isfinite(vals[k]))[0]
        out.append(Violation("finite", (int(k), int(i), int(j)), float("inf")))
    vals = np.where(finite[:, None, None], vals, 0.0)

    herm_err = np.abs(vals - np.conj(np.swapaxes(vals, 1, 2)))
    scale = np.maximum(np.abs(vals).max(axis=(1, 2)), 1.0)
    for k in np.nonzero(herm_err.max(axis=(1, 2)) > 1e-12 * scale)[0]:
        i, j = np.unravel_index(np.argmax(herm_err[k]), (m, m))
        out.append(
            Violation("hermitian", (int(k), int(i), int(j)), float(herm_err[k, i, j]))
        )

    diag = np.diagonal(vals, axis1=1, axis2=2)
    bad_imag = np.abs(diag.imag) > 1e-12 * np.maximum(np.abs(diag), 1.0)
    for k, a in zip(*np.nonzero(bad_imag)):
        out.append(
            Violation("real-diagonal", (int(k), int(a)), float(abs(diag.imag[k, a])))
        )
    bad_neg = diag.real < -PSD_TOLERANCE * np.maximum(
        np.trace(vals, axis1=1, axis2=2).real[:, None], 1e-300
    )
    for k, a in zip(*np.nonzero(bad_neg)):
        out.append(
            Violation("nonnegative-diagonal", (int(k), int(a)), float(-diag.real[k, a]))
        )

    # PSD check only where the matrix is already numerically Hermitian.
    sym = 0.5 * (vals + np.conj(np.swapaxes(vals, 1, 2)))
    eigvals = np.linalg.eigvalsh(sym)
    traces = np.trace(sym, axis1=1, axis2=2).real
    floor = -PSD_TOLERANCE * np.maximum(traces, 1e-300)
    for k in np.nonzero(eigvals.min(axis=1) < floor)[0]:
        out.append(Violation("positive-semidefinite", (int(k),), float(-eigvals[k].min())))

    return ValidationReport(tuple(out))


def validate_bispectrum(bispectrum: CrossBispectrum) -> ValidationReport:
    """Check the bispectral symmetry conditions on the stored pair grid.

    Enforced conditions: the conjugate pair-swap
    ``B[j,k,l](w1, w2) == conj(B[j,k,l](w2, w1))`` for every index triple
    (which makes equal-frequency entries real and is what lets the synthesis
    restrict its pair sum to ``i >= j`` without loss), symmetry in the last
    two tensor indices at equal-frequency pairs
    ``B[j,k,l](w, w) == B[j,l,k](w, w)``, and finiteness.
    """
    out = []
    vals = bispectrum.values
    scale = max(float(np.abs(vals).max()), 1.0)
    tol = 1e-12 * scale

    swap = np.transpose(vals, (1, 0, 2, 3, 4))
    conj_err = np.abs(vals - np.conj(swap))
    for i, j in zip(*np.nonzero(conj_err.max(axis=(2, 3, 4)) > tol)):
        if i > j:
            continue  # the (j, i) report would duplicate this one
        a, b, c = np.unravel_index(
            np.argmax(conj_err[i, j]), vals.shape[2:]
        )
        out.append(
            Violation(
                "conjugate-pair-swap",
                (int(i), int(j), int(a), int(b), int(c)),
                float(conj_err[i, j, a, b, c]),
            )
        )

    diag = vals[np.arange(vals.shape[0]), np.arange(vals.shape[0])]
    idx_err = np.abs(diag - np.transpose(diag, (0, 1, 3, 2)))
    for i in np.nonzero(idx_err.max(axis=(1, 2, 3)) > tol)[0]:
        a, b, c = np.unravel_index(np.argmax(idx_err[i]), diag.shape[1:])
        out.append(
            Violation(
                "diagonal-index-swap",
                (int(i), int(i), int(a), int(b), int(c)),
                float(idx_err[i, a, b, c]),
            )
        )

    bad = ~np.isfinite(vals)
    if bad.any():
        where = tuple(int(w[0]) for w in np.nonzero(bad))
        out.append(Violation("finite", where, float("inf")))

    return ValidationReport(tuple(out))
