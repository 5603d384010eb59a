"""Compiled offset-channel FFT synthesis, exactly equivalent to the direct sum.

Every term's frequency is an exact integer numerator ``F`` over
``Q = grid.period_blocks`` (:attr:`TermSet.freq`), in units of
``delta_omega``.  Writing ``F = carried * Q + residue``, terms sharing one
residue form an *offset channel* with fractional offset ``residue / Q``:
their carried parts index a complex coefficient array of length ``m_f``, one
inverse FFT per channel evaluates the integer-frequency part at all samples
of a base block, and a complex rotation restores the fractional offset.
Because the rotation is continued across blocks (the FFT output is
block-periodic, the rotation is not), the concatenated blocks reproduce the
direct sum at every sample to rounding error.  The block turns repeat after
one fundamental period, so mixing the channels into its blocks is one real
``(rows x 2 n_ch) . (2 n_ch x m_f)`` product per variate, and longer records
repeat that period.

:class:`Synthesizer` does everything that depends only on the targets and
the sampling plan once per run: the pure/interaction split (one for every
third-order method), the term set, each term's flat scatter index into the
``(channel, m_f)`` coefficient array, the in-block rotation and the
block-mixing matrix, all in integer arithmetic on the residues.  A
realization then costs one phasor per phase slot, one ``bincount`` per
variate, one batched inverse FFT and the product above, not the
``O(n_terms * n_samples)`` direct sum.  Every method -- second order,
univariate and multivariate third order -- runs through it.

With the default ``m_f = 2N`` the largest populated integer index is at most
``N`` (linear terms reach ``N - 1``; interaction pairs reach ``i + j <= N - 1``
plus at most one carried unit from the offset sum), so no index ever wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CoefficientOverflowError
from .estimators import build_terms
from .grids import FrequencyGrid
from .simulate import (
    Method,
    PhaseSet,
    SampleRecord,
    SamplingPlan,
    _check_grid,
    _draw_one,
    draw_phases,
)
from .spectra import CrossBispectrum, CrossSpectrum
from .terms import TermSet

TWO_PI = 2.0 * math.pi


class OffsetChannels:
    """Where every term of a term set lands in the offset-channel FFT.

    A term's exact frequency numerator ``F`` over ``Q = grid.period_blocks``
    (:attr:`TermSet.freq`) splits as ``F = carried * Q + residue``.
    ``residues`` are the distinct residues, ascending: channel ``c`` has the
    fractional offset ``residues[c] / Q``.  ``scatter[t]`` is
    ``channel * m_f + carried`` of term ``t``, linear terms first, then
    interaction terms, in term-set order.  ``slot_u`` and ``slot_v`` index
    the flattened ``(m, N)`` phase array: a term's phase is ``phi[slot_u]``,
    plus ``phi[slot_v]`` for interaction terms.
    """

    def __init__(self, terms: TermSet, m_f: int):
        N = terms.grid.N
        carried, residue = np.divmod(terms.freq, terms.grid.period_blocks)
        if carried.max() >= m_f:
            raise CoefficientOverflowError(
                f"harmonic index {int(carried.max())} >= m_f = {m_f};"
                " increase the FFT block length"
            )
        self.residues, channel = np.unique(residue, return_inverse=True)
        self.scatter = channel * m_f + carried
        self.slot_u = np.concatenate(
            [terms.lin_chan * N + terms.lin_bin, terms.int_p * N + terms.int_i]
        )
        self.slot_v = terms.int_q * N + terms.int_j
        self.coef = np.concatenate([terms.lin_coef, terms.int_coef], axis=1)
        self.m, self.m_f, self.n_linear = terms.m, m_f, terms.n_linear

    def deposit(self, phi: np.ndarray) -> np.ndarray:
        """Phase-rotated coefficients of every channel, ``(n_ch, m, m_f)``."""
        u = np.exp(1j * phi.ravel())  # one phasor per phase slot
        z = u[self.slot_u]
        z[self.n_linear :] *= u[self.slot_v]
        z = self.coef * z
        n_ch, m_f = len(self.residues), self.m_f
        C = np.empty((n_ch, self.m, m_f), dtype=np.complex128)
        for a in range(self.m):
            for part, target in ((z[a].real, C.real), (z[a].imag, C.imag)):
                counts = np.bincount(self.scatter, weights=part, minlength=n_ch * m_f)
                target[:, a, :] = counts.reshape(n_ch, m_f)
        return C


def _rotations(residues: np.ndarray, Q: int, m_f: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """In-block rotation ``(n_ch, m_f)`` and block-mixing matrix ``(rows, 2 n_ch)``.

    Channel ``c`` has the offset ``f = r / Q`` with ``r = residues[c]``.  Sample
    ``b m_f + s`` turns by ``exp(2 pi i f s / m_f) * exp(2 pi i f b)``; the
    block turn is ``(r b mod Q) / Q``, reduced modulo one in integers, so it
    repeats after ``P = Q / gcd(Q, r_1, ..., r_n)`` blocks.  Row
    ``b < rows = min(blocks, P)`` is ``[cos 2 pi f b | -sin 2 pi f b]``.
    """
    f = residues / Q
    inner = np.exp((TWO_PI / m_f) * 1j * np.multiply.outer(f, np.arange(m_f)))
    rows = min(blocks, Q // math.gcd(Q, *residues.tolist()))
    turns = np.multiply.outer(np.arange(rows), residues) % Q / Q
    angle = TWO_PI * turns
    return inner, np.concatenate([np.cos(angle), -np.sin(angle)], axis=1)


def _expand(C: np.ndarray, inner: np.ndarray, mix: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """Inverse-FFT every channel and mix the channels into the record's blocks.

    One ``mix @ [Re W; Im W]`` product per variate gives one fundamental
    period, tiled to ``plan.blocks`` blocks and cut to ``plan.n_samples`` in
    an array that owns only those values.  The bytes rely on the BLAS product
    summing its ``2 n_ch`` terms in an order independent of the thread count
    (``test_record_bytes_do_not_depend_on_blas_threads`` checks it).
    """
    _, m, m_f = C.shape
    W = np.fft.ifft(C, axis=-1, norm="forward")  # sum_k C_k e^{2 pi i k s / m_f}
    W *= inner[:, None, :]
    stacked = np.concatenate([W.real, W.imag]).transpose(1, 0, 2)  # (m, 2 n_ch, m_f)
    period = np.matmul(mix, stacked).reshape(m, -1)
    span, n_out = period.shape[1], min(plan.n_samples, plan.blocks * m_f)
    if span == n_out:
        return period
    out = np.empty((m, n_out))
    for lo in range(0, n_out, span):
        out[:, lo : lo + span] = period[:, : n_out - lo]
    return out


class Synthesizer:
    """A run's synthesis, compiled once; each realization is a cheap draw.

    Construction builds the :class:`TermSet` of ``method`` (the factor of
    ``S`` alone when no interaction pair is set, the pure/interaction split
    otherwise; see :func:`build_terms`) and the offset-channel layout,
    and raises :class:`CoefficientOverflowError` if ``plan.m_f`` is too
    short.  :meth:`record` then synthesizes realization ``r`` of ``seed``;
    its bytes depend only on ``(seed, r)``, not on which records came before.
    """

    def __init__(
        self,
        S: CrossSpectrum,
        B: CrossBispectrum | None = None,
        method: Method = Method.THIRD_ORDER_MV_FFT,
        plan: SamplingPlan | None = None,
    ):
        self.grid: FrequencyGrid = S.grid
        self.method = method
        self.plan = plan or SamplingPlan.for_grid(S.grid)
        self.terms = build_terms(S, B, method)
        self.channels = OffsetChannels(self.terms, self.plan.m_f)
        self._inner, self._mix = _rotations(
            self.channels.residues, self.grid.period_blocks, self.plan.m_f, self.plan.blocks
        )

    def draw(self, phases: PhaseSet) -> SampleRecord:
        """The record of one phase draw."""
        _check_grid(self.grid, phases)
        C = self.channels.deposit(phases.phi)
        return SampleRecord(
            _expand(C, self._inner, self._mix, self.plan),
            self.plan.delta_t,
            self.method,
            phases.seed,
            phases.realization_index,
        )

    def record(self, seed: int, realization_index: int) -> SampleRecord:
        return self.draw(draw_phases(seed, realization_index, self.grid))


# ----------------------------------------------------------------------
# per-channel views of the same layout
# ----------------------------------------------------------------------


@dataclass
class OffsetChannelCoefficients:
    """Coefficients of all terms sharing one fractional frequency offset.

    ``C[a, k]`` multiplies ``exp(i (k + offset) delta_omega t)`` in variate
    ``a``.  ``provenance`` records which linear channels ``l`` and channel
    pairs ``(p, q)`` landed here; ``n_terms`` counts the structural terms
    absorbed, so channel counts can be checked against the direct sum.
    """

    offset: Fraction
    C: np.ndarray  # (m, m_f) complex
    provenance: list = field(default_factory=list)
    n_terms: int = 0


def assemble_coefficients(
    terms: TermSet, phases: PhaseSet, m_f: int
) -> list[OffsetChannelCoefficients]:
    """Group every term of the direct sum into offset channels, ascending.

    Raises
    ------
    CoefficientOverflowError
        If a term's integer index reaches ``m_f`` (block length too short).
    """
    layout = OffsetChannels(terms, m_f)
    C = layout.deposit(phases.phi)
    channel = layout.scatter // m_f
    m = terms.m
    source = np.concatenate([terms.lin_chan, m + terms.int_p * m + terms.int_q])
    out = []
    for c, r in enumerate(layout.residues):
        sources = np.unique(source[channel == c])
        provenance = [
            ("linear", int(s)) if s < m else ("interaction", *divmod(int(s) - m, m))
            for s in sources
        ]
        n_terms = int(np.count_nonzero(channel == c))
        offset = Fraction(int(r), terms.grid.period_blocks)
        out.append(OffsetChannelCoefficients(offset, C[c], provenance, n_terms))
    return out


def synthesize_fft(
    channels: list[OffsetChannelCoefficients],
    grid: FrequencyGrid,
    plan: SamplingPlan,
) -> np.ndarray:
    """Inverse-FFT each offset channel and apply its block-continued rotation.

    Channels are summed in ascending offset order so the result is
    reproducible bit-for-bit.
    """
    if not channels:
        return np.zeros((grid.m, plan.n_samples))
    channels = sorted(channels, key=lambda c: c.offset)
    C = np.stack([ch.C for ch in channels])
    Q = grid.period_blocks
    residues = np.array([int(ch.offset * Q) for ch in channels])
    return _expand(C, *_rotations(residues, Q, plan.m_f, plan.blocks), plan)


def simulate_3rd_order_mv_fft(
    S: CrossSpectrum,
    B: CrossBispectrum,
    phases: PhaseSet,
    plan: SamplingPlan | None = None,
) -> SampleRecord:
    """m-variate third-order synthesis through the offset-channel FFT path."""
    return _draw_one(S, B, Method.THIRD_ORDER_MV_FFT, phases, plan)
