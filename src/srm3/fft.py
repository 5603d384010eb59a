"""Compiled offset-channel FFT synthesis, exactly equivalent to the direct sum.

Every oscillator frequency is ``(integer + fraction) * delta_omega`` where
the fraction comes from the channel offsets.  Terms sharing one fractional
offset form an *offset channel*: their integer parts index a complex
coefficient array of length ``m_f``, one inverse FFT per channel evaluates
the integer-frequency part at all samples of a base block, and a complex
rotation restores the fractional offset.  Because the rotation is continued
across blocks (the FFT output is block-periodic, the rotation is not), the
concatenated blocks reproduce the direct sum at every sample to rounding
error.  The block turns repeat after one fundamental period, so mixing the
channels into its blocks is one real ``(rows x 2 n_ch) . (2 n_ch x m_f)``
product per variate, and longer records repeat that period.

:class:`Synthesizer` does everything that depends only on the targets and
the sampling plan once per run: the pure/interaction split, the term set,
each term's flat scatter index into the ``(channel, m_f)`` coefficient
array, the in-block rotation and the block-mixing matrix.  A realization
then costs one phasor per phase slot, one ``bincount`` per variate, one
batched inverse FFT and the product above, not the ``O(n_terms * n_samples)``
direct sum.  Every method -- second order, univariate and multivariate third
order -- runs through it.

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

    ``offsets`` are the channels' exact fractional offsets, ascending.
    ``scatter[t]`` is ``channel * m_f + integer index`` of term ``t``, linear
    terms first, then interaction terms, in term-set order.  ``slot_u`` and
    ``slot_v`` index the flattened ``(m, N)`` phase array: a term's phase is
    ``phi[slot_u]``, plus ``phi[slot_v]`` for interaction terms.
    """

    def __init__(self, terms: TermSet, m_f: int):
        grid = terms.grid
        m, N = grid.m, grid.N
        offs = grid.channel_offsets
        # exact offset of each linear channel p and channel pair (p, q)
        totals = [offs[p] for p in range(m)] + [
            offs[p] + offs[q] for p in range(m) for q in range(m)
        ]
        carry = np.array([math.floor(t) for t in totals], dtype=np.intp)
        fracs = [t - math.floor(t) for t in totals]
        lin_src = terms.lin_chan
        int_src = m + terms.int_p * m + terms.int_q
        used = np.unique(np.concatenate([lin_src, int_src]))
        self.offsets: tuple[Fraction, ...] = tuple(sorted({fracs[s] for s in used}))
        channel = np.array(
            [self.offsets.index(f) if f in self.offsets else -1 for f in fracs],
            dtype=np.intp,
        )
        index = np.concatenate(
            [
                terms.lin_bin + carry[lin_src],
                terms.int_i + terms.int_j + carry[int_src],
            ]
        )
        if index.size and index.max() >= m_f:
            raise CoefficientOverflowError(
                f"harmonic index {int(index.max())} >= m_f = {m_f};"
                " increase the FFT block length"
            )
        self.source = np.concatenate([lin_src, int_src])  # offset source per term
        self.scatter = channel[self.source] * m_f + index
        self.slot_u = np.concatenate(
            [terms.lin_chan * N + terms.lin_bin, terms.int_p * N + terms.int_i]
        )
        self.slot_v = terms.int_q * N + terms.int_j
        self.coef = np.concatenate([terms.lin_coef, terms.int_coef], axis=1)
        self.m, self.m_f, self.n_linear = m, m_f, terms.n_linear

    def deposit(self, phi: np.ndarray) -> np.ndarray:
        """Phase-rotated coefficients of every channel, ``(n_ch, m, m_f)``."""
        u = np.exp(1j * phi.ravel())  # one phasor per phase slot
        z = u[self.slot_u]
        z[self.n_linear :] *= u[self.slot_v]
        z = self.coef * z
        n_ch, m_f = len(self.offsets), self.m_f
        C = np.empty((n_ch, self.m, m_f), dtype=np.complex128)
        for a in range(self.m):
            for part, target in ((z[a].real, C.real), (z[a].imag, C.imag)):
                counts = np.bincount(self.scatter, weights=part, minlength=n_ch * m_f)
                target[:, a, :] = counts.reshape(n_ch, m_f)
        return C


def _rotations(offsets, m_f: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """In-block rotation ``(n_ch, m_f)`` and block-mixing matrix ``(rows, 2 n_ch)``.

    Sample ``r = b m_f + s`` of a channel with offset ``f`` turns by
    ``exp(2 pi i f s / m_f) * exp(2 pi i f b)``; the block turn ``f b`` is
    reduced modulo one in exact arithmetic, so it repeats after ``P`` blocks,
    the lcm of the offsets' denominators (a divisor of ``period_blocks``).
    Row ``b < rows = min(blocks, P)`` is ``[cos 2 pi f b | -sin 2 pi f b]``.
    """
    f = np.array([float(off) for off in offsets])
    inner = np.exp((TWO_PI / m_f) * 1j * np.multiply.outer(f, np.arange(m_f)))
    rows = min(blocks, math.lcm(*(off.denominator for off in offsets)))
    b = np.arange(rows)
    turns = [(off.numerator * b % off.denominator) / off.denominator for off in offsets]
    angle = TWO_PI * np.array(turns).reshape(len(offsets), rows).T
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

    Construction runs the split that fits ``method`` (the factor alone for
    second order, the scalar split for ``third-uv``, the tensor split
    otherwise), builds the :class:`TermSet` and the offset-channel layout,
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
            self.channels.offsets, self.plan.m_f, self.plan.blocks
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
    out = []
    for c, offset in enumerate(layout.offsets):
        sources = np.unique(layout.source[channel == c])
        provenance = [
            ("linear", int(s)) if s < m else ("interaction", *divmod(int(s) - m, m))
            for s in sources
        ]
        n_terms = int(np.count_nonzero(channel == c))
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
    inner, mix = _rotations([ch.offset for ch in channels], plan.m_f, plan.blocks)
    return _expand(C, inner, mix, plan)


def simulate_3rd_order_mv_fft(
    S: CrossSpectrum,
    B: CrossBispectrum,
    phases: PhaseSet,
    plan: SamplingPlan | None = None,
) -> SampleRecord:
    """m-variate third-order synthesis through the offset-channel FFT path."""
    return _draw_one(S, B, Method.THIRD_ORDER_MV_FFT, phases, plan)
