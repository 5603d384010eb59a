"""Phases, sampling plans, records, and the direct-summation oracle.

Phases come from a counter-based generator keyed by ``(seed,
realization_index)``, so any realization of any ensemble can be regenerated
in isolation, in any order, on any machine, without consuming a shared
stream.  Synthesis itself is a pure function of (targets, phases, sampling
plan).  Every method runs through one compiled offset-channel FFT path,
:class:`srm3.fft.Synthesizer`, built once per run and drawn from once per
record.  :func:`synthesize_direct` evaluates the cosine sum term by term and
is kept as the equivalence oracle of that path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grids import FrequencyGrid
from .terms import TermSet

TWO_PI = 2.0 * math.pi


class Method(enum.Enum):
    """Synthesis family a record was produced by."""

    SECOND_ORDER = "second"
    THIRD_ORDER_UV = "third-uv"
    THIRD_ORDER_MV = "third-mv"
    THIRD_ORDER_MV_FFT = "third-mv-fft"


#: Wire codes for the binary sample header.
METHOD_CODES = {
    Method.SECOND_ORDER: 1,
    Method.THIRD_ORDER_UV: 2,
    Method.THIRD_ORDER_MV: 3,
    Method.THIRD_ORDER_MV_FFT: 4,
}
METHOD_FROM_CODE = {v: k for k, v in METHOD_CODES.items()}


@dataclass(frozen=True)
class PhaseSet:
    """Uniform [0, 2pi) phase draws, one per (channel, bin) slot."""

    grid: FrequencyGrid
    phi: np.ndarray  # (m, N) float
    seed: int
    realization_index: int

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.shape != (self.grid.m, self.grid.N):
            raise InvalidParameterError(
                f"phi must have shape (m, N) = {(self.grid.m, self.grid.N)},"
                f" got {phi.shape}"
            )
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)


def draw_phases(seed: int, realization_index: int, grid: FrequencyGrid) -> PhaseSet:
    """Deterministic phases for one realization.

    The Philox counter-based generator is keyed with the pair, so equal
    ``(seed, realization_index, grid shape)`` reproduce identical arrays and
    distinct realization indices give independent streams.  Values fill the
    ``(m, N)`` array row-major: channel-major, then bin.
    """
    if realization_index < 0:
        raise InvalidParameterError("realization_index must be >= 0")
    key = [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(realization_index)]
    rng = np.random.Generator(np.random.Philox(key=key))
    phi = TWO_PI * rng.random((grid.m, grid.N))
    return PhaseSet(grid, phi, seed, realization_index)


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform time sampling ``t_r = r * delta_t`` aligned with the grid.

    ``delta_t = 2*pi / (m_f * delta_omega)`` with ``m_f >= 2N`` keeps every
    assembled harmonic index strictly below ``m_f`` (no aliasing), and
    ``n_samples = blocks * m_f`` with ``blocks`` equal to the grid's period
    block count makes the record cover exactly one fundamental period.
    """

    delta_t: float
    n_samples: int
    m_f: int
    blocks: int

    @classmethod
    def for_grid(
        cls, grid: FrequencyGrid, m_f: int | None = None, blocks: int | None = None
    ) -> "SamplingPlan":
        base = 2 * grid.N
        if m_f is None:
            m_f = base
        else:
            ratio = m_f / base
            if m_f < base or 2 ** round(math.log2(ratio)) != ratio:
                raise InvalidParameterError(
                    f"m_f must be 2N times a power of two, got {m_f} (N={grid.N})"
                )
        if blocks is None:
            blocks = grid.period_blocks
        if blocks < 1:
            raise InvalidParameterError("blocks must be >= 1")
        if blocks * m_f >= 2**32:  # the sample header counts samples as uint32
            raise InvalidParameterError(
                f"blocks * m_f = {blocks * m_f} samples per variate does not fit"
                " the sample header's 32-bit count"
            )
        delta_t = TWO_PI / (m_f * grid.delta_omega)
        return cls(delta_t, blocks * m_f, m_f, blocks)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.delta_t


@dataclass(frozen=True)
class SampleRecord:
    """One synthesized realization of the vector process."""

    values: np.ndarray  # (m, n_samples) float
    delta_t: float
    method: Method
    seed: int
    realization_index: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise InvalidParameterError("values must be 2-d (variate, time)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def t0_covered(self) -> float:
        """Record length in seconds."""
        return self.n_samples * self.delta_t

    def rms(self, a: int) -> float:
        return float(np.sqrt(np.mean(self.values[a] ** 2)))


# ----------------------------------------------------------------------
# direct summation
# ----------------------------------------------------------------------

_CHUNK_ELEMENTS = 1 << 22  # complex workspace bound for the outer product


def synthesize_direct(terms: TermSet, phases: PhaseSet, plan: SamplingPlan) -> np.ndarray:
    """Evaluate the cosine sum at every sample, all variates at once.

    Cost ``O(n_terms * n_samples)``: the reference the FFT path is checked
    against, not a production path.
    """
    m = terms.m
    phi = phases.phi

    osc = terms.grid.oscillator_frequencies
    freqs = [
        osc[terms.lin_chan, terms.lin_bin],
        osc[terms.int_p, terms.int_i] + osc[terms.int_q, terms.int_j],
    ]
    angles = [
        phi[terms.lin_chan, terms.lin_bin],
        phi[terms.int_p, terms.int_i] + phi[terms.int_q, terms.int_j],
    ]
    coefs = [terms.lin_coef, terms.int_coef]

    out = np.zeros((m, plan.n_samples))
    times = plan.times()
    for nu, ang, coef in zip(freqs, angles, coefs):
        if nu.size == 0:
            continue
        z = coef * np.exp(1j * ang)[None, :]  # phases folded into coefficients
        step = max(1, _CHUNK_ELEMENTS // max(nu.size, 1))
        for lo in range(0, plan.n_samples, step):
            t = times[lo : lo + step]
            osc = np.exp(1j * np.multiply.outer(nu, t))
            for a in range(m):
                out[a, lo : lo + t.size] += (z[a, :, None] * osc).real.sum(axis=0)
    return out
