"""Frequency discretization for the cosine-series synthesis.

A grid fixes the number of variates ``m``, the number of frequency bins
``N``, the bin width ``delta_omega`` and an *offset rule*.  The offset rule
assigns each of the ``m`` phase channels a small rational fraction of
``delta_omega`` so that every oscillator in the series gets a distinct
frequency::

    omega[l, k] = (k + offset_l) * delta_omega,   l = 1..m,  k = 0..N-1

Offsets are kept as exact :class:`fractions.Fraction` values.  That makes the
fundamental period of the synthesized record an exact rational multiple of
the base period ``2*pi/delta_omega`` and lets frequency coincidences be
decided exactly instead of by floating-point comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError


class OffsetRule(enum.Enum):
    """How the per-channel fractional frequency offsets are generated."""

    #: Single channel at ``(k + 1/N) * delta_omega``; the indexing that makes
    #: one-variate third-order records periodic and ergodic over ``N`` base
    #: periods.
    UNIVARIATE_ERGODIC = "univariate-ergodic"

    #: Channel ``l`` at ``(k + l/(2m) + 1/N) * delta_omega``; the doubled
    #: indexing used by the third-order vector synthesis.
    MULTIVARIATE_DOUBLE_INDEX = "multivariate-double-index"

    #: Channel ``l`` at ``(k + l/m) * delta_omega``; the classic second-order
    #: vector indexing.
    SECOND_ORDER_CLASSIC = "second-order-classic"


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency discretization shared by targets, simulators and estimators.

    Parameters
    ----------
    m : int
        Number of variates (and phase channels).
    N : int
        Number of frequency bins per channel.
    delta_omega : float
        Bin width in rad/s.  The cutoff is ``omega_u = N * delta_omega``.
    offset_rule : OffsetRule
        Fractional-offset scheme, see :class:`OffsetRule`.
    """

    m: int
    N: int
    delta_omega: float
    offset_rule: OffsetRule = OffsetRule.MULTIVARIATE_DOUBLE_INDEX

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParameterError(f"m must be >= 1, got {self.m}")
        if self.N < 1:
            raise InvalidParameterError(f"N must be >= 1, got {self.N}")
        if not (self.delta_omega > 0.0 and math.isfinite(self.delta_omega)):
            raise InvalidParameterError(
                f"delta_omega must be finite and > 0, got {self.delta_omega}"
            )
        if self.offset_rule is OffsetRule.UNIVARIATE_ERGODIC and self.m != 1:
            raise InvalidParameterError(
                "UNIVARIATE_ERGODIC offsets are defined for m=1 only"
            )

    @property
    def omega_u(self) -> float:
        """Cutoff frequency ``N * delta_omega`` in rad/s."""
        return self.N * self.delta_omega

    @cached_property
    def channel_offsets(self) -> tuple[Fraction, ...]:
        """Exact fractional offset of each channel, in units of delta_omega."""
        m, N = self.m, self.N
        if self.offset_rule is OffsetRule.UNIVARIATE_ERGODIC:
            return (Fraction(1, N),)
        if self.offset_rule is OffsetRule.MULTIVARIATE_DOUBLE_INDEX:
            return tuple(Fraction(l, 2 * m) + Fraction(1, N) for l in range(1, m + 1))
        if self.offset_rule is OffsetRule.SECOND_ORDER_CLASSIC:
            return tuple(Fraction(l, m) for l in range(1, m + 1))
        raise InvalidParameterError(f"unknown offset rule {self.offset_rule!r}")

    @cached_property
    def oscillator_frequencies(self) -> np.ndarray:
        """Float frequencies, shape ``(m, N)``: ``(k + offset_l) * delta_omega``."""
        offs = np.array([float(o) for o in self.channel_offsets])
        return (np.arange(self.N)[None, :] + offs[:, None]) * self.delta_omega

    @cached_property
    def sample_frequencies(self) -> np.ndarray:
        """Frequencies at which tabulated targets attach to bins: ``(k+1)*delta_omega``.

        Bin ``k`` carries the spectral value at the right edge of the bin, so
        the N samples run from ``delta_omega`` up to the cutoff ``omega_u``.
        Closed-form model builders evaluate their spectra here.
        """
        return (np.arange(self.N) + 1.0) * self.delta_omega

    @cached_property
    def period_blocks(self) -> int:
        """Smallest integer Q with ``Q * offset`` integral for every channel.

        The synthesized record is periodic with ``T0 = Q * 2*pi/delta_omega``:
        every oscillator frequency is ``(k + p/q) * delta_omega`` and Q clears
        all the fractional parts at once.
        """
        q = 1
        for off in self.channel_offsets:
            frac = off - math.floor(off)
            if frac:
                q = q * frac.denominator // math.gcd(q, frac.denominator)
        return q

    @property
    def fundamental_period(self) -> float:
        """Exact period ``T0`` of every record drawn on this grid, in seconds."""
        return self.period_blocks * 2.0 * math.pi / self.delta_omega

    def interaction_pairs(self) -> np.ndarray:
        """All bin pairs ``(i, j)`` with ``i >= j >= 1`` and ``i + j <= N - 1``.

        These are the quadratic-interaction source pairs: the wave at bin
        ``i + j`` receives energy from the pair.  Returned as an int array of
        shape ``(n_pairs, 2)`` ordered by sum then by ``i``.
        """
        pairs = [
            (i, j)
            for k in range(2, self.N)
            for j in range(1, k // 2 + 1)
            for i in (k - j,)
        ]
        if not pairs:
            return np.empty((0, 2), dtype=np.intp)
        return np.array(sorted(pairs, key=lambda p: (p[0] + p[1], p[0])), dtype=np.intp)
