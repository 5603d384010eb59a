"""The discrete cosine-term set shared by simulators, targets and the FFT path.

Every synthesis method in this package evaluates a finite sum of cosines.
For variate ``a``::

    f_a(t) = sum_T  Re[ c_T[a] * exp(i nu_T t) * exp(i Phi_T) ]

where ``nu_T`` is the oscillator frequency and ``Phi_T`` is the term's random
phase combination: ``phi[p, k]`` for a linear (pure-wave) term on channel
``p``, bin ``k``, and ``phi[p, i] + phi[q, j]`` for a quadratic interaction
term sourced from the bin pair ``(i, j)`` on channels ``(p, q)``.

Coefficients:

* linear term ``(p, k)``: ``c[a] = 2 * conj(H[k][a, p]) * sqrt(dw)`` with
  ``H`` the factor of the pure spectrum (or of the full spectrum for the
  second-order method), giving ``2 |H_ap| cos(nu t - theta_ap + phi)``;
* interaction term ``(p, q, i, j)``:
  ``c[a] = 2 * dw * sum_{l,n} conj(B[i,j][a,l,n]) G[i][p,l] G[j][q,n]``,
  which at ``m = 1`` is ``2 dw |B| / sqrt(S_p(i) S_p(j))`` with the biphase
  entering the cosine as ``-beta``.

Because ensemble moments, single-record time averages over the fundamental
period, and both synthesis paths are all exact functionals of this term set,
verification targets computed here match the simulators to machine precision
rather than to discretization error.

Two phase combinations interfere deterministically only if they use the same
multiset of ``(channel, bin)`` draws; that multiset is the term's *key*.
Distinct keys that share an oscillator frequency ("resonant collisions") make
single-record averages phase-dependent; :meth:`TermSet.resonant_collisions`
detects them exactly on the integer frequency numerators of :attr:`TermSet.freq`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grids import FrequencyGrid
from .pure import PureSpectrum
from .spectra import CrossBispectrum, CrossSpectrum

Key = tuple[tuple[int, int], ...]  # sorted ((channel, bin), ...), length 1 or 2


class PhaseGroups(NamedTuple):
    """Every distinct phase key of a term set with its coherent amplitude.

    Groups appear in order of their key's first term.  ``keys`` codes a key
    by its phase slots ``s = channel * N + bin``: ``s * (m N + 1)`` for a
    single slot, ``s * (m N + 1) + t + 1`` for a sorted pair ``s <= t``.
    ``freq / denominator`` is the exact oscillator frequency in units of
    ``delta_omega``; ``coef[:, g]`` sums the coefficients of the key's terms.
    """

    keys: np.ndarray  # (n_groups,) int64
    freq: np.ndarray  # (n_groups,) int64
    coef: np.ndarray  # (m, n_groups) complex
    denominator: int  # grid.period_blocks


@dataclass(frozen=True)
class TermSet:
    """Structure-of-arrays cosine term list for all ``m`` variates at once.

    Linear terms enumerate every (channel, bin) slot, one per oscillator;
    interaction terms enumerate channel pairs ``(p, q)`` for every bin pair
    with a nonzero bispectral tensor.
    """

    grid: FrequencyGrid
    lin_chan: np.ndarray  # (n_lin,) int
    lin_bin: np.ndarray  # (n_lin,) int
    lin_coef: np.ndarray  # (m, n_lin) complex
    int_p: np.ndarray  # (n_int,) int
    int_q: np.ndarray  # (n_int,) int
    int_i: np.ndarray  # (n_int,) int
    int_j: np.ndarray  # (n_int,) int
    int_coef: np.ndarray  # (m, n_int) complex

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def n_linear(self) -> int:
        return self.lin_coef.shape[1]

    @property
    def n_interaction(self) -> int:
        return self.int_coef.shape[1]

    # ------------------------------------------------------------------
    # exact frequencies and phase keys
    # ------------------------------------------------------------------

    @cached_property
    def freq(self) -> np.ndarray:
        """Exact frequency of every term over ``Q = grid.period_blocks``, read-only.

        ``freq[t] / Q`` is term ``t``'s oscillator frequency in units of
        ``delta_omega``, linear terms first, then interaction terms, in
        term-set order.  Every channel offset times ``Q`` is integral, so the
        numerators are exact integers.
        """
        Q = self.grid.period_blocks
        off = np.array([int(o * Q) for o in self.grid.channel_offsets], dtype=np.int64)
        freq = np.concatenate(
            [
                self.lin_bin * Q + off[self.lin_chan],
                (self.int_i + self.int_j) * Q + off[self.int_p] + off[self.int_q],
            ]
        ).astype(np.int64)
        freq.setflags(write=False)
        return freq

    @cached_property
    def _groups(self) -> PhaseGroups:
        N = self.grid.N
        n_slots = self.m * N
        u = self.int_p * N + self.int_i
        v = self.int_q * N + self.int_j
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = np.concatenate(
            [(self.lin_chan * N + self.lin_bin) * (n_slots + 1), lo * (n_slots + 1) + hi + 1]
        ).astype(np.int64)
        coef = np.concatenate([self.lin_coef, self.int_coef], axis=1)
        keys, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        summed = np.empty((self.m, keys.size), dtype=np.complex128)
        for a in range(self.m):  # each key's terms add in term order
            summed[a].real = np.bincount(inverse, coef[a].real, keys.size)
            summed[a].imag = np.bincount(inverse, coef[a].imag, keys.size)
        order = np.argsort(first)  # groups in order of their first term
        groups = PhaseGroups(
            keys[order], self.freq[first[order]], summed[:, order], self.grid.period_blocks
        )
        for arr in groups[:3]:
            arr.setflags(write=False)
        return groups

    def phase_groups(self) -> PhaseGroups:
        """Coherent amplitude of every phase key: terms with equal keys add.

        Built once per term set, on first use.  A key determines its
        oscillator frequency, so grouping by key alone is exact.
        """
        return self._groups

    def _key(self, code: int) -> Key:
        u, rest = divmod(int(code), self.m * self.grid.N + 1)
        slots = (u,) if rest == 0 else (u, rest - 1)
        return tuple(divmod(s, self.grid.N) for s in slots)

    def _active(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequencies and key codes of the groups with a nonzero amplitude."""
        g = self.phase_groups()
        active = np.any(g.coef != 0, axis=0)
        return g.freq[active], g.keys[active]

    def resonant_collisions(self) -> list[tuple[Fraction, list[Key]]]:
        """Distinct phase keys sharing one exact oscillator frequency.

        Only keys with a nonzero coherent amplitude count.  An empty result
        certifies that single-record *second* moments over the fundamental
        period are phase-independent and equal the discrete targets
        (:meth:`triple_resonances` covers the third moments).
        """
        freq, keys = self._active()
        order = np.lexsort((keys, freq))
        freq, keys = freq[order], keys[order]
        values, start, count = np.unique(freq, return_index=True, return_counts=True)
        Q = self.grid.period_blocks
        return [
            (Fraction(int(f), Q), [self._key(k) for k in keys[s : s + c]])
            for f, s, c in zip(values, start, count)
            if c > 1
        ]

    def triple_resonances(self, limit: int = 5000) -> list[tuple[Key, Key, Key]] | None:
        """Term triples whose frequencies cancel without their phases doing so.

        A combination ``nu_a + nu_b = nu_c`` with the phase multiset of ``c``
        different from the union of ``a``'s and ``b``'s survives full-period
        averaging of a triple product with a random value: third moments then
        depend on the phase draw.  An empty list (together with empty
        :meth:`resonant_collisions`) certifies exact seedwise third-moment
        closure.  Returns ``None`` (unknown) when the term set exceeds
        ``limit`` active keys, since the scan is quadratic.
        """
        freq, keys = self._active()
        if freq.size > limit:
            return None
        by_freq: dict[int, list[Key]] = {}
        for f, k in zip(freq.tolist(), keys.tolist()):
            by_freq.setdefault(f, []).append(self._key(k))
        known = np.sort(freq)
        out = []
        for i in range(freq.size):
            sums = freq[i] + freq[i:]
            pos = np.minimum(np.searchsorted(known, sums), known.size - 1)
            ka = self._key(keys[i])
            for h in np.nonzero(known[pos] == sums)[0]:
                kb = self._key(keys[i + h])
                merged = tuple(sorted(ka + kb))
                out += [(ka, kb, kc) for kc in by_freq[int(sums[h])] if kc != merged]
        return sorted(out)

    # ------------------------------------------------------------------
    # discrete moment targets (exact ensemble moments of the term set)
    # ------------------------------------------------------------------

    def target_mean(self, a: int) -> float:
        """Ensemble and full-period temporal mean: zero, every term oscillates."""
        return 0.0

    def target_second(self, a: int, b: int, tau: float) -> float:
        """Exact ``E[f_a(t) f_b(t + tau)]`` of the synthesized process.

        Sum over phase-key groups of ``(1/2) Re[g_a conj(g_b) e^{-i nu tau}]``.
        Equals the single-record circular average over the fundamental period
        whenever the term set is free of resonant collisions.
        """
        g = self.phase_groups()
        nu = g.freq / g.denominator * self.grid.delta_omega
        return float(0.5 * np.sum((g.coef[a] * np.conj(g.coef[b]) * np.exp(-1j * nu * tau)).real))

    def target_third(self, a: int, b: int, c: int, tau1: float, tau2: float) -> float:
        """Exact ``E[f_a(t) f_b(t + tau1) f_c(t + tau2)]``.

        Each interaction term pairs with the two linear terms that share its
        phase draws; the interaction factor may sit in any of the three time
        slots, and for distinct draws the two linear assignments both count.
        At zero lags with real bispectral values this collapses to
        ``6 sum_pairs B * dw^2`` (ordered pairs), the classic discrete
        third-moment identity.
        """
        if self.n_interaction == 0:
            return 0.0
        N = self.grid.N
        # linear terms are one per (channel, bin) slot, in a fixed layout
        lin_slot = np.full((self.m, N), -1, dtype=np.intp)
        lin_slot[self.lin_chan, self.lin_bin] = np.arange(self.n_linear)

        nu = self.freq / self.grid.period_blocks * self.grid.delta_omega
        nu_int = nu[self.n_linear :]
        tu = lin_slot[self.int_p, self.int_i]
        tv = lin_slot[self.int_q, self.int_j]
        nu_u, nu_v = nu[tu], nu[tv]
        doubled = (self.int_p == self.int_q) & (self.int_i == self.int_j)

        fields = (a, b, c)
        lags = (0.0, tau1, tau2)
        total = 0.0
        for slot in range(3):
            o1, o2 = [s for s in range(3) if s != slot]
            cint = self.int_coef[fields[slot]] * np.exp(1j * nu_int * lags[slot])
            for first, second, mask in (
                ((tu, nu_u), (tv, nu_v), None),  # u -> slot o1, v -> slot o2
                ((tv, nu_v), (tu, nu_u), ~doubled),  # swapped, unless u == v
            ):
                z1 = np.conj(self.lin_coef[fields[o1], first[0]]) * np.exp(
                    -1j * first[1] * lags[o1]
                )
                z2 = np.conj(self.lin_coef[fields[o2], second[0]]) * np.exp(
                    -1j * second[1] * lags[o2]
                )
                contrib = 0.25 * (cint * z1 * z2).real
                total += float(contrib.sum() if mask is None else contrib[mask].sum())
        return float(total)

    def target_rms(self, a: int) -> float:
        return float(np.sqrt(max(self.target_second(a, a, 0.0), 0.0)))


def build_second_order_terms(S: CrossSpectrum, factor=None) -> TermSet:
    """Linear-only term set drawing amplitudes from the factor of ``S``."""
    from .decomposition import factor_spectrum

    if factor is None:
        factor = factor_spectrum(S)
    return _assemble(S.grid, factor.H, None, None)


def build_third_order_terms(pure: PureSpectrum, B: CrossBispectrum) -> TermSet:
    """Linear terms from the pure-spectrum factor plus interaction terms."""
    return _assemble(pure.grid, pure.factor.H, pure.inverse.G, B)


def _assemble(
    grid: FrequencyGrid,
    H: np.ndarray,
    G: np.ndarray | None,
    B: CrossBispectrum | None,
) -> TermSet:
    m, N = grid.m, grid.N
    dw = grid.delta_omega

    lin_chan = np.tile(np.arange(m, dtype=np.intp), N)
    lin_bin = np.repeat(np.arange(N, dtype=np.intp), m)
    # c[a] for slot (p, k): 2 conj(H[k][a, p]) sqrt(dw)
    lin_coef = 2.0 * np.sqrt(dw) * np.conj(H[lin_bin, :, lin_chan]).T
    lin_coef = np.ascontiguousarray(lin_coef)

    if B is None or B.is_zero():
        empty_i = np.empty(0, dtype=np.intp)
        return TermSet(
            grid,
            lin_chan,
            lin_bin,
            lin_coef,
            empty_i,
            empty_i,
            empty_i,
            empty_i,
            np.empty((m, 0), dtype=np.complex128),
        )

    pair_nonzero = np.any(B.values != 0, axis=(2, 3, 4))
    ps, qs, is_, js, coefs = [], [], [], [], []
    chan = np.arange(m, dtype=np.intp)
    P, Q = np.meshgrid(chan, chan, indexing="ij")
    for i, j in grid.interaction_pairs():
        if not pair_nonzero[i, j]:
            continue
        # c[a, p, q] = 2 dw sum_{l,n} conj(B[i,j][a,l,n]) G[i][p,l] G[j][q,n]
        tensor = 2.0 * dw * np.einsum(
            "aln,pl,qn->apq", np.conj(B.values[i, j]), G[i], G[j]
        )
        ps.append(P.ravel())
        qs.append(Q.ravel())
        is_.append(np.full(m * m, i, dtype=np.intp))
        js.append(np.full(m * m, j, dtype=np.intp))
        coefs.append(tensor.reshape(m, m * m))

    if ps:
        int_p = np.concatenate(ps)
        int_q = np.concatenate(qs)
        int_i = np.concatenate(is_)
        int_j = np.concatenate(js)
        int_coef = np.concatenate(coefs, axis=1)
    else:
        int_p = int_q = int_i = int_j = np.empty(0, dtype=np.intp)
        int_coef = np.empty((m, 0), dtype=np.complex128)

    for arr in (lin_chan, lin_bin, lin_coef, int_p, int_q, int_i, int_j, int_coef):
        arr.setflags(write=False)
    return TermSet(grid, lin_chan, lin_bin, lin_coef, int_p, int_q, int_i, int_j, int_coef)
