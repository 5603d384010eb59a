"""Exact identities of a single draw, for every method through `Synthesizer`.

They need no targets and no coefficients, only the term structure:

* time shift: adding ``2 pi ((F s) mod (Q m_f)) / (Q m_f)`` to the phase of
  each slot, where ``F / Q`` is the slot's exact frequency in units of
  ``delta_omega``, rolls the full-period record by ``s`` samples.  It pins
  every term's frequency against ``grid.channel_offsets`` (layout,
  rotations, block mixing, tiling), independently of ``TermSet.freq``;
* phase flip: ``phi -> phi + pi`` negates every linear term and keeps every
  interaction term, whose phase is ``phi_u + phi_v``.  So
  ``(x(phi) + x(phi + pi)) / 2`` is the record's interaction part: zero for
  second order, a draw of the interaction terms alone for third order.
"""

import dataclasses

import numpy as np
import pytest

from srm3.fft import Synthesizer
from srm3.grids import OffsetRule
from srm3.simulate import Method, PhaseSet, SamplingPlan, draw_phases, synthesize_direct
from srm3.spectra import CrossBispectrum
from srm3.wind import build_example_targets, example_grid

from _targets import (
    coherent_gaussian,
    collision_free_diagonal,
    collision_free_univariate,
    coupled_third_order,
    frequency_index,
)


def _wind(scale):
    grid = example_grid()
    S, B = build_example_targets(grid)
    return grid, S, CrossBispectrum(grid, B.values * scale)


CASES = {
    "second-wind": (lambda: _wind(0.0), Method.SECOND_ORDER),
    "second-classic": (
        lambda: coherent_gaussian(3, N=12, rule=OffsetRule.SECOND_ORDER_CLASSIC),
        Method.SECOND_ORDER,
    ),
    "second-univariate": (collision_free_univariate, Method.SECOND_ORDER),
    "third-uv": (collision_free_univariate, Method.THIRD_ORDER_UV),
    "third-uv-double-index": (lambda: collision_free_diagonal(1), Method.THIRD_ORDER_UV),
    "third-mv": (lambda: coupled_third_order(m=2, N=16), Method.THIRD_ORDER_MV),
    "third-mv-fft-wind": (lambda: _wind(0.04), Method.THIRD_ORDER_MV_FFT),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def synth(request):
    maker, method = CASES[request.param]
    _, S, B = maker()
    return Synthesizer(S, B, method)  # the default plan covers one full period


def _shifted(phases: PhaseSet, plan: SamplingPlan, s: int) -> PhaseSet:
    """The phases that advance the record by ``s`` samples, in exact integer turns."""
    grid = phases.grid
    Q = grid.period_blocks
    period = Q * plan.m_f
    F = np.array(
        [[int(Q * frequency_index(grid, c, k)) for k in range(grid.N)] for c in range(grid.m)]
    )
    turn = (F * s) % period / period
    return PhaseSet(grid, phases.phi + 2 * np.pi * turn, phases.seed, phases.realization_index)


def _rms(values):
    return float(np.sqrt(np.mean(values**2)))


def test_time_shift_rolls_the_record(synth):
    plan = synth.plan
    assert plan.n_samples == synth.grid.period_blocks * plan.m_f
    phases = draw_phases(5, 0, synth.grid)
    x = synth.draw(phases).values
    for s in (1, 37, plan.n_samples - 1):
        y = synth.draw(_shifted(phases, plan, s)).values
        assert np.abs(y - np.roll(x, -s, axis=1)).max() <= 1e-12 * _rms(x), s


def _interaction_part(synth, phases):
    """``(x(phi) + x(phi + pi)) / 2``."""
    flipped = PhaseSet(synth.grid, phases.phi + np.pi, phases.seed, phases.realization_index)
    return 0.5 * (synth.draw(phases).values + synth.draw(flipped).values)


def test_phase_flip_keeps_only_the_interaction_part(synth):
    phases = draw_phases(9, 0, synth.grid)
    x = synth.draw(phases).values
    part = _interaction_part(synth, phases)
    if synth.method is Method.SECOND_ORDER:
        assert np.abs(part).max() <= 1e-12 * _rms(x)
    else:
        assert synth.terms.n_interaction > 0
        assert _rms(part) > 1e-6 * _rms(x)


def test_phase_flip_equals_a_draw_of_the_interaction_terms():
    # the oracle sums the interaction terms alone, term by term
    _, S, B = coupled_third_order(m=2, N=16)
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV)
    phases = draw_phases(9, 0, synth.grid)
    terms = synth.terms
    alone = dataclasses.replace(terms, lin_coef=np.zeros_like(terms.lin_coef))
    oracle = synthesize_direct(alone, phases, synth.plan)
    x = synth.draw(phases).values
    assert np.abs(_interaction_part(synth, phases) - oracle).max() <= 1e-12 * _rms(x)
