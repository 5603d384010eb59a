"""The compiled synthesis path: equivalence with the direct sum, determinism,
compile-once behaviour and the wire codes of every method."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srm3
from srm3 import estimators
from srm3.cli import main
from srm3.config import RunConfig
from srm3.errors import CoefficientOverflowError
from srm3.estimators import build_terms
from srm3.fft import Synthesizer
from srm3.grids import FrequencyGrid, OffsetRule
from srm3.simulate import METHOD_CODES, Method, SamplingPlan, draw_phases, synthesize_direct
from srm3.spectra import CrossBispectrum, CrossSpectrum
from srm3.workbench import run_simulation

from _targets import coupled_third_order

from test_cli import _write_uv_config


def _targets(m, N, rule, scale):
    """Coherent spectrum with a feasible full bispectral tensor on any rule."""
    _, S, B = coupled_third_order(m, N)
    grid = FrequencyGrid(m, N, S.grid.delta_omega, rule)
    return grid, CrossSpectrum(grid, S.values), CrossBispectrum(grid, scale * B.values)


@st.composite
def cases(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    rules = [OffsetRule.MULTIVARIATE_DOUBLE_INDEX, OffsetRule.SECOND_ORDER_CLASSIC]
    if m == 1:
        rules.append(OffsetRule.UNIVARIATE_ERGODIC)
    rule = draw(st.sampled_from(rules))
    methods = [Method.SECOND_ORDER, Method.THIRD_ORDER_MV, Method.THIRD_ORDER_MV_FFT]
    if m == 1:
        methods.append(Method.THIRD_ORDER_UV)
    method = draw(st.sampled_from(methods))
    N = draw(st.integers(6, 12))
    m_f = draw(st.sampled_from([2 * N, 4 * N]))
    blocks = draw(st.sampled_from(["one", "two", "period", "2 periods + 1"]))
    scale = draw(st.sampled_from([0.0, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**64 - 1))
    return m, rule, method, N, m_f, blocks, scale, seed


@settings(max_examples=60, deadline=None)
@given(cases())
def test_synthesizer_equals_direct_sum(case):
    m, rule, method, N, m_f, blocks, scale, seed = case
    grid, S, B = _targets(m, N, rule, scale)
    period = grid.period_blocks
    n_blocks = {"one": 1, "two": 2, "period": period, "2 periods + 1": 2 * period + 1}[blocks]
    plan = SamplingPlan.for_grid(grid, m_f, n_blocks)
    synth = Synthesizer(S, B, method, plan)
    phases = draw_phases(seed, 3, grid)
    record = synth.draw(phases)
    direct = synthesize_direct(build_terms(S, B, method), phases, plan)
    rms = max(np.sqrt(np.mean(direct**2, axis=1)).max(), 1e-300)
    assert record.values.shape == (m, n_blocks * m_f)
    assert np.abs(record.values - direct).max() <= 1e-8 * rms
    assert (record.method, record.seed, record.realization_index) == (method, seed, 3)
    if n_blocks > period:  # block b + period repeats block b byte for byte
        span = period * m_f
        values = record.values
        assert values[:, span:].tobytes() == values[:, : values.shape[1] - span].tobytes()
    owner = record.values
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == record.values.nbytes  # no larger buffer kept alive


def test_record_bytes_do_not_depend_on_draw_order():
    grid, S, B = coupled_third_order(m=3, N=12)
    synth = Synthesizer(S, B, Method.THIRD_ORDER_MV_FFT, SamplingPlan.for_grid(grid))
    alone = Synthesizer(S, B, Method.THIRD_ORDER_MV_FFT, SamplingPlan.for_grid(grid))
    forward = [synth.record(5, r).values.tobytes() for r in range(4)]
    backward = [synth.record(5, r).values.tobytes() for r in reversed(range(4))][::-1]
    assert forward == backward
    assert alone.record(5, 2).values.tobytes() == forward[2]


_HASH_WIND_RECORDS = """
import hashlib
from srm3 import wind
from srm3.fft import Synthesizer
from srm3.spectra import CrossBispectrum
S, B = wind.build_example_targets(wind.example_grid())
synth = Synthesizer(S, CrossBispectrum(S.grid, 0.04 * B.values))
print(*(hashlib.sha256(synth.record(0, r).values.tobytes()).hexdigest() for r in (0, 3)))
"""


def test_record_bytes_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(srm3.__file__))
    hashes = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        child = subprocess.run(
            [sys.executable, "-c", _HASH_WIND_RECORDS],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        hashes.append(child.stdout.split())
    assert len(hashes[0]) == 2
    assert hashes[0] == hashes[1]


def test_overflow_is_raised_when_compiling():
    grid, S, B = coupled_third_order(m=2, N=16)
    short = SamplingPlan(1.0, grid.N // 2, grid.N // 2, 1)
    with pytest.raises(CoefficientOverflowError):
        Synthesizer(S, B, Method.THIRD_ORDER_MV, short)


def test_phase_groups_are_built_lazily_and_once():
    grid, S, B = coupled_third_order(m=2, N=16)
    terms = Synthesizer(S, B, Method.THIRD_ORDER_MV).terms
    assert "_groups" not in vars(terms)
    first = terms.phase_groups()
    terms.target_second(0, 1, 0.3)
    assert terms.phase_groups() is first


def test_run_simulation_splits_and_builds_once(tmp_path, monkeypatch):
    calls = []
    split = estimators.compute_pure_multivariate
    monkeypatch.setattr(
        estimators, "compute_pure_multivariate", lambda *a: calls.append(1) or split(*a)
    )
    grid, S, B = coupled_third_order(m=2, N=16)
    config = RunConfig(
        grid, Method.THIRD_ORDER_MV_FFT, 4, 5, "tabulated", S, B, out_dir=str(tmp_path)
    )
    report = run_simulation(config)
    assert len(calls) == 1
    assert report.metadata["realizations"] == 5


@pytest.mark.parametrize(
    "method,code",
    [
        (Method.SECOND_ORDER, 1),
        (Method.THIRD_ORDER_UV, 2),
        (Method.THIRD_ORDER_MV, 3),
        (Method.THIRD_ORDER_MV_FFT, 4),
    ],
)
def test_sample_header_keeps_method_wire_code(tmp_path, method, code):
    config = _write_uv_config(tmp_path)
    out = tmp_path / method.value
    argv = ["simulate", "--config", str(config), "--out", str(out), "--method", method.value]
    assert main(argv + ["--realizations", "1"]) == 0
    with open(os.path.join(out, "sample_0000.srm3"), "rb") as fh:
        header = fh.read(25)
    assert header[24] == METHOD_CODES[method] == code  # byte 24: method code
