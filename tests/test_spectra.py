"""Structural validation of spectral and bispectral targets."""

import warnings

import numpy as np
import pytest

from srm3.grids import FrequencyGrid, OffsetRule
from srm3.spectra import (
    CrossBispectrum,
    CrossSpectrum,
    validate_bispectrum,
    validate_spectrum,
    zero_bispectrum,
)

from _targets import collision_free_univariate, coupled_third_order


def _grid(m=2, N=4):
    return FrequencyGrid(m, N, 0.5)


def test_hermitian_psd_spectrum_passes():
    g = _grid()
    vals = np.tile(np.array([[2.0, 0.5 + 0.1j], [0.5 - 0.1j, 1.0]]), (4, 1, 1))
    assert validate_spectrum(CrossSpectrum(g, vals)).ok


def test_hermitian_violation_names_bin():
    g = _grid()
    vals = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    vals[2, 0, 1] = 0.3  # S_12 != conj(S_21) at bin 2
    report = validate_spectrum(CrossSpectrum(g, vals))
    assert not report.ok
    hermitian = [v for v in report.violations if v.condition == "hermitian"]
    assert hermitian and hermitian[0].where[0] == 2


def test_psd_violation_reports_eigenvalue():
    g = _grid()
    vals = np.tile(np.diag([1.0, -1.0]).astype(complex), (4, 1, 1))
    report = validate_spectrum(CrossSpectrum(g, vals))
    conditions = {v.condition for v in report.violations}
    assert "positive-semidefinite" in conditions
    psd = [v for v in report.violations if v.condition == "positive-semidefinite"]
    assert psd[0].magnitude == pytest.approx(1.0)


def test_zero_bispectrum_passes():
    assert validate_bispectrum(zero_bispectrum(_grid())).ok


def test_pair_swap_violation_detected():
    g = FrequencyGrid(1, 4, 0.5, OffsetRule.UNIVARIATE_ERGODIC)
    vals = np.zeros((4, 4, 1, 1, 1), dtype=complex)
    vals[1, 2] = 1.0
    vals[2, 1] = 0.5  # should be conj(vals[1, 2])
    report = validate_bispectrum(CrossBispectrum(g, vals))
    assert any(v.condition == "conjugate-pair-swap" for v in report.violations)


def test_equal_frequency_entries_must_be_real():
    g = FrequencyGrid(1, 4, 0.5, OffsetRule.UNIVARIATE_ERGODIC)
    vals = np.zeros((4, 4, 1, 1, 1), dtype=complex)
    vals[1, 1] = 1.0j
    report = validate_bispectrum(CrossBispectrum(g, vals))
    assert not report.ok


def test_diagonal_pair_index_symmetry_checked():
    g = _grid(m=2)
    vals = np.zeros((4, 4, 2, 2, 2), dtype=complex)
    vals[1, 1, 0, 0, 1] = 1.0  # B[.., l=0, n=1] without the (l=1, n=0) partner
    report = validate_bispectrum(CrossBispectrum(g, vals))
    assert any(v.condition == "diagonal-index-swap" for v in report.violations)


def test_synthetic_targets_validate():
    _, S, B = collision_free_univariate()
    assert validate_spectrum(S).ok
    assert validate_bispectrum(B).ok
    _, S, B = coupled_third_order()
    assert validate_spectrum(S).ok
    assert validate_bispectrum(B).ok


def test_shape_errors():
    g = _grid()
    with pytest.raises(Exception):
        CrossSpectrum(g, np.zeros((3, 2, 2)))  # wrong bin count
    with pytest.raises(Exception):
        CrossBispectrum(g, np.zeros((4, 4, 2, 2)))  # missing tensor axis


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
def test_non_finite_spectrum_reported_per_bin(bad):
    g = FrequencyGrid(2, 4, 0.5)
    s = np.zeros((4, 2, 2), dtype=complex)
    s[:, 0, 0] = s[:, 1, 1] = 1.0
    s[2, 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the other checks never see the bad bin
        report = validate_spectrum(CrossSpectrum(g, s))
    assert [(v.condition, v.where) for v in report.violations] == [("finite", (2, 1, 0))]
