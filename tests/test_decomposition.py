"""Per-bin factorization, and the inverse the pure split takes of it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srm3.decomposition import _inverse, factor_spectrum
from srm3.errors import (
    InvalidInputError,
    NotPositiveSemidefiniteError,
    SingularPureSpectrumError,
)
from srm3.grids import FrequencyGrid
from srm3.pure import compute_pure_multivariate
from srm3.spectra import CrossBispectrum, CrossSpectrum

from _targets import coherent_gaussian


def _spectrum(matrices):
    matrices = np.asarray(matrices, dtype=complex)
    grid = FrequencyGrid(matrices.shape[1], matrices.shape[0], 0.5)
    return CrossSpectrum(grid, matrices)


def test_identity_factors_to_identity():
    S = _spectrum(np.tile(np.eye(2), (3, 1, 1)))
    factor = factor_spectrum(S)
    for k in range(3):
        np.testing.assert_allclose(factor.H[k], np.eye(2), atol=1e-14)
    assert np.all(np.angle(factor.H) == 0)


def test_diagonal_factors_to_elementwise_roots():
    S = _spectrum([np.diag([4.0, 9.0])])
    factor = factor_spectrum(S)
    np.testing.assert_allclose(factor.H[0], np.diag([2.0, 3.0]), atol=1e-14)


def test_reconstruction_on_correlated_spectrum():
    _, S, _ = coherent_gaussian(3, N=12)
    factor = factor_spectrum(S)
    for k in range(S.N):
        HHt = factor.H[k] @ np.conj(factor.H[k].T)
        err = np.linalg.norm(HHt - S.values[k]) / max(np.linalg.norm(S.values[k]), 1e-300)
        assert err < 1e-10


def test_factor_is_deterministic():
    _, S, _ = coherent_gaussian(3, N=6)
    H1 = factor_spectrum(S).H
    H2 = factor_spectrum(S).H
    assert np.array_equal(H1, H2)


def test_eigenvector_columns_unitary():
    _, S, _ = coherent_gaussian(2, N=8)
    factor = factor_spectrum(S)
    for k in range(S.N):
        H = factor.H[k]
        # columns of H are orthogonal (eigen construction): H* H is diagonal
        gram = np.conj(H.T) @ H
        off = gram - np.diag(np.diag(gram))
        assert np.linalg.norm(off) < 1e-10 * max(np.linalg.norm(gram), 1e-300)


def test_non_hermitian_rejected():
    vals = np.tile(np.eye(2, dtype=complex), (2, 1, 1))
    vals[1, 0, 1] = 0.5
    with pytest.raises(InvalidInputError):
        factor_spectrum(_spectrum(vals))


def test_indefinite_rejected_with_bin():
    vals = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
    vals[2] = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveSemidefiniteError) as excinfo:
        factor_spectrum(_spectrum(vals))
    assert excinfo.value.bin_index == 2


def test_near_zero_negative_eigenvalue_clipped():
    vals = np.tile(np.diag([1.0, -1e-14]).astype(complex), (1, 1, 1))
    factor = factor_spectrum(_spectrum(vals))
    # clipped to zero, not an error
    assert factor.H[0, 1, 1] == 0.0


def test_zero_trace_bins_skipped():
    vals = np.zeros((3, 2, 2), dtype=complex)
    vals[1] = np.eye(2)
    factor = factor_spectrum(_spectrum(vals))
    assert factor.zero_bins.tolist() == [True, False, True]
    np.testing.assert_array_equal(factor.H[[0, 2]], 0)
    np.testing.assert_allclose(_inverse(factor.H[1]), np.eye(2), atol=1e-14)


def test_inverse_trivials_and_multiply_back():
    S = _spectrum([np.diag([4.0, 9.0])])
    G = _inverse(factor_spectrum(S).H[0])
    np.testing.assert_allclose(G, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    _, S, _ = coherent_gaussian(3, N=10)
    factor = factor_spectrum(S)
    for k in range(S.N):
        err = np.linalg.norm(_inverse(factor.H[k]) @ factor.H[k] - np.eye(3))
        assert err < 1e-10


def test_singular_factor_names_bin():
    # the split inverts a source bin's factor: a rank-one bin 1 feeding the
    # pair (2, 1) is refused by name
    vals = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
    vals[1] = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    S = _spectrum(vals)
    assert _inverse(factor_spectrum(S).H[1]) is None
    b = np.zeros((4, 4, 2, 2, 2), dtype=complex)
    b[2, 1] = b[1, 2] = 0.1
    with pytest.raises(SingularPureSpectrumError) as excinfo:
        compute_pure_multivariate(S, CrossBispectrum(S.grid, b))
    assert excinfo.value.bin_index == 1
    assert "singular" in str(excinfo.value)


def test_univariate_reduction():
    vals = np.array([[[4.0]], [[0.25]]], dtype=complex)
    S = _spectrum(vals)
    factor = factor_spectrum(S)
    np.testing.assert_allclose(factor.H[:, 0, 0], [2.0, 0.5])
    G = np.array([_inverse(H) for H in factor.H])
    np.testing.assert_allclose(G[:, 0, 0], [0.5, 2.0])
    assert np.all(np.angle(factor.H) == 0) and np.all(np.angle(G) == 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_reconstruction_property_random_psd(seed, m):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    mat = A @ np.conj(A.T)
    S = _spectrum([mat])
    H = factor_spectrum(S).H[0]
    err = np.linalg.norm(H @ np.conj(H.T) - mat)
    assert err <= 1e-10 * max(np.linalg.norm(mat), 1.0)

