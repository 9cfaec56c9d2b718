import numpy as np
import pytest

from rffkrr import (
    KernelSpec,
    SpectralDensity,
    eval_kernel,
    feature_map,
    kernel_matrix,
    relative_approx_error,
    sample_mc,
    spectral_density,
)
from rffkrr.kernels import matrix_entries


def test_eval_kernel_basics():
    spec = KernelSpec(1.0)
    assert eval_kernel([0.3, 0.7], [0.3, 0.7], spec) == 1.0
    assert eval_kernel([0.0], [1.0], spec) == pytest.approx(np.exp(-1.0))
    # bandwidth enters as sigma^2 in the denominator
    assert eval_kernel([0.0], [1.0], KernelSpec(2.0)) == pytest.approx(np.exp(-0.25))


def test_kernel_matrix_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(7, 3))
    spec = KernelSpec(0.8)
    K = kernel_matrix(X, spec)
    for i in range(7):
        for j in range(7):
            assert K[i, j] == pytest.approx(eval_kernel(X[i], X[j], spec), abs=1e-12)


def test_kernel_matrix_structure():
    X = np.random.default_rng(5).uniform(size=(40, 4))
    K = kernel_matrix(X, KernelSpec(1.0))
    np.testing.assert_array_equal(K, K.T)
    np.testing.assert_array_equal(np.diag(K), np.ones(40))
    assert np.linalg.eigvalsh(K).min() > -1e-10
    assert K.max() <= 1.0 and K.min() >= 0.0


def test_kernel_matrix_input_validation():
    with pytest.raises(ValueError):
        kernel_matrix(np.empty((0, 2)), KernelSpec(1.0))
    with pytest.raises(ValueError):
        kernel_matrix(np.array([[np.nan, 0.0]]), KernelSpec(1.0))


def test_kernel_spec_requires_positive_bandwidth():
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            KernelSpec(bad)


def test_matrix_entries_accepts_both_forms():
    K = kernel_matrix(np.eye(3), KernelSpec(1.0))
    assert isinstance(K, np.ndarray)
    np.testing.assert_array_equal(matrix_entries(K), K)
    np.testing.assert_array_equal(matrix_entries(np.eye(2)), np.eye(2))
    for bad in (
        np.ones(4),
        np.ones((2, 3)),
        np.array([[1.0, 0.5], [0.4, 1.0]]),  # not symmetric
        np.empty((0, 0)),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
    ):
        with pytest.raises(ValueError):
            matrix_entries(bad)


def test_spectral_density_variance_convention():
    spec = KernelSpec(2.0)
    density = spectral_density(spec, 3)
    assert density.variance == pytest.approx(2.0 / 4.0)
    assert density.dim == 3


def test_spectral_density_icdf():
    density = SpectralDensity(dim=1, variance=2.0)
    assert density.icdf(np.array([0.5]))[0] == 0.0
    mapped = density.icdf(np.array([0.0, 1e-9, 0.5, 1 - 1e-9, 1.0]))
    assert np.all(np.isfinite(mapped))
    assert np.all(np.diff(mapped) >= 0)


def test_sample_variance_matches_density():
    density = spectral_density(KernelSpec(1.0), 1)
    draws = density.sample(100_000, np.random.default_rng(0))
    assert 1.97 <= draws.var() <= 2.03
    assert abs(draws.mean()) <= 0.02


def test_relative_approx_error_zero_for_exact_factor():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(30, 2))
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 40, 4)
    Z = feature_map(X, pool).entries
    K = Z @ Z.T
    assert relative_approx_error(K, Z) < 1e-12


def test_relative_approx_error_matches_eig_oracle():
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(25, 2))
    K = kernel_matrix(X, KernelSpec(1.0))
    Z = feature_map(X, sample_mc(spectral_density(KernelSpec(1.0), 2), 8, 7)).entries
    residual = K - Z @ Z.T
    expected = np.abs(np.linalg.eigvalsh(residual)).max()
    expected /= np.abs(np.linalg.eigvalsh(K)).max()
    assert relative_approx_error(K, Z) == pytest.approx(expected, rel=1e-8)


def test_relative_approx_error_shape_mismatch():
    K = kernel_matrix(np.eye(3), KernelSpec(1.0))
    with pytest.raises(ValueError):
        relative_approx_error(K, np.ones((4, 2)))
