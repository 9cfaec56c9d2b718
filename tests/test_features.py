"""Frequency pools, the Halton sequence, and the paired cos/sin map."""

import numpy as np
import pytest

from rffkrr import (
    FeatureMatrix,
    FrequencyPool,
    KernelSpec,
    PoolSource,
    approx_kernel_entry,
    eval_kernel,
    feature_map,
    features,
    halton,
    sample_mc,
    sample_qmc,
    spectral_density,
)

DENSITY = spectral_density(KernelSpec(1.0), 2)


def test_sample_mc_is_deterministic():
    a = sample_mc(DENSITY, 3, 42)
    b = sample_mc(DENSITY, 3, 42)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert a.frequencies.shape == (3, 2)
    assert a.source is PoolSource.MONTE_CARLO
    np.testing.assert_array_equal(a.weights, np.ones(3))


def test_sample_mc_rejects_empty():
    with pytest.raises(ValueError):
        sample_mc(DENSITY, 0, 0)


def test_halton_base2_prefix():
    points = halton(3, 1)
    np.testing.assert_allclose(points[:, 0], [0.5, 0.25, 0.75])


def test_halton_base3_prefix():
    points = halton(4, 2)
    np.testing.assert_allclose(points[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9])


def test_halton_range_and_dim_limit():
    points = halton(500, 5)
    assert points.min() > 0.0 and points.max() < 1.0
    with pytest.raises(ValueError):
        halton(10, 65)
    with pytest.raises(ValueError):
        halton(0, 1)


def test_sample_qmc_deterministic_without_seed():
    a = sample_qmc(DENSITY, 16)
    b = sample_qmc(DENSITY, 16)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert a.source is PoolSource.QMC
    assert np.all(np.isfinite(a.frequencies))


def test_qmc_beats_mc_median_error():
    # Paired comparison on a fixed dataset: the low-discrepancy pool should
    # approximate at least as well as the median Monte Carlo pool.
    from rffkrr import kernel_matrix, relative_approx_error

    X = np.random.default_rng(12).uniform(size=(200, 2))
    K = kernel_matrix(X, KernelSpec(1.0))
    s = 4096
    qmc_err = relative_approx_error(K, feature_map(X, sample_qmc(DENSITY, s)))
    mc_errs = [
        relative_approx_error(K, feature_map(X, sample_mc(DENSITY, s, seed)))
        for seed in range(20)
    ]
    assert qmc_err <= np.median(mc_errs)


def test_pool_validation():
    with pytest.raises(ValueError):
        FrequencyPool(np.empty((0, 2)), np.empty(0), PoolSource.MONTE_CARLO)
    with pytest.raises(ValueError):
        FrequencyPool(np.ones((2, 1)), np.ones(3), PoolSource.MONTE_CARLO)
    with pytest.raises(ValueError):  # mc pools must be unweighted
        FrequencyPool(np.ones((2, 1)), np.array([1.0, 2.0]), PoolSource.MONTE_CARLO)
    with pytest.raises(ValueError):
        FrequencyPool(np.ones((1, 1)), np.array([-0.5]), PoolSource.RESAMPLED)
    # resampled pools may carry arbitrary nonnegative weights
    pool = FrequencyPool(np.ones((2, 1)), np.array([0.0, 2.5]), PoolSource.RESAMPLED)
    assert pool.size == 2 and pool.dim == 1


def test_feature_matrix_width_check():
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones((4, 3)), 2)


def test_zero_frequency_gives_constant_features():
    pool = FrequencyPool(np.zeros((1, 2)), np.ones(1), PoolSource.MONTE_CARLO)
    Z = feature_map(np.random.default_rng(0).uniform(size=(5, 2)), pool)
    np.testing.assert_allclose(Z.entries, np.tile([1.0, 0.0], (5, 1)))
    np.testing.assert_allclose(Z.entries @ Z.entries.T, np.ones((5, 5)))


def test_unweighted_rows_have_unit_norm():
    X = np.random.default_rng(1).uniform(size=(10, 2))
    Z = feature_map(X, sample_mc(DENSITY, 17, 3)).entries
    np.testing.assert_allclose((Z * Z).sum(axis=1), np.ones(10), atol=1e-12)


def test_feature_map_matches_scalar_loop():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(10, 2))
    pool = FrequencyPool(
        rng.standard_normal((3, 2)),
        np.array([0.5, 1.0, 2.0]),
        PoolSource.RESAMPLED,
    )
    Z = feature_map(X, pool).entries
    gram = Z @ Z.T
    for j in range(10):
        for k in range(10):
            expected = sum(
                pool.weights[i] * np.cos(pool.frequencies[i] @ (X[j] - X[k]))
                for i in range(3)
            ) / 3
            assert gram[j, k] == pytest.approx(expected, abs=1e-12)


def test_feature_map_row_equivariance():
    X = np.random.default_rng(4).uniform(size=(8, 2))
    pool = sample_mc(DENSITY, 5, 9)
    perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
    np.testing.assert_array_equal(
        feature_map(X[perm], pool).entries, feature_map(X, pool).entries[perm]
    )


def _one_shot_map(X, pool):
    # The whole n x s projection at once: the reference the blocked map
    # must reproduce.
    s = pool.size
    projections = X @ pool.frequencies.T
    scale = np.sqrt(pool.weights / s)
    Z = np.empty((X.shape[0], 2 * s))
    Z[:, 0::2] = np.cos(projections) * scale
    Z[:, 1::2] = np.sin(projections) * scale
    return Z


def _block_case(n, s, kind):
    density = spectral_density(KernelSpec(1.0), 14)
    X = np.random.default_rng(n).uniform(size=(n, 14))
    if kind == "qmc":
        return X, sample_qmc(density, s)
    pool = sample_mc(density, s, s)
    if kind == "resampled":
        weights = np.random.default_rng(s).uniform(0.0, 3.0, s)
        pool = FrequencyPool(pool.frequencies, weights, PoolSource.RESAMPLED)
    return X, pool


_ROWS_64 = features._BLOCK_ENTRIES // 64


@pytest.mark.parametrize(
    "n, s, kind",
    [
        (1, 64, "mc"),
        (_ROWS_64, 64, "mc"),
        (_ROWS_64 + 1, 64, "mc"),
        (3 * _ROWS_64 + 777, 64, "mc"),
        (7490, 896, "mc"),
        (5, features._BLOCK_ENTRIES + 8, "mc"),
        (3 * _ROWS_64 + 777, 64, "resampled"),
        (3 * _ROWS_64 + 777, 64, "qmc"),
    ],
)
def test_feature_map_block_boundaries_are_exact(n, s, kind):
    # Widths are multiples of 8: there OpenBLAS computes each row of the
    # projection the same whatever the number of rows in the product.
    X, pool = _block_case(n, s, kind)
    np.testing.assert_array_equal(feature_map(X, pool).entries, _one_shot_map(X, pool))


@pytest.mark.parametrize("s", [255, 951])
def test_feature_map_ragged_width_within_rounding(s):
    # For other widths the BLAS may round the last s mod 8 projection
    # columns differently in a block than in the one-shot product.
    X, pool = _block_case(3000, s, "resampled")
    np.testing.assert_allclose(
        feature_map(X, pool).entries,
        _one_shot_map(X, pool),
        rtol=0,
        atol=100 * np.finfo(float).eps,
    )


def test_feature_map_memory_is_output_plus_blocks(traced_peak):
    X = np.random.default_rng(5).uniform(size=(20000, 14))
    pool = sample_mc(spectral_density(KernelSpec(1.0), 14), 256, 5)
    peak, Z = traced_peak(lambda: feature_map(X, pool).entries)
    block_bytes = features._BLOCK_ENTRIES * Z.itemsize
    assert peak <= Z.nbytes + 4 * block_bytes


def test_feature_map_dimension_mismatch():
    with pytest.raises(ValueError):
        feature_map(np.ones((4, 3)), sample_mc(DENSITY, 2, 0))


def test_approx_kernel_entry_trivials():
    pool = sample_mc(DENSITY, 6, 11)
    x = np.array([0.2, 0.9])
    assert approx_kernel_entry(x, x, pool) == pytest.approx(1.0, abs=1e-12)
    dead = FrequencyPool(pool.frequencies, np.zeros(6), PoolSource.RESAMPLED)
    assert approx_kernel_entry(x, np.zeros(2), dead) == 0.0


def test_mc_estimate_concentrates():
    # distance-1 pair: estimates should land within 0.05 of exp(-1) for at
    # least 19 of 20 seeds at s = 10^4
    density = spectral_density(KernelSpec(1.0), 3)
    x, x_prime = np.zeros(3), np.array([1.0, 0.0, 0.0])
    hits = sum(
        abs(approx_kernel_entry(x, x_prime, sample_mc(density, 10_000, seed)) - np.exp(-1))
        < 0.05
        for seed in range(20)
    )
    assert hits >= 19


def test_mc_estimate_unbiased_over_pools():
    x, x_prime = np.array([0.1, 0.4]), np.array([0.7, 0.2])
    target = eval_kernel(x, x_prime, KernelSpec(1.0))
    estimates = [
        approx_kernel_entry(x, x_prime, sample_mc(DENSITY, 64, seed))
        for seed in range(200)
    ]
    assert abs(np.mean(estimates) - target) < 4 / np.sqrt(200 * 64)


def test_weighted_map_enumeration_identity():
    # For a finite frequency set under proposal q with ratios r = p/q, the
    # q-expectation of r * cos(w.delta) enumerates exactly to the p-mean.
    freqs = np.array([[0.3], [1.1], [-2.0], [0.5]])
    q = np.array([0.4, 0.1, 0.2, 0.3])
    ratios = (1.0 / 4.0) / q
    delta = 0.7
    lhs = float((q * ratios * np.cos(freqs.ravel() * delta)).sum())
    rhs = float(np.cos(freqs.ravel() * delta).mean())
    assert lhs == pytest.approx(rhs, abs=1e-12)
