"""Leverage scores: exact, surrogate, and approximate variants, plus the
resampling plans and pipelines built from them.

The scale convention threaded through everything: scores are defined on
raw cos/sin column pairs (whose squared norms sum to n exactly), while
feature matrices carry a 1/sqrt(l) column normalization, so the scoring
functions multiply their quadratic forms by the pool size to undo it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffkrr import (
    KernelSpec,
    LeverageScores,
    NumericalError,
    PoolSource,
    ResamplePlan,
    ScoreKind,
    build_resample_plan,
    degrees_of_freedom,
    erls_baseline_pipeline,
    exact_leverage,
    feature_map,
    kernel_matrix,
    regularized_factor,
    resample,
    sample_mc,
    spectral_density,
    surrogate_dof,
    surrogate_leverage,
    surrogate_pipeline,
)
from rffkrr.experiments import METHODS, generate_features
from rffkrr.features import FeatureMatrix
from rffkrr.leverage import approx_ridge_leverage
from rffkrr import linalg


def _instance(seed, n=30, d=2, l=8):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    density = spectral_density(KernelSpec(1.0), d)
    pool = sample_mc(density, l, seed + 1000)
    return X, y, pool, feature_map(X, pool), density.pdf(pool.frequencies)


def test_exact_leverage_matches_explicit_inverse():
    X, y, pool, Z, dens = _instance(8, n=6, l=5)
    lam = 0.1
    K = kernel_matrix(X, KernelSpec(1.0))
    scores = exact_leverage(regularized_factor(K, lam), Z, dens)
    Minv = np.linalg.inv(K + 6 * lam * np.eye(6))
    for i in range(5):
        c = Z.entries[:, 2 * i] * np.sqrt(5)  # undo the 1/sqrt(l) column scale
        s = Z.entries[:, 2 * i + 1] * np.sqrt(5)
        expected = dens[i] * (c @ Minv @ c + s @ Minv @ s)
        assert scores.per_frequency[i] == pytest.approx(expected, abs=1e-10)
    assert scores.kind is ScoreKind.EXACT_ERLS


def test_surrogate_closed_form_small_case():
    # one frequency, cosine column (1, 0), sine column zero, y = (1, 1):
    # full variant (1/(n^2 lam)) [ (y.c)^2 + n (|c|^2+|s|^2) ] = (1 + 2) / 2
    Z = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), 1)
    y = np.array([1.0, 1.0])
    full = surrogate_leverage(y, Z, 0.5)
    simplified = surrogate_leverage(y, Z, 0.5, simplified=True)
    assert full.per_frequency[0] == pytest.approx(1.5, abs=1e-15)
    assert simplified.per_frequency[0] == pytest.approx(0.5, abs=1e-15)
    assert full.kind is ScoreKind.SURROGATE
    assert simplified.kind is ScoreKind.SURROGATE_SIMPLIFIED


def test_simplified_score_zero_when_labels_orthogonal():
    Z = FeatureMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1)
    scores = surrogate_leverage(np.array([1.0, 1.0]), Z, 0.3, simplified=True)
    assert scores.per_frequency[0] == 0.0


def test_full_minus_simplified_is_constant():
    # Raw cos/sin column pairs satisfy |c|^2 + |s|^2 = n exactly, so the
    # full variant only adds the constant n * n / (n^2 lam) = 1/lam.
    X, y, pool, Z, _ = _instance(7, n=30, l=12)
    lam = 0.25
    full = surrogate_leverage(y, Z, lam).per_frequency
    simplified = surrogate_leverage(y, Z, lam, simplified=True).per_frequency
    np.testing.assert_allclose(full - simplified, 1.0 / lam, rtol=1e-12)


def test_surrogate_dominates_exact_leverage():
    worst = np.inf
    for seed in range(5):
        X, y, pool, Z, dens = _instance(seed, n=50, d=3, l=20)
        K = kernel_matrix(X, KernelSpec(1.0))
        for lam in (0.05, 0.1, 0.5, 1.0):
            exact = exact_leverage(regularized_factor(K, lam), Z, dens).per_frequency
            surr = surrogate_leverage(y, Z, lam, density_values=dens).per_frequency
            worst = min(worst, float((surr - exact).min()))
            assert surrogate_dof(K, y, lam) >= degrees_of_freedom(K, lam)
    assert worst >= -1e-10


def test_degrees_of_freedom_trivials():
    assert degrees_of_freedom(np.eye(2), 0.5) == pytest.approx(1.0)
    assert degrees_of_freedom(np.eye(4), 1e6) < 1e-4 * 4


def test_degrees_of_freedom_matches_eigen_oracle():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((8, 8))
    K = A @ A.T
    lam = 0.2
    eigs = np.linalg.eigvalsh(K)
    expected = (eigs / (eigs + 8 * lam)).sum()
    assert degrees_of_freedom(K, lam) == pytest.approx(expected, abs=1e-10)


def test_surrogate_dof_values():
    y = np.array([1.0, -1.0])
    assert surrogate_dof(np.eye(2), y, 0.5) == pytest.approx(3.0)
    # rank-one term vanishes for zero labels
    assert surrogate_dof(np.eye(2), np.zeros(2), 0.5) == pytest.approx(
        np.trace(np.eye(2)) / (2 * 0.5)
    )


def test_surrogate_dof_trace_bound():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(50, 4))
        y = np.where(rng.uniform(size=50) > 0.5, 1.0, -1.0)
        K = kernel_matrix(X, KernelSpec(1.0))
        for lam in (0.05, 0.5):
            bound = 2.0 * np.trace(K) / (50 * lam)
            assert surrogate_dof(K, y, lam) <= bound + 1e-12


def test_build_plan_normalization():
    scores = LeverageScores(np.array([3.0, 1.0]), 4.0, ScoreKind.SURROGATE)
    plan = build_resample_plan(scores, 1)
    np.testing.assert_allclose(plan.probabilities, [0.75, 0.25])
    uniform = build_resample_plan(
        LeverageScores(np.full(5, 2.2), 11.0, ScoreKind.EXACT_ERLS), 3
    )
    np.testing.assert_allclose(uniform.probabilities, 0.2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=12),
    st.floats(min_value=1e-8, max_value=1e8),
)
def test_plan_scale_invariance(raw_scores, scale):
    per = np.asarray(raw_scores)
    base = build_resample_plan(LeverageScores(per, per.sum(), ScoreKind.SURROGATE), 1)
    scaled = build_resample_plan(
        LeverageScores(per * scale, per.sum() * scale, ScoreKind.SURROGATE), 1
    )
    assert abs(base.probabilities - scaled.probabilities).max() <= 1e-14
    assert abs(base.probabilities.sum() - 1.0) <= 1e-12


def test_plan_rejects_degenerate_scores():
    zeros = LeverageScores(np.zeros(3), 0.0, ScoreKind.SURROGATE_SIMPLIFIED)
    with pytest.raises(NumericalError):
        build_resample_plan(zeros, 2)
    with pytest.raises(ValueError):
        build_resample_plan(LeverageScores(np.ones(3), 3.0, ScoreKind.SURROGATE), 4)


def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan(2, 1, np.array([0.9, 0.2]), ScoreKind.SURROGATE)  # sum != 1
    with pytest.raises(ValueError):
        ResamplePlan(3, 1, np.array([0.5, 0.5]), ScoreKind.SURROGATE)


def test_label_flip_leaves_simplified_plan_unchanged():
    X, y, pool, Z, _ = _instance(23, l=10)
    a = build_resample_plan(surrogate_leverage(y, Z, 0.1, simplified=True), 4)
    b = build_resample_plan(surrogate_leverage(-y, Z, 0.1, simplified=True), 4)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)


def test_simplified_plan_matches_double_loop():
    # probabilities proportional to |sum_j y_j e^{-i w.x_j}|^2, expanded as
    # squared cosine plus squared sine correlations per frequency
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(8, 2))
    y = np.where(rng.uniform(size=8) > 0.5, 1.0, -1.0)
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 16, 33)
    Z = feature_map(X, pool)
    plan = build_resample_plan(surrogate_leverage(y, Z, 0.1, simplified=True), 4)
    raw = np.empty(16)
    for i in range(16):
        c = sum(y[j] * np.cos(pool.frequencies[i] @ X[j]) for j in range(8))
        s = sum(y[j] * np.sin(pool.frequencies[i] @ X[j]) for j in range(8))
        raw[i] = c**2 + s**2
    np.testing.assert_allclose(plan.probabilities, raw / raw.sum(), atol=1e-12)


def test_resample_weight_trivials():
    pool = sample_mc(spectral_density(KernelSpec(1.0), 1), 4, 1)
    uniform = build_resample_plan(
        LeverageScores(np.ones(4), 4.0, ScoreKind.SURROGATE), 3
    )
    out = resample(uniform, pool, 9)
    np.testing.assert_array_equal(out.weights, np.ones(3))
    assert out.source is PoolSource.SURROGATE_RESAMPLED

    two = sample_mc(spectral_density(KernelSpec(1.0), 1), 2, 1)
    degenerate = build_resample_plan(
        LeverageScores(np.array([1.0, 0.0]), 1.0, ScoreKind.EXACT_ERLS), 1
    )
    out = resample(degenerate, two, 9)
    np.testing.assert_array_equal(out.frequencies, two.frequencies[:1])
    np.testing.assert_array_equal(out.weights, [0.5])  # 1 / (l * prob) = 1/2
    assert out.source is PoolSource.LEVERAGE_RESAMPLED


def test_resample_determinism_and_validation():
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 6, 2)
    plan = build_resample_plan(
        LeverageScores(np.arange(1.0, 7.0), 21.0, ScoreKind.SURROGATE), 4
    )
    a = resample(plan, pool, 5)
    b = resample(plan, pool, 5)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    with pytest.raises(ValueError):
        resample(plan, sample_mc(spectral_density(KernelSpec(1.0), 2), 5, 2), 5)


def test_resampled_estimator_unbiased_by_enumeration():
    # Expectation under the plan of weight * cos(w.delta) must equal the
    # plain pool mean, exactly, whatever the probabilities are.
    freqs = np.array([[0.3], [1.1], [-2.0]])
    plan = build_resample_plan(
        LeverageScores(np.array([3.0, 1.0, 4.0]), 8.0, ScoreKind.SURROGATE), 2
    )
    delta = 0.7
    weights = 1.0 / (3 * plan.probabilities)
    lhs = float((plan.probabilities * weights * np.cos(freqs.ravel() * delta)).sum())
    rhs = float(np.cos(freqs.ravel() * delta).mean())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_surrogate_pipeline_runs_without_solves():
    X, y, pool, Z, _ = _instance(3, n=40, l=8)
    linalg.reset_solve_count()
    out, _ = surrogate_pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=8, seed=2)
    assert linalg.solve_count() == 0
    assert out.size == 4
    assert out.source is PoolSource.SURROGATE_RESAMPLED


def test_erls_baseline_pipeline_pays_for_solves():
    X, y, pool, Z, _ = _instance(3, n=40, l=8)
    linalg.reset_solve_count()
    out, _ = erls_baseline_pipeline(
        X, y, KernelSpec(1.0), 4, 0.1, pool_size=8, seed=2
    )
    assert linalg.solve_count() > 0
    assert out.source is PoolSource.LEVERAGE_RESAMPLED


def test_pipeline_determinism():
    X, y, *_ = _instance(6, n=25)
    a, _ = surrogate_pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=7)
    b, _ = surrogate_pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=7)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.weights, b.weights)
    c, _ = surrogate_pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=8)
    assert not np.array_equal(a.frequencies, c.frequencies)
    # One SeedSequence object passed twice draws the same pool both times,
    # and the same pool as its integer seed.
    for pipeline in (surrogate_pipeline, erls_baseline_pipeline):
        seq = np.random.SeedSequence(7)
        d, _ = pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=seq)
        e, _ = pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=seq)
        f, _ = pipeline(X, y, KernelSpec(1.0), 4, 0.1, pool_size=12, seed=7)
        np.testing.assert_array_equal(d.frequencies, e.frequencies)
        np.testing.assert_array_equal(d.weights, e.weights)
        np.testing.assert_array_equal(d.frequencies, f.frequencies)


def test_pipeline_gathered_features_match_direct_map():
    # Every method's generation hands back the features of its own pool;
    # the resampling pipelines gather pooled columns instead of remapping.
    X, y, *_ = _instance(21, n=8)
    for method in METHODS:
        for variant in ("simplified", "full"):
            pool, feats = generate_features(
                method, X, y, KernelSpec(1.0), 4, 8, variant, 0.1, 3
            )
            assert feats.n_frequencies == pool.size == 4
            np.testing.assert_allclose(
                feats.entries, feature_map(X, pool).entries, atol=1e-12
            )


def test_pipeline_argument_validation():
    X, y, *_ = _instance(1, n=10)
    with pytest.raises(ValueError):
        surrogate_pipeline(X, y, KernelSpec(1.0), 8, 0.1, pool_size=4)
    with pytest.raises(ValueError):
        surrogate_pipeline(X, y, KernelSpec(1.0), 2, 0.1, variant="fast")


def test_approx_ridge_leverage_pushthrough():
    # With the kernel replaced by Z Z^T, the Gram-side scores equal the
    # kernel-side scores divided by the pool size.
    X, y, pool, Z, _ = _instance(31, n=20, l=6)
    lam = 0.2
    approx_scores = approx_ridge_leverage(Z, lam)
    assert approx_scores.kind is ScoreKind.APPROX_ERLS
    approx = approx_scores.per_frequency
    K = Z.entries @ Z.entries.T
    exact = exact_leverage(regularized_factor(K, lam), Z).per_frequency
    np.testing.assert_allclose(6 * approx, exact, atol=1e-10)


def test_approx_ridge_leverage_flattens_at_huge_lambda():
    X, y, pool, Z, _ = _instance(3, n=40, l=8)
    plan = build_resample_plan(approx_ridge_leverage(Z, 1e6), 4)
    assert np.abs(plan.probabilities - 1 / 8).max() < 1e-3


def test_score_validation():
    with pytest.raises(ValueError):
        LeverageScores(np.array([1.0, -2.0]), 1.0, ScoreKind.SURROGATE)
    with pytest.raises(ValueError):
        LeverageScores(np.empty(0), 0.0, ScoreKind.SURROGATE)
    Z = FeatureMatrix(np.ones((4, 2)), 1)
    with pytest.raises(ValueError):
        surrogate_leverage(np.ones(4), Z, 0.0)
    with pytest.raises(ValueError):
        surrogate_leverage(np.ones(3), Z, 0.1)
    with pytest.raises(ValueError):
        exact_leverage(regularized_factor(np.eye(4), 0.1), Z, np.ones(2))
