"""Leverage scores: exact, surrogate, and approximate variants, plus the
resampling plans and pipelines built from them.

The scale convention threaded through everything: scores are defined on
raw cos/sin column pairs (whose squared norms sum to n exactly), while
feature matrices carry a 1/sqrt(l) column normalization, so the scoring
functions multiply their quadratic forms by the pool size to undo it.
"""

import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffkrr import (
    FrequencyPool,
    KernelSpec,
    NumericalError,
    build_resample_plan,
    cross_validate,
    degrees_of_freedom,
    erls_baseline_grid,
    erls_baseline_pipeline,
    exact_leverage,
    feature_map,
    fit,
    kernel_matrix,
    make_sampler,
    predict,
    regularized_factor,
    resample,
    sample_mc,
    spectral_density,
    surrogate_dof,
    surrogate_leverage,
    surrogate_pipeline,
)
from rffkrr.experiments import METHODS, generate_features
from rffkrr.features import label_correlations, spawn_seeds
from rffkrr.leverage import _surrogate_scores, approx_ridge_leverage
from rffkrr import features, linalg


def _instance(seed, n=30, d=2, l=8):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    density = spectral_density(KernelSpec(1.0), d)
    pool = sample_mc(density, l, seed + 1000)
    return X, y, pool, feature_map(X, pool).entries


def _scored_pool(method, X, y, lam, pool_size, variant, seed):
    """The resampling pipelines' pool and its scores, rebuilt from the same
    seeds step by step: the surrogate from the streamed y^T Z, the
    baseline from the pool map (one row per value when ``lam`` is a
    sequence).  Returns (pool, scores, draw seed)."""
    seed_pool, seed_draw = spawn_seeds(seed, 2)
    density = spectral_density(KernelSpec(1.0), X.shape[1])
    pool = sample_mc(density, pool_size, seed_pool)
    if method == "SurrogateRFF":
        correlations = label_correlations(X, pool, y)
        scores = _surrogate_scores(correlations, len(y), lam, variant == "simplified")
    else:
        scores = approx_ridge_leverage(feature_map(X, pool).entries, lam)
    return pool, scores, seed_draw


def _per_draw_reference(method, X, y, s, lam, pool_size, variant, seed):
    """The resampling pipelines' draws kept apart: one frequency per draw,
    weight r_i / (l q_i).  Returns (draw indices, per-draw pool)."""
    pool, scores, seed_draw = _scored_pool(method, X, y, lam, pool_size, variant, seed)
    plan = build_resample_plan(scores)
    draws = np.random.default_rng(seed_draw).choice(
        pool_size, size=s, replace=True, p=plan
    )
    weights = pool.weights[draws] / (pool_size * plan[draws])
    return draws, FrequencyPool(pool.frequencies[draws], weights)


def test_exact_leverage_matches_explicit_inverse():
    X, y, pool, Z = _instance(8, n=6, l=5)
    lam = 0.1
    K = kernel_matrix(X, KernelSpec(1.0))
    scores = exact_leverage(regularized_factor(K, lam), Z)
    Minv = np.linalg.inv(K + 6 * lam * np.eye(6))
    for i in range(5):
        c = Z[:, 2 * i] * np.sqrt(5)  # undo the 1/sqrt(l) column scale
        s = Z[:, 2 * i + 1] * np.sqrt(5)
        expected = c @ Minv @ c + s @ Minv @ s
        assert scores[i] == pytest.approx(expected, abs=1e-10)


def test_surrogate_closed_form_small_case():
    # one unit-weight frequency w = 1 at x = (0, pi): cosine column
    # (1, -1), sine column (0, sin pi ~ 1e-16), y = (1, -1).  Simplified
    # (y.c)^2 / (n^2 lam) = 4 / 2; full adds n (|c|^2+|s|^2) / (n^2 lam)
    # = 4 / 2.
    pool = FrequencyPool(np.ones((1, 1)), np.ones(1))
    Z = feature_map(np.array([[0.0], [np.pi]]), pool).entries
    y = np.array([1.0, -1.0])
    full = surrogate_leverage(y, Z, 0.5)
    simplified = surrogate_leverage(y, Z, 0.5, simplified=True)
    assert full[0] == pytest.approx(4.0, abs=1e-15)
    assert simplified[0] == pytest.approx(2.0, abs=1e-15)


def test_surrogate_scores_refuse_zero_points():
    X, y, pool, Z = _instance(4, n=10, l=6)
    with pytest.raises(ValueError, match="no labels"):
        surrogate_leverage(y[:0], Z[:0], 0.5)
    with pytest.raises(ValueError, match="no labels"):
        surrogate_pipeline(X[:0], y[:0], KernelSpec(1.0), 4, 0.5, pool_size=6, seed=1)


def test_simplified_score_zero_when_labels_orthogonal():
    Z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    scores = surrogate_leverage(np.array([1.0, 1.0]), Z, 0.3, simplified=True)
    assert scores[0] == 0.0


def test_full_minus_simplified_is_constant():
    # Raw cos/sin column pairs satisfy |c|^2 + |s|^2 = n exactly, so the
    # full variant only adds the constant n * n / (n^2 lam) = 1/lam.
    X, y, pool, Z = _instance(7, n=30, l=12)
    lam = 0.25
    full = surrogate_leverage(y, Z, lam)
    simplified = surrogate_leverage(y, Z, lam, simplified=True)
    np.testing.assert_allclose(full - simplified, 1.0 / lam, rtol=1e-12)


def test_surrogate_dominates_exact_leverage():
    worst = np.inf
    for seed in range(5):
        X, y, pool, Z = _instance(seed, n=50, d=3, l=20)
        K = kernel_matrix(X, KernelSpec(1.0))
        for lam in (0.05, 0.1, 0.5, 1.0):
            exact = exact_leverage(regularized_factor(K, lam), Z)
            surr = surrogate_leverage(y, Z, lam)
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
    plan = build_resample_plan(np.array([3.0, 1.0]))
    np.testing.assert_allclose(plan, [0.75, 0.25])
    uniform = build_resample_plan(np.full(5, 2.2))
    np.testing.assert_allclose(uniform, 0.2)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=12),
    st.floats(min_value=1e-8, max_value=1e8),
)
def test_plan_scale_invariance(raw_scores, scale):
    per = np.asarray(raw_scores)
    base = build_resample_plan(per)
    scaled = build_resample_plan(per * scale)
    assert abs(base - scaled).max() <= 1e-14
    assert abs(base.sum() - 1.0) <= 1e-12


def test_plan_rejects_degenerate_scores():
    with pytest.raises(NumericalError):
        build_resample_plan(np.zeros(3))
    pool = sample_mc(spectral_density(KernelSpec(1.0), 1), 3, 1)
    with pytest.raises(ValueError):
        resample(pool, np.ones(3), 4, 9)


def test_label_flip_leaves_simplified_plan_unchanged():
    X, y, pool, Z = _instance(23, l=10)
    a = build_resample_plan(surrogate_leverage(y, Z, 0.1, simplified=True))
    b = build_resample_plan(surrogate_leverage(-y, Z, 0.1, simplified=True))
    np.testing.assert_array_equal(a, b)


def test_simplified_plan_matches_double_loop():
    # probabilities proportional to |sum_j y_j e^{-i w.x_j}|^2, expanded as
    # squared cosine plus squared sine correlations per frequency
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(8, 2))
    y = np.where(rng.uniform(size=8) > 0.5, 1.0, -1.0)
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 16, 33)
    Z = feature_map(X, pool).entries
    plan = build_resample_plan(surrogate_leverage(y, Z, 0.1, simplified=True))
    raw = np.empty(16)
    for i in range(16):
        c = sum(y[j] * np.cos(pool.frequencies[i] @ X[j]) for j in range(8))
        s = sum(y[j] * np.sin(pool.frequencies[i] @ X[j]) for j in range(8))
        raw[i] = c**2 + s**2
    np.testing.assert_allclose(plan, raw / raw.sum(), atol=1e-12)


def test_resample_weight_trivials():
    pool = sample_mc(spectral_density(KernelSpec(1.0), 1), 4, 1)
    out = resample(pool, np.ones(4), 3, 9)
    np.testing.assert_array_equal(out.weights, np.ones(3))

    two = sample_mc(spectral_density(KernelSpec(1.0), 1), 2, 1)
    out = resample(two, np.array([1.0, 0.0]), 1, 9)
    np.testing.assert_array_equal(out.frequencies, two.frequencies[:1])
    np.testing.assert_array_equal(out.weights, [0.5])  # 1 / (l * prob) = 1/2


def test_resample_determinism_and_validation():
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 6, 2)
    scores = np.arange(1.0, 7.0)
    a = resample(pool, scores, 4, 5)
    b = resample(pool, scores, 4, 5)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    with pytest.raises(ValueError):
        resample(sample_mc(spectral_density(KernelSpec(1.0), 2), 5, 2), scores, 4, 5)


def test_resampled_estimator_unbiased_by_enumeration():
    # Expectation under the plan of weight * cos(w.delta) must equal the
    # plain pool mean, exactly, whatever the probabilities are.
    freqs = np.array([[0.3], [1.1], [-2.0]])
    plan = build_resample_plan(np.array([3.0, 1.0, 4.0]))
    delta = 0.7
    weights = 1.0 / (3 * plan)
    lhs = float((plan * weights * np.cos(freqs.ravel() * delta)).sum())
    rhs = float(np.cos(freqs.ravel() * delta).mean())
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_surrogate_pipeline_runs_without_solves():
    X, y, pool, Z = _instance(3, n=40, l=8)
    linalg.reset_solve_count()
    out, feats = surrogate_pipeline(
        X, y, KernelSpec(1.0), 4, 0.1, pool_size=8, seed=2
    )
    assert linalg.solve_count() == 0
    # Repeated draws merge: one frequency per distinct draw, at most s.
    draws, reference = _per_draw_reference(
        "SurrogateRFF", X, y, 4, 0.1, 8, "simplified", 2
    )
    assert out.size == np.unique(draws).size <= 4
    ref = feature_map(X, reference).entries
    np.testing.assert_allclose(feats @ feats.T, ref @ ref.T, rtol=1e-12, atol=1e-12)


def test_erls_baseline_pipeline_pays_for_solves():
    X, y, pool, Z = _instance(3, n=40, l=8)
    linalg.reset_solve_count()
    erls_baseline_pipeline(X, KernelSpec(1.0), 4, 0.1, pool_size=8, seed=2)
    # One factor and one triangular inverse of the regularized pool Gram.
    assert linalg.solve_count() == 2


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
    for pipeline in (
        partial(surrogate_pipeline, X, y),
        partial(erls_baseline_pipeline, X),
    ):
        seq = np.random.SeedSequence(7)
        d, _ = pipeline(KernelSpec(1.0), 4, 0.1, pool_size=12, seed=seq)
        e, _ = pipeline(KernelSpec(1.0), 4, 0.1, pool_size=12, seed=seq)
        f, _ = pipeline(KernelSpec(1.0), 4, 0.1, pool_size=12, seed=7)
        np.testing.assert_array_equal(d.frequencies, e.frequencies)
        np.testing.assert_array_equal(d.weights, e.weights)
        np.testing.assert_array_equal(d.frequencies, f.frequencies)


def test_pipeline_gathered_features_match_direct_map():
    # Every method's generation hands back the features of its own pool,
    # the resampling pipelines' included: they map their drawn pools.
    X, y, *_ = _instance(21, n=8)
    for method in METHODS:
        for variant in ("simplified", "full"):
            pool, feats = generate_features(
                method, X, y, KernelSpec(1.0), 4, 8, variant, 0.1, 3
            )
            expected = 4
            if method in ("SurrogateRFF", "LeverageRFF"):
                draws, _ = _per_draw_reference(method, X, y, 4, 0.1, 8, variant, 3)
                expected = np.unique(draws).size
                assert expected <= 4
            assert pool.size == expected
            np.testing.assert_array_equal(feats, feature_map(X, pool).entries)


@pytest.mark.parametrize("pool_mult", [1, 4])
@pytest.mark.parametrize(
    "method, variant",
    [
        ("SurrogateRFF", "simplified"),
        ("SurrogateRFF", "full"),
        ("LeverageRFF", "simplified"),
    ],
)
def test_merged_draws_match_per_draw_reference(method, variant, pool_mult):
    # Merging repeated draws into one weighted frequency leaves the
    # feature-space kernel, and so every ridge result, unchanged.
    X, y, *_ = _instance(41, n=60)
    X_new = np.random.default_rng(42).uniform(size=(25, 2))
    s, lam, seed = 16, 0.1, 5
    pool_size = pool_mult * s
    merged, feats = generate_features(
        method, X, y, KernelSpec(1.0), s, pool_size, variant, lam, seed
    )
    draws, reference = _per_draw_reference(
        method, X, y, s, lam, pool_size, variant, seed
    )
    assert merged.size == np.unique(draws).size < s
    ref = feature_map(X, reference).entries

    # The pipeline draws through the public resample, bit for bit.
    pool, scores, seed_draw = _scored_pool(method, X, y, lam, pool_size, variant, seed)
    public = resample(pool, scores, s, seed_draw)
    np.testing.assert_array_equal(merged.frequencies, public.frequencies)
    np.testing.assert_array_equal(merged.weights, public.weights)

    np.testing.assert_allclose(feats @ feats.T, ref @ ref.T, rtol=1e-12, atol=1e-12)

    got = predict(fit(feats, y, lam, merged), X_new)
    want = predict(fit(ref, y, lam, reference), X_new)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    # Unbiasedness bookkeeping: the merged weights, rescaled by s/u, sum
    # to the per-draw weights r_i / (l q_i).
    assert merged.weights.sum() * s / merged.size == pytest.approx(
        reference.weights.sum(), rel=1e-12
    )

    def reference_sampler(X_tr, y_tr, grid_, seed_):
        pairs = []
        for lam_ in grid_:
            _, per_draw = _per_draw_reference(
                method, X_tr, y_tr, s, lam_, pool_size, variant, seed_
            )
            pairs.append((per_draw, feature_map(X_tr, per_draw).entries))
        return pairs

    sampler = make_sampler(method, KernelSpec(1.0), s, pool_size, variant)
    grid = (0.05, 0.1, 0.5, 1.0)
    np.testing.assert_array_equal(
        cross_validate(X, y, sampler, grid, folds=3, seed=9).fold_accuracy,
        cross_validate(X, y, reference_sampler, grid, folds=3, seed=9).fold_accuracy,
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
    X, y, pool, Z = _instance(31, n=20, l=6)
    lam = 0.2
    approx = approx_ridge_leverage(Z, lam)
    K = Z @ Z.T
    exact = exact_leverage(regularized_factor(K, lam), Z)
    np.testing.assert_allclose(6 * approx, exact, atol=1e-10)


def test_approx_ridge_leverage_grid_rows_equal_one_value_calls():
    # One Gram for the whole grid; row k is the one-value score at grid[k].
    X, y, pool, Z = _instance(12, n=40, l=8)
    grid = (0.01, 0.2, 3.0)
    rows = approx_ridge_leverage(Z, grid)
    assert rows.shape == (3, 8)
    for row, lam in zip(rows, grid):
        np.testing.assert_array_equal(row, approx_ridge_leverage(Z, lam))
    for bad in ((), (0.1, 0.0), (0.1, np.nan)):
        with pytest.raises(ValueError):
            approx_ridge_leverage(Z, bad)


def test_approx_ridge_leverage_flattens_at_huge_lambda():
    X, y, pool, Z = _instance(3, n=40, l=8)
    plan = build_resample_plan(approx_ridge_leverage(Z, 1e6))
    assert np.abs(plan - 1 / 8).max() < 1e-3


def _solved_ridge_leverage(Z, lam):
    """The scorer as a full solve: diag(G (G + n lam I)^{-1}) read off
    (G + n lam I)^{-1} G, pair-summed and clipped.  Returns the scores and
    cond(G + n lam I)."""
    gram = Z.T @ Z
    shifted = gram + Z.shape[0] * lam * np.eye(gram.shape[0])
    solved = linalg.psd_solve(shifted, gram)
    scores = np.clip(np.diag(solved).reshape(-1, 2).sum(axis=1), 0.0, None)
    return scores, np.linalg.cond(shifted)


@pytest.mark.parametrize("n, l", [(200, 32), (40, 48)])
def test_approx_ridge_leverage_matches_solved_diagonal(n, l):
    # n > 2l, and 2l > n where G = Z^T Z is rank-deficient.  A score is
    # 1 - n lam diag((G + n lam I)^{-1}), a sum of m = 2l squared entries of
    # the inverse Cholesky factor subtracted from 1, so it carries the
    # order-m forward-error constant of a Cholesky inverse: m eps cond.  At
    # lam = 10, cond is about 1.07 and one rounding of n lam d ~ 1 is already
    # eps / 2, so eps cond alone is not a bound this formula can meet.
    X, y, pool, Z = _instance(40 + l, n=n, d=3, l=l)
    grid = (1e-4, 1e-2, 1.0, 10.0)
    rows = approx_ridge_leverage(Z, grid)
    eps = np.finfo(np.float64).eps
    for row, lam in zip(rows, grid):
        expected, cond = _solved_ridge_leverage(Z, lam)
        np.testing.assert_allclose(row, expected, rtol=0, atol=2 * l * eps * cond)


def test_approx_ridge_leverage_draws_as_solved_diagonal():
    X, y, pool, Z = _instance(5, n=2000, d=3, l=256)
    for lam in (1e-3, 0.1):
        expected, _ = _solved_ridge_leverage(Z, lam)
        drawn = resample(pool, approx_ridge_leverage(Z, lam), 128, 17)
        reference = resample(pool, expected, 128, 17)
        assert np.array_equal(drawn.frequencies, reference.frequencies)


def _pool_map_and_buffer(l, n=3000):
    X = np.random.default_rng(8).uniform(size=(n, 14))
    pool = sample_mc(spectral_density(KernelSpec(1.0), 14), l, 9)
    return feature_map(X, pool).entries, (2 * l) ** 2 * 8


def test_approx_ridge_leverage_peak_memory(traced_peak):
    # The Gram plus one private copy of G + n lam I for every value but the
    # last, each factored and inverted in place: under 3.5 buffers of
    # (2l)^2 doubles.
    Z, buffer = _pool_map_and_buffer(512)
    peak, _ = traced_peak(lambda: approx_ridge_leverage(Z, (0.01, 0.1)))
    assert peak <= 3.5 * buffer


def test_approx_ridge_leverage_one_value_factors_its_gram_in_place(traced_peak):
    # One value shifts, factors and inverts G itself: about one buffer of
    # (2l)^2 doubles, where a private copy of G would make two.
    Z, buffer = _pool_map_and_buffer(512)
    before = Z.copy()
    peak, scores = traced_peak(lambda: approx_ridge_leverage(Z, 0.01))
    assert peak <= 1.5 * buffer
    # Row 0 of a grid call is scored on a copy of G.
    np.testing.assert_array_equal(scores, approx_ridge_leverage(Z, (0.01, 0.1))[0])
    np.testing.assert_array_equal(Z, before)


def _drawn_pool_oracle(method, X, y, s, lam, pool_size, seed):
    """The resampling pipelines rebuilt step by step: the pool scored,
    drawn through the public resample, and the drawn pool mapped.
    Returns one (pool, entries) pair per lambda value."""
    pool, scores, seed_draw = _scored_pool(method, X, y, lam, pool_size, "simplified", seed)
    pairs = []
    for row in np.atleast_2d(scores):
        drawn = resample(pool, row, s, seed_draw)
        pairs.append((drawn, feature_map(X, drawn).entries))
    return pairs


def _assert_pairs_equal(pair, expected):
    (pool, Z), (want_pool, want_entries) = pair, expected
    assert np.array_equal(pool.frequencies, want_pool.frequencies)
    assert np.array_equal(pool.weights, want_pool.weights)
    assert type(Z) is np.ndarray
    assert np.array_equal(Z, want_entries)


@pytest.mark.parametrize("pool_mult", [1, 4])
def test_pipelines_equal_map_of_drawn_pool(pool_mult):
    # 3000 rows of up to 2 x 256 columns span several row blocks, so the
    # surrogate pipeline's streamed y^T Z sums several block products.
    s, spec, grid = 64, KernelSpec(1.0), (1e-3, 0.05, 1.0)
    rng = np.random.default_rng(pool_mult)
    X = rng.uniform(size=(3000, 3))
    y = np.where(rng.uniform(size=3000) > 0.5, 1.0, -1.0)
    l = pool_mult * s
    _assert_pairs_equal(
        surrogate_pipeline(X, y, spec, s, 0.1, pool_size=l, seed=5),
        _drawn_pool_oracle("SurrogateRFF", X, y, s, 0.1, l, 5)[0],
    )
    _assert_pairs_equal(
        erls_baseline_pipeline(X, spec, s, 0.05, pool_size=l, seed=5),
        _drawn_pool_oracle("LeverageRFF", X, y, s, 0.05, l, 5)[0],
    )
    oracle = _drawn_pool_oracle("LeverageRFF", X, y, s, grid, l, 5)
    rows = erls_baseline_grid(X, spec, s, grid, pool_size=l, seed=5)
    assert len(rows) == len(grid)
    for pair, expected in zip(rows, oracle):
        _assert_pairs_equal(pair, expected)


def test_surrogate_pipeline_peak_is_pool_map_plus_blocks(traced_peak, participants):
    # The pool is scored by streaming y^T Z, so its (n, 2l) map is never
    # held.  The scoring pass holds only row blocks; the peak is the
    # (n, 2u) result plus the projection blocks of its own map.
    participants(2)
    n, l = 20000, 256
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(n, 14))
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    peak, (pool, Z) = traced_peak(
        lambda: surrogate_pipeline(X, y, KernelSpec(1.0), l, 0.1, seed=2)
    )
    block_bytes = features._BLOCK_ENTRIES * 8
    assert peak <= Z.nbytes + 4 * block_bytes < n * 2 * l * 8
    # The returned Z owns exactly its n x 2u doubles.
    assert Z.base is None
    assert Z.flags.owndata and Z.flags.c_contiguous
    assert Z.nbytes == n * 2 * pool.size * 8


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_pipelines_run_under_a_tracer(hook):
    # Tracers, profilers and debuggers (coverage, cProfile, pdb) hold a
    # snapshot of each frame's locals, a second reference to every array
    # the pipelines make.  The pipelines must not depend on holding the
    # only reference to an array.
    X, y, *_ = _instance(8, n=300, d=3)
    expected = [
        surrogate_pipeline(X, y, KernelSpec(1.0), 16, 0.1, pool_size=64, seed=3),
        erls_baseline_pipeline(X, KernelSpec(1.0), 16, 0.1, pool_size=64, seed=3),
    ]
    snapshots = []

    def tracer(frame, event, arg):
        snapshots.append(len(frame.f_locals))
        return tracer if hook == "settrace" else None

    install = getattr(sys, hook)
    install(tracer)
    try:
        got = [
            surrogate_pipeline(X, y, KernelSpec(1.0), 16, 0.1, pool_size=64, seed=3),
            erls_baseline_pipeline(X, KernelSpec(1.0), 16, 0.1, pool_size=64, seed=3),
        ]
    finally:
        install(None)
    assert snapshots
    for pair, want in zip(got, expected):
        _assert_pairs_equal(pair, want)


def test_score_validation():
    # build_resample_plan is where scores from outside are checked.
    for bad in ([1.0, -2.0], [1.0, np.nan], [1.0, np.inf], []):
        with pytest.raises(ValueError):
            build_resample_plan(np.array(bad))
    with pytest.raises(NumericalError):
        build_resample_plan(np.zeros(3))
    # resample checks the scores against the pool and 1 <= s <= l.
    pool = sample_mc(spectral_density(KernelSpec(1.0), 2), 4, 3)
    for scores, s in ((np.ones(3), 2), (np.ones(5), 2), (np.ones(4), 0), (np.ones(4), 5)):
        with pytest.raises(ValueError):
            resample(pool, scores, s, 1)
    Z = np.ones((4, 2))
    with pytest.raises(ValueError):
        surrogate_leverage(np.ones(4), Z, 0.0)
    with pytest.raises(ValueError):
        surrogate_leverage(np.ones(3), Z, 0.1)
    # The scorers take (n, 2l) arrays: one cos/sin column pair per frequency.
    for bad in (np.ones((4, 3)), np.ones(4), np.ones((4, 2, 1))):
        with pytest.raises(ValueError):
            surrogate_leverage(np.ones(4), bad, 0.1)
        with pytest.raises(ValueError):
            exact_leverage(regularized_factor(np.eye(4), 0.1), bad)
        with pytest.raises(ValueError):
            approx_ridge_leverage(bad, 0.1)
