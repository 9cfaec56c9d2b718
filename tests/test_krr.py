import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffkrr import (
    KernelSpec,
    NumericalError,
    classify_accuracy,
    cross_validate,
    feature_map,
    fit,
    fit_exact,
    generate_features,
    kernel_matrix,
    make_sampler,
    predict,
    sample_mc,
    spectral_density,
)
from rffkrr import linalg

DENSITY = spectral_density(KernelSpec(1.0), 2)


def test_fit_scalar_closed_form():
    # Z = (1, 0)^T, y = (1, 0), n*lam = 1: beta = 1 / (1 + 1)
    model = fit(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]), 0.5)
    assert model.beta[0] == pytest.approx(0.5, abs=1e-12)


def test_fit_zero_labels_gives_zero_coefficients():
    Z = np.random.default_rng(0).standard_normal((6, 4))
    model = fit(Z, np.zeros(6), 0.1)
    np.testing.assert_array_equal(model.beta, np.zeros(4))


def test_fit_matches_explicit_inverse():
    rng = np.random.default_rng(40)
    X = rng.uniform(size=(12, 2))
    y = np.where(rng.uniform(size=12) > 0.5, 1.0, -1.0)
    Z = feature_map(X, sample_mc(DENSITY, 3, 77)).entries
    lam = 0.2
    model = fit(Z, y, lam)
    expected = np.linalg.inv(Z.T @ Z + 12 * lam * np.eye(6)) @ Z.T @ y
    np.testing.assert_allclose(model.beta, expected, atol=1e-9)


def test_fit_residual_contract():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        model = fit(Z, y, 0.05)
        rhs = Z.T @ y
        residual = rhs - (Z.T @ Z + 30 * 0.05 * np.eye(8)) @ model.beta
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.ones(4), 0.1)
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.ones(3), 0.0)
    with pytest.raises(ValueError):
        fit(np.array([[np.inf, 0.0]]), np.ones(1), 0.1)


def test_fit_exact_identity_kernel():
    y = np.array([2.0, -1.0, 0.5, 3.0])
    alpha = fit_exact(np.eye(4), y, 0.25)  # n*lam = 1
    np.testing.assert_allclose(alpha, y / 2, atol=1e-12)


def test_fit_exact_heavy_regularization_shrinks():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(20, 2))
    y = np.where(rng.uniform(size=20) > 0.5, 1.0, -1.0)
    alpha = fit_exact(kernel_matrix(X, KernelSpec(1.0)), y, 1e6)
    assert np.linalg.norm(alpha) <= 1e-5 * np.linalg.norm(y)


def test_fit_exact_refuses_large_n():
    with pytest.raises(ValueError, match="cap"):
        fit_exact(np.eye(2001), np.ones(2001), 0.1)


def test_feature_fit_matches_exact_fit_when_factor_is_exact():
    # With K = Z Z^T exactly, training predictions from the feature-space
    # solve and the kernel-space solve coincide.
    rng = np.random.default_rng(40)
    X = rng.uniform(size=(12, 2))
    y = np.where(rng.uniform(size=12) > 0.5, 1.0, -1.0)
    pool = sample_mc(DENSITY, 10, 50)
    Z = feature_map(X, pool).entries
    K = Z @ Z.T
    alpha = fit_exact(K, y, 0.3)
    model = fit(Z, y, 0.3, pool)
    np.testing.assert_allclose(Z @ model.beta, K @ alpha, atol=1e-6)


def test_predict_matches_row_loop():
    rng = np.random.default_rng(40)
    X = rng.uniform(size=(12, 2))
    y = rng.standard_normal(12)
    pool = sample_mc(DENSITY, 10, 50)
    model = fit(feature_map(X, pool).entries, y, 0.3, pool)
    X_new = rng.uniform(size=(8, 2))
    preds = predict(model, X_new)
    for j in range(8):
        row = feature_map(X_new[j : j + 1], pool).entries.ravel()
        assert preds[j] == pytest.approx(row @ model.beta, abs=1e-12)


def test_predict_requires_pool():
    model = fit(np.ones((2, 2)), np.ones(2), 0.1)
    with pytest.raises(ValueError):
        predict(model, np.ones((1, 2)))


def test_accuracy_counting():
    labels = np.array([1.0, 1.0, 1.0, -1.0])
    assert classify_accuracy(labels, labels) == 1.0
    assert classify_accuracy(-labels, labels) == 0.0
    assert classify_accuracy(np.array([1.0, -1.0, 1.0, -1.0]), labels) == 0.75
    # zero predictions count as +1
    assert classify_accuracy(np.zeros(2), np.array([1.0, -1.0])) == 0.5


def test_accuracy_validation():
    with pytest.raises(ValueError):
        classify_accuracy(np.ones(2), np.ones(3))
    with pytest.raises(ValueError):
        classify_accuracy(np.ones(2), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        classify_accuracy(np.empty(0), np.empty(0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_accuracy_scale_invariant(scale):
    preds = np.array([0.3, -2.0, 0.01, -0.4])
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    assert classify_accuracy(preds * scale, labels) == classify_accuracy(preds, labels)


def test_data_fit_term_nondecreasing_in_lambda():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(25, 2))
    y = np.where(rng.uniform(size=25) > 0.4, 1.0, -1.0)
    Z = feature_map(X, sample_mc(DENSITY, 6, 9)).entries
    fits = []
    for lam in (0.01, 0.05, 0.1, 0.5, 1.0, 5.0):
        model = fit(Z, y, lam)
        residual = y - Z @ model.beta
        fits.append(float(residual @ residual) / 25)
    assert np.all(np.diff(fits) >= -1e-12)


def _blob(seed=0, n_pos=70, n_neg=30, spread=0.05):
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [
            rng.normal(0.25, spread, size=(n_pos, 2)),
            rng.normal(0.75, spread, size=(n_neg, 2)),
        ]
    )
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    return X, y


def test_cv_single_lambda_grid():
    X, y = _blob()
    sampler = make_sampler("RFF", KernelSpec(1.0), 4, 4)
    report = cross_validate(X, y, sampler, (0.3,), folds=3)
    assert report.chosen_lambda == 0.3
    assert report.lambda_grid == (0.3,)


def test_cv_deduplicates_grid():
    X, y = _blob()
    sampler = make_sampler("RFF", KernelSpec(1.0), 4, 4)
    a = cross_validate(X, y, sampler, (0.1, 0.5), folds=3, seed=4)
    b = cross_validate(X, y, sampler, (0.5, 0.1, 0.5, 0.1), folds=3, seed=4)
    assert a.lambda_grid == b.lambda_grid
    np.testing.assert_array_equal(a.fold_accuracy, b.fold_accuracy)
    assert a.chosen_lambda == b.chosen_lambda


def test_cv_prefers_interpolation_on_imbalanced_blob():
    # lam = 10 washes predictions toward the majority sign (0.7 accuracy);
    # lam = 1e-6 lets the model separate the blobs.
    X, y = _blob()
    sampler = make_sampler("RFF", KernelSpec(1.0), 8, 8)
    report = cross_validate(X, y, sampler, (1e-6, 10.0), folds=5, seed=0)
    assert report.chosen_lambda == 1e-6
    assert report.mean_accuracy[0] > report.mean_accuracy[1]


def test_cv_ties_resolve_to_larger_lambda():
    # both regularizers classify the well-separated blob perfectly
    X, y = _blob(n_pos=50, n_neg=50)
    sampler = make_sampler("RFF", KernelSpec(1.0), 16, 16)
    report = cross_validate(X, y, sampler, (0.01, 0.02), folds=3, seed=1)
    assert report.mean_accuracy[0] == report.mean_accuracy[1] == 1.0
    assert report.chosen_lambda == 0.02


def test_cv_deterministic_and_shape():
    X, y = _blob(seed=3)
    sampler = make_sampler("SurrogateRFF", KernelSpec(1.0), 4, 8)
    a = cross_validate(X, y, sampler, (0.05, 0.5), folds=4, seed=11)
    b = cross_validate(X, y, sampler, (0.05, 0.5), folds=4, seed=11)
    np.testing.assert_array_equal(a.fold_accuracy, b.fold_accuracy)
    # One SeedSequence object passed twice gives the folds of its integer seed.
    seq = np.random.SeedSequence(11)
    for _ in range(2):
        c = cross_validate(X, y, sampler, (0.05, 0.5), folds=4, seed=seq)
        np.testing.assert_array_equal(a.fold_accuracy, c.fold_accuracy)
    assert a.fold_accuracy.shape == (4, 2)
    np.testing.assert_allclose(a.mean_accuracy, a.fold_accuracy.mean(axis=0))


def test_cv_fresh_equal_pairs_give_identical_report():
    # A sampler that hands back a fresh copy of the shared pair for every
    # lambda makes cross_validate rebuild the Gram and the validation map
    # at each value; the report must not change.
    X, y = _blob(seed=5)
    grid = (0.05, 0.3, 1.0)
    for method in ("RFF", "QMC", "SurrogateRFF"):
        shared = make_sampler(method, KernelSpec(1.0), 6, 12)

        def fresh(X_tr, y_tr, grid_, seed_):
            pool, Z = shared(X_tr, y_tr, grid_, seed_)[0]
            return [(pool, Z.copy()) for _ in grid_]

        a = cross_validate(X, y, shared, grid, folds=3, seed=2)
        b = cross_validate(X, y, fresh, grid, folds=3, seed=2)
        np.testing.assert_array_equal(a.fold_accuracy, b.fold_accuracy)
        assert a.chosen_lambda == b.chosen_lambda


def _per_lambda_sampler(method, spec, s, pool_size, variant="simplified"):
    # The flow before samplers took the grid: one full generation per value.
    def sampler(X_tr, y_tr, grid, seed):
        return [
            generate_features(
                method, X_tr, y_tr, spec, s, pool_size, variant, lam, seed
            )
            for lam in grid
        ]

    return sampler


def _remapping_reference_cv(X, y, sampler, grid, folds, seed):
    # The straightforward loop: take each lambda's pool from a per-lambda
    # sampler, map the training rows again, and fit and predict through
    # the public API.
    children = np.random.SeedSequence(seed).spawn(folds + 1)
    permutation = np.random.default_rng(children[0]).permutation(len(y))
    accuracy = np.zeros((folds, len(grid)))
    for f, block in enumerate(np.array_split(permutation, folds)):
        mask = np.ones(len(y), dtype=bool)
        mask[block] = False
        pairs = sampler(X[mask], y[mask], grid, children[f + 1])
        for j, (lam, (pool, _)) in enumerate(zip(grid, pairs)):
            model = fit(feature_map(X[mask], pool).entries, y[mask], lam, pool)
            accuracy[f, j] = classify_accuracy(predict(model, X[block]), y[block])
    return accuracy


@pytest.mark.parametrize("method", ["RFF", "QMC", "SurrogateRFF", "LeverageRFF"])
def test_cv_reuses_sampler_features_without_changing_accuracy(method):
    X, y = _blob(n_pos=60, n_neg=40, spread=0.2, seed=7)
    grid = (0.001, 0.01, 0.1)
    spec = KernelSpec(1.0)
    sampler = make_sampler(method, spec, 6, 24)
    report = cross_validate(X, y, sampler, grid, folds=4, seed=3)
    expected = _remapping_reference_cv(
        X, y, _per_lambda_sampler(method, spec, 6, 24), grid, folds=4, seed=3
    )
    np.testing.assert_array_equal(report.fold_accuracy, expected)


@pytest.mark.parametrize(
    "method, per_fold", [("RFF", 2), ("SurrogateRFF", 2), ("LeverageRFF", 1 + 3)]
)
def test_cv_maps_training_rows_once_per_draw(method, per_fold, monkeypatch):
    # One map inside the sampler (its pool on the training rows) and one of
    # the validation rows per distinct pool; the training rows are never
    # mapped again.  LeverageRFF maps its pool once per fold and resamples
    # it for each of the three lambdas.
    import rffkrr.experiments
    import rffkrr.krr
    import rffkrr.leverage

    calls = []

    def counting_map(X, pool):
        calls.append(pool)
        return feature_map(X, pool)

    for module in (rffkrr.experiments, rffkrr.krr, rffkrr.leverage):
        monkeypatch.setattr(module, "feature_map", counting_map)
    X, y = _blob(seed=2)
    sampler = make_sampler(method, KernelSpec(1.0), 4, 8)
    cross_validate(X, y, sampler, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert len(calls) == 3 * per_fold


@pytest.mark.parametrize("method", ["RFF", "LeverageRFF"])
def test_cv_frees_each_fold_before_the_next_sampler_call(method):
    # Fold f's features (every pair's, for LeverageRFF) and everything
    # built from them must be gone when the sampler maps fold f + 1.
    X, y = _blob(seed=4)
    inner = make_sampler(method, KernelSpec(1.0), 4, 8)
    refs, alive = [], []

    def sampler(X_tr, y_tr, grid, seed):
        alive.append(sum(ref() is not None for ref in refs))
        pairs = inner(X_tr, y_tr, grid, seed)
        refs.extend(weakref.ref(features) for _, features in pairs)
        return pairs

    cross_validate(X, y, sampler, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert alive == [0, 0, 0]


def test_leverage_cv_solve_count_matches_per_lambda_flow():
    # Sharing the pool, its map and its Gram across the grid saves no
    # solve: each lambda still factors its own regularized pool Gram.
    X, y = _blob(n_pos=60, n_neg=40, spread=0.2, seed=7)
    spec = KernelSpec(1.0)
    grid = (0.001, 0.01, 0.1, 1.0)
    counts = []
    for sampler in (
        make_sampler("LeverageRFF", spec, 6, 24),
        _per_lambda_sampler("LeverageRFF", spec, 6, 24),
    ):
        linalg.reset_solve_count()
        cross_validate(X, y, sampler, grid, folds=3, seed=1)
        counts.append(linalg.solve_count())
    # 3 folds x 4 values x (pool-Gram factor and inverse + ridge factor and
    # solve); no refinement step fires on this instance.
    assert counts == [48, 48]


def test_cv_rejects_sampler_with_wrong_pair_count():
    X, y = _blob()
    rff = make_sampler("RFF", KernelSpec(1.0), 4, 4)

    def short(X_tr, y_tr, grid, seed):
        return rff(X_tr, y_tr, grid, seed)[:-1]

    with pytest.raises(ValueError, match="pairs"):
        cross_validate(X, y, short, (0.1, 1.0), folds=3)


def test_cv_validation():
    X, y = _blob()
    sampler = make_sampler("RFF", KernelSpec(1.0), 4, 4)
    with pytest.raises(ValueError):
        cross_validate(X, y, sampler, (), folds=3)
    with pytest.raises(ValueError):
        cross_validate(X, y, sampler, (0.0, 0.1), folds=3)
    with pytest.raises(ValueError):
        cross_validate(X, y, sampler, (0.1,), folds=1)
    with pytest.raises(ValueError):
        cross_validate(X[:2], y[:2], sampler, (0.1,), folds=3)
