import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_features import _child_stdout

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
from rffkrr import krr, linalg

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


@pytest.mark.parametrize("perturb", ["first", "every"])
def test_fit_refines_a_perturbed_first_solve(monkeypatch, perturb):
    # The factor path runs only when the Krylov solve is declined, here at
    # its first step, and its refinement branch only when the first solve
    # leaves a residual above 1e-10 of the right-hand side, which a
    # Cholesky solve at these sizes never does.  A first solve off by 1e-6
    # is repaired by one refinement step; solves that all come back
    # doubled are not.
    monkeypatch.setattr(linalg, "_shifted_cg", lambda *args: False)
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((40, 10))
    y = rng.standard_normal(40)
    lam = 0.05
    exact_solve = linalg.factor_solve
    solves = []

    def perturbed(factor, rhs):
        solves.append(rhs)
        x = exact_solve(factor, rhs)
        if perturb == "every":
            return 2.0 * x
        return x * (1.0 + 1e-6) if len(solves) == 1 else x

    monkeypatch.setattr(linalg, "factor_solve", perturbed)
    linalg.reset_solve_count()
    if perturb == "every":
        with pytest.raises(NumericalError):
            fit(Z, y, lam)
        return
    beta = fit(Z, y, lam).beta
    assert linalg.solve_count() == 3  # one factor, two solves
    rhs = Z.T @ y
    residual = rhs - (Z.T @ Z + 40 * lam * np.eye(10)) @ beta
    assert np.linalg.norm(residual) <= krr._RESIDUAL_TOL * np.linalg.norm(rhs)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.ones(4), 0.1)
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.ones(3), 0.0)
    with pytest.raises(ValueError):
        fit(np.array([[np.inf, 0.0]]), np.ones(1), 0.1)


@pytest.mark.parametrize("row", [0, 64, 149])
def test_fit_finds_a_non_finite_entry_in_any_row_block(row):
    # The check runs a block of rows at a time: the first block, the first
    # row of the second, and the short last block.
    for bad in (np.nan, np.inf):
        Z = np.ones((150, 4))
        Z[row, 3] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            fit(Z, np.ones(150), 0.1)


@pytest.mark.parametrize("width", ["narrow", "wide"])
def test_declined_fit_forms_its_gram_once(monkeypatch, width):
    # A narrow system's Gram, made for the Krylov solve, is the one the
    # factor path reuses; a wide one forms it only once declined.
    if width == "wide":
        monkeypatch.setattr(krr, "_GRAM_FREE_MIN", 1)
    monkeypatch.setattr(linalg, "_shifted_cg", lambda *args: False)
    rng = np.random.default_rng(9)
    Z, y = rng.standard_normal((40, 10)), rng.standard_normal(40)
    gram, grams = linalg.gram, []
    monkeypatch.setattr(linalg, "gram", lambda Z: grams.append(Z) or gram(Z))
    linalg.reset_solve_count()
    beta = fit(Z, y, 0.05).beta
    assert len(grams) == 1
    assert linalg.solve_count() == 2  # one factor, one solve
    np.testing.assert_array_equal(
        beta, krr._ridge_coefficients(gram(Z), Z.T @ y, 40 * 0.05)
    )


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
    "method, per_fold", [("RFF", 2), ("SurrogateRFF", 2), ("LeverageRFF", 1 + 3 + 3)]
)
def test_cv_maps_training_rows_once_per_draw(method, per_fold, monkeypatch):
    # One map of the training rows per drawn pool inside the sampler and
    # one of the validation rows per distinct pool; the training rows are
    # never mapped again.  SurrogateRFF scores its pool without mapping
    # it.  LeverageRFF maps its pool once per fold for its Gram, then
    # resamples it for each of the three lambdas and maps each draw.
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


def test_cv_lets_go_of_each_pair_once_its_gram_is_formed(monkeypatch):
    # A sampler whose pairs differ per lambda: when the fold forms the
    # Gram of pair i, the training features of pairs before i are gone.
    X, y = _blob(seed=4)
    inner = make_sampler("LeverageRFF", KernelSpec(1.0), 4, 8)
    refs, alive = [], []

    def sampler(X_tr, y_tr, grid, seed):
        refs.clear()
        pairs = inner(X_tr, y_tr, grid, seed)
        refs.extend(weakref.ref(features) for _, features in pairs)
        return pairs

    gram = linalg.gram

    def counting_gram(Z):
        # The sampler's own pool Grams come before its pairs exist.
        if refs:
            alive.append(sum(ref() is not None for ref in refs))
        return gram(Z)

    monkeypatch.setattr(linalg, "gram", counting_gram)
    cross_validate(X, y, sampler, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert alive == [3, 2, 1] * 3


def test_cv_lets_go_of_each_wide_pair_once_it_is_solved(monkeypatch):
    # The same at widths solved on Z itself: when the fold solves pair i,
    # the training features of pairs before i are gone, and no fold Gram
    # is formed.
    monkeypatch.setattr(krr, "_GRAM_FREE_MIN", 1)
    X, y = _blob(seed=4)
    inner = make_sampler("LeverageRFF", KernelSpec(1.0), 4, 8)
    refs, alive, fold_grams = [], [], []

    def sampler(X_tr, y_tr, grid, seed):
        refs.clear()
        pairs = inner(X_tr, y_tr, grid, seed)
        refs.extend(weakref.ref(features) for _, features in pairs)
        return pairs

    solves, gram = linalg.shifted_solves, linalg.gram

    def counting_solves(matrix, rhs, shifts, normal=False):
        if normal:
            alive.append(sum(ref() is not None for ref in refs))
        return solves(matrix, rhs, shifts, normal)

    def counting_gram(Z):
        # The sampler's own pool Grams come before its pairs exist.
        if refs:
            fold_grams.append(Z.shape)
        return gram(Z)

    monkeypatch.setattr(linalg, "shifted_solves", counting_solves)
    monkeypatch.setattr(linalg, "gram", counting_gram)
    cross_validate(X, y, sampler, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert alive == [3, 2, 1] * 3
    assert fold_grams == []


def test_cv_declined_solves_hold_one_gram_at_a_time(monkeypatch):
    # Every ridge solve declined: each pair's Gram is factored per lambda
    # and let go with the pair, so no earlier Gram of the fold is alive
    # when the next pair forms its own.
    monkeypatch.setattr(linalg, "_shifted_cg", lambda *args: False)
    X, y = _blob(seed=4)
    inner = make_sampler("LeverageRFF", KernelSpec(1.0), 4, 8)
    sampled, grams, alive = [], [], []

    def sampler(X_tr, y_tr, grid, seed):
        sampled.clear()
        pairs = inner(X_tr, y_tr, grid, seed)
        sampled.append(True)
        return pairs

    gram = linalg.gram

    def counting_gram(Z):
        G = gram(Z)
        # The sampler's own pool Grams come before its pairs exist.
        if sampled:
            alive.append(sum(ref() is not None for ref in grams))
            grams.append(weakref.ref(G))
        return G

    monkeypatch.setattr(linalg, "gram", counting_gram)
    linalg.reset_solve_count()
    cross_validate(X, y, sampler, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert alive == [0] * 9
    # Per lambda: the pool Gram's factor and inverse, then the ridge factor
    # and its solve.
    assert linalg.solve_count() == 9 * 4


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
    # 3 folds x 4 values x (pool-Gram factor and inverse + one Krylov ridge
    # solve); each value's pool has a Gram of its own.
    assert counts == [36, 36]


@pytest.mark.parametrize("method", ["RFF", "SurrogateRFF", "LeverageRFF"])
def test_cv_is_the_same_on_any_participant_count(
    participants, monkeypatch, method
):
    # The report and the solve count are the same for 1, 2 and 4
    # participants, with each fold's grid solved by Krylov and, with the
    # step cap at 1, by the factors of tiled Grams, themselves tiled.
    # LeverageRFF hands back a different pool, of a different width, for
    # every lambda; the others share one pair across the grid.
    X, y = _blob(n_pos=60, n_neg=40, spread=0.2, seed=7)
    grid = (0.0001, 0.001, 0.01, 0.1)
    sampler = make_sampler(method, KernelSpec(1.0), 40, 80)
    for steps in (linalg._KRYLOV_STEPS, 1):
        monkeypatch.setattr(linalg, "_KRYLOV_STEPS", steps)
        if steps == 1:
            for name, value in (("_GRAM_TILE", 16), ("_FACTOR_TILE", 16), ("_TILED_MIN", 2)):
                monkeypatch.setattr(linalg, name, value)
        runs = []
        for count in (1, 2, 4):
            participants(count)
            linalg.reset_solve_count()
            report = cross_validate(X, y, sampler, grid, folds=4, seed=5)
            runs.append((report, linalg.solve_count()))
        (first, solves), *others = runs
        assert len(set(first.fold_accuracy.ravel())) > 1
        for report, count in others:
            np.testing.assert_array_equal(report.fold_accuracy, first.fold_accuracy)
            assert report.chosen_lambda == first.chosen_lambda
            assert count == solves


@pytest.mark.parametrize("method", ["RFF", "LeverageRFF"])
@pytest.mark.parametrize("decline", ["step cap", "curvature"])
def test_cv_declined_krylov_solves_take_the_factor_path(monkeypatch, method, decline):
    # Declined Krylov solves leave the report and the solve count of
    # factoring every lambda: that of fitting each one through the public
    # API.  A negative definite matrix fails at CG's first curvature.
    X, y = _blob(n_pos=60, n_neg=40, spread=0.2, seed=7)
    grid = (0.001, 0.01, 0.1)
    spec = KernelSpec(1.0)
    cg, converged = linalg._shifted_cg, []

    def declining(gram, *args):
        if decline == "curvature":
            gram = -gram - np.eye(gram.shape[0])
        converged.append(cg(gram, *args))
        return converged[-1]

    if decline == "step cap":
        monkeypatch.setattr(linalg, "_KRYLOV_STEPS", 1)
    monkeypatch.setattr(linalg, "_shifted_cg", declining)
    linalg.reset_solve_count()
    report = cross_validate(X, y, make_sampler(method, spec, 6, 24), grid, folds=4, seed=3)
    solves, cv_converged = linalg.solve_count(), list(converged)
    linalg.reset_solve_count()
    expected = _remapping_reference_cv(
        X, y, _per_lambda_sampler(method, spec, 6, 24), grid, folds=4, seed=3
    )
    assert cv_converged == [False] * (4 if method == "RFF" else 4 * len(grid))
    np.testing.assert_array_equal(report.fold_accuracy, expected)
    assert solves == linalg.solve_count()


@pytest.mark.parametrize("method", ["RFF", "LeverageRFF"])
def test_cv_declined_wide_solves_form_the_gram_and_take_the_factor_path(
    monkeypatch, method
):
    # A wide system whose solve on Z is declined forms its Gram and goes
    # straight to the factors: the report and solve count of fitting each
    # lambda through the public API, whose wide solves are declined too.
    monkeypatch.setattr(krr, "_GRAM_FREE_MIN", 1)
    monkeypatch.setattr(linalg, "_KRYLOV_STEPS", 1)
    X, y = _blob(n_pos=60, n_neg=40, spread=0.2, seed=7)
    grid = (0.001, 0.01, 0.1)
    spec = KernelSpec(1.0)
    solves, calls = linalg.shifted_solves, []

    def recording(matrix, rhs, shifts, normal=False):
        calls.append((normal, solves(matrix, rhs, shifts, normal)))
        return calls[-1][1]

    monkeypatch.setattr(linalg, "shifted_solves", recording)
    linalg.reset_solve_count()
    report = cross_validate(X, y, make_sampler(method, spec, 6, 24), grid, folds=4, seed=3)
    solve_count, cv_calls = linalg.solve_count(), list(calls)
    linalg.reset_solve_count()
    expected = _remapping_reference_cv(
        X, y, _per_lambda_sampler(method, spec, 6, 24), grid, folds=4, seed=3
    )
    distinct = 4 if method == "RFF" else 4 * len(grid)
    assert [(normal, result is None) for normal, result in cv_calls] == [(True, True)] * distinct
    np.testing.assert_array_equal(report.fold_accuracy, expected)
    assert solve_count == linalg.solve_count()


def test_cv_nan_in_wide_features_is_a_numerical_error(monkeypatch):
    # The solve on Z declines, counting nothing, and the Gram it falls
    # back to is refused before any factor.
    monkeypatch.setattr(krr, "_GRAM_FREE_MIN", 1)
    X, y = _blob(seed=2)
    rff = make_sampler("RFF", KernelSpec(1.0), 4, 4)

    def poisoned(X_tr, y_tr, grid, seed):
        pool, Z = rff(X_tr, y_tr, grid, seed)[0]
        Z = Z.copy()
        Z[3, 1] = np.nan
        return [(pool, Z)] * len(grid)

    solves, declined = linalg.shifted_solves, []

    def recording(matrix, rhs, shifts, normal=False):
        result = solves(matrix, rhs, shifts, normal)
        declined.append(result is None)
        return result

    monkeypatch.setattr(linalg, "shifted_solves", recording)
    linalg.reset_solve_count()
    with pytest.raises(NumericalError):
        cross_validate(X, y, poisoned, (0.01, 0.1, 1.0), folds=3, seed=0)
    assert declined == [True]
    assert linalg.solve_count() == 0


def _wide_fit_case():
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(1200, 2))
    y = np.where(rng.uniform(size=1200) > 0.4, 1.0, -1.0)
    Z = feature_map(X, sample_mc(DENSITY, 300, 22)).entries
    assert Z.shape[1] >= krr._GRAM_FREE_MIN
    return Z, y


def test_wide_fit_solves_on_z_as_the_factor_path_does(monkeypatch):
    Z, y = _wide_fit_case()
    gram = linalg.gram
    monkeypatch.setattr(linalg, "gram", lambda Z: pytest.fail("a wide fit formed its Gram"))
    linalg.reset_solve_count()
    beta = fit(Z, y, 0.05).beta
    assert linalg.solve_count() == 1
    expected = krr._ridge_coefficients(gram(Z), Z.T @ y, 1200 * 0.05)
    assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(expected)


def test_narrow_fit_solves_on_the_gram_as_the_factor_path_does(monkeypatch):
    # A LeverageRFF-like width: one Krylov solve on the Gram, one count.
    rng = np.random.default_rng(22)
    X = rng.uniform(size=(1200, 2))
    y = np.where(rng.uniform(size=1200) > 0.4, 1.0, -1.0)
    Z = feature_map(X, sample_mc(DENSITY, 100, 300)).entries
    assert Z.shape[1] < krr._GRAM_FREE_MIN
    linalg.reset_solve_count()
    beta = fit(Z, y, 0.05).beta
    assert linalg.solve_count() == 1
    expected = krr._ridge_coefficients(linalg.gram(Z), Z.T @ y, 1200 * 0.05)
    assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(expected)


def test_wide_fit_allocates_no_gram(participants, traced_peak):
    # Beyond Z: fit's finite check (one byte per entry of a block of rows
    # of Z), a few vectors of length m and the row blocks' partial
    # products.
    participants(2)
    Z, y = _wide_fit_case()
    m = Z.shape[1]
    peak, _ = traced_peak(lambda: fit(Z, y, 0.05))
    assert peak <= 64 * 8 * m


def test_cv_report_equal_under_one_and_two_blas_threads():
    # At m = 950, where gram @ p under one and two OpenBLAS threads
    # differed in its last bits, every fold takes the Krylov path (one
    # count per lambda) and the report is the same: on Z itself, in row
    # blocks of 128 under one thread and as one product under two, and on
    # the Gram, with the threshold raised above the width.
    code = (
        "from test_krr import _blob\n"
        "from rffkrr import KernelSpec, cross_validate, krr, linalg, make_sampler\n"
        "X, y = _blob(n_pos=700, n_neg=500, spread=0.2, seed=8)\n"
        "sampler = make_sampler('RFF', KernelSpec(1.0), 475, 475)\n"
        "grid = (0.05, 0.1, 0.5, 1.0)\n"
        "linalg._NORMAL_ROWS = 128\n"
        "for free_min in (krr._GRAM_FREE_MIN, 951):\n"
        "    krr._GRAM_FREE_MIN = free_min\n"
        "    linalg.reset_solve_count()\n"
        "    report = cross_validate(X, y, sampler, grid, folds=3, seed=6)\n"
        "    assert linalg.solve_count() == 3 * len(grid), linalg.solve_count()\n"
        "    assert len(set(report.fold_accuracy.ravel())) > 1\n"
        "    print(report.fold_accuracy.tolist(), repr(report.chosen_lambda))\n"
    )
    one, two = (_child_stdout(code, OPENBLAS_NUM_THREADS=t) for t in "12")
    assert one == two


@pytest.mark.parametrize("case", ["non-finite shift", "indefinite Gram"])
def test_cv_numerical_error_on_the_factor_path_reaches_the_caller(
    participants, monkeypatch, case
):
    # Both decline the Krylov solve; the factor path then raises, on a
    # shift that is not finite or a Gram that is not positive definite,
    # while the map and the Gram run on two participants.
    participants(2)
    X, y = _blob(seed=2)
    grid = (0.01, 0.1, 1.0)
    if case == "non-finite shift":
        grid = grid + (1e308,)  # n_tr * 1e308 overflows to inf
    else:
        gram = linalg.gram
        monkeypatch.setattr(
            linalg, "gram", lambda Z: -gram(Z) - 1e6 * np.eye(Z.shape[1])
        )
    sampler = make_sampler("RFF", KernelSpec(1.0), 4, 4)
    with pytest.raises(NumericalError):
        cross_validate(X, y, sampler, grid, folds=3, seed=0)


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
