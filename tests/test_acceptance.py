"""End-to-end checks, one per numbered criterion, each printing one
ACCEPTANCE line through the conftest recorder.

Criteria 4-7 benchmark real datasets that are not bundled here; when a
file is missing those tests fail with the lookup locations they tried
(see the conftest docstring for where to put the files).
"""

import math
import time

import numpy as np
import pytest

from rffkrr import (
    ExperimentConfig,
    FrequencyPool,
    KernelSpec,
    PoolSource,
    approx_kernel_entry,
    build_resample_plan,
    degrees_of_freedom,
    exact_leverage,
    feature_map,
    fit,
    fit_exact,
    kernel_matrix,
    regularized_factor,
    relative_approx_error,
    required_features,
    run_experiment,
    sample_mc,
    sample_qmc,
    spectral_density,
    surrogate_dof,
    surrogate_leverage,
)

SPEC = KernelSpec(1.0)
LAMBDA_GRID = (0.05, 0.1, 0.5, 1.0)


def _percent(records, method):
    values = [r.accuracy for r in records if r.method == method]
    return 100.0 * float(np.mean(values))


def _mean_gen_time(records, method):
    return float(np.mean([r.gen_time_s for r in records if r.method == method]))


def _require(acceptance, criterion, dataset_tuple, name):
    dataset, attempted = dataset_tuple
    if dataset is None:
        tried = ", ".join(str(p) for p in attempted)
        acceptance(criterion, False, f"{name} dataset not found")
        pytest.fail(
            f"criterion {criterion} needs the {name} dataset; looked in: {tried}. "
            "Place the file there (ARFF or CSV, label last) or point the "
            "environment variable from tests/conftest.py at it."
        )
    return dataset


def test_criterion_1_domination(acceptance):
    start = time.perf_counter()
    score_margin = np.inf  # min of (surrogate - exact) / exact; >= 0 means domination
    dof_margin = np.inf
    for i in range(50):
        rng = np.random.default_rng(i)
        n = int(rng.integers(30, 201))
        d = int(rng.integers(1, 4))
        lam = LAMBDA_GRID[i % len(LAMBDA_GRID)]
        X = rng.uniform(size=(n, d))
        y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
        K = kernel_matrix(X, SPEC)
        Z = feature_map(X, sample_mc(spectral_density(SPEC, d), 10, 1000 + i)).entries
        exact = exact_leverage(regularized_factor(K, lam), Z)
        surr = surrogate_leverage(y, Z, lam)
        score_margin = min(score_margin, float(((surr - exact) / exact).min()))
        dof = degrees_of_freedom(K, lam)
        sdof = surrogate_dof(K, y, lam)
        dof_margin = min(dof_margin, (sdof - dof) / dof)
    elapsed = time.perf_counter() - start
    passed = score_margin >= -1e-10 and dof_margin >= -1e-10 and elapsed < 30.0
    acceptance(
        1,
        passed,
        f"50 instances, smallest relative margin {min(score_margin, dof_margin):.2e}, "
        f"{elapsed:.1f}s",
    )
    assert score_margin >= -1e-10
    assert dof_margin >= -1e-10
    assert elapsed < 30.0


def test_criterion_2_oracle_equivalence(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    X = rng.uniform(size=(12, 2))
    y = np.where(rng.uniform(size=12) > 0.5, 1.0, -1.0)

    # (a) primal fit against the explicit normal-equations inverse
    Z = feature_map(X, sample_mc(spectral_density(SPEC, 2), 3, 77)).entries
    beta = fit(Z, y, 0.2).beta
    explicit = np.linalg.inv(Z.T @ Z + 12 * 0.2 * np.eye(6)) @ Z.T @ y
    fit_dev = float(np.abs(beta - explicit).max())

    # (b) exact leverage against the explicit inverse at n = 6
    rng6 = np.random.default_rng(8)
    X6 = rng6.uniform(size=(6, 2))
    K6 = kernel_matrix(X6, SPEC)
    Z6 = feature_map(X6, sample_mc(spectral_density(SPEC, 2), 5, 13)).entries
    scores = exact_leverage(regularized_factor(K6, 0.1), Z6)
    M_inv = np.linalg.inv(K6 + 6 * 0.1 * np.eye(6))
    raw = Z6 * np.sqrt(5)  # undo the 1/sqrt(l) column scaling
    by_hand = np.array(
        [raw[:, 2 * i] @ M_inv @ raw[:, 2 * i] + raw[:, 2 * i + 1] @ M_inv @ raw[:, 2 * i + 1]
         for i in range(5)]
    )
    lev_dev = float(np.abs(scores - by_hand).max())

    # (c) with K = Z Z^T the feature and kernel solves give the same
    # training predictions
    pool = sample_mc(spectral_density(SPEC, 2), 10, 50)
    Zf = feature_map(X, pool).entries
    K_feat = Zf @ Zf.T
    alpha = fit_exact(K_feat, y, 0.3)
    model = fit(Zf, y, 0.3, pool)
    pred_dev = float(np.abs(Zf @ model.beta - K_feat @ alpha).max())

    elapsed = time.perf_counter() - start
    passed = fit_dev <= 1e-9 and lev_dev <= 1e-10 and pred_dev <= 1e-6 and elapsed < 10.0
    acceptance(
        2,
        passed,
        f"fit {fit_dev:.1e}, leverage {lev_dev:.1e}, predictions {pred_dev:.1e}, "
        f"{elapsed:.1f}s",
    )
    assert fit_dev <= 1e-9
    assert lev_dev <= 1e-10
    assert pred_dev <= 1e-6
    assert elapsed < 10.0


def test_criterion_3_unbiasedness(acceptance):
    start = time.perf_counter()

    # (a) enumeration: summing the single-draw estimators over the whole
    # plan reproduces the pool estimate exactly
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(10, 2))
    y = np.where(rng.uniform(size=10) > 0.5, 1.0, -1.0)
    pool = sample_mc(spectral_density(SPEC, 2), 6, 5)
    Z = feature_map(X, pool).entries
    plan = build_resample_plan(surrogate_leverage(y, Z, 0.1))
    expected = np.zeros((10, 10))
    for i, prob in enumerate(plan):
        single = FrequencyPool(
            pool.frequencies[i : i + 1],
            np.array([pool.weights[i] / (6 * prob)]),
            PoolSource.RESAMPLED,
        )
        entries = feature_map(X, single).entries
        expected += prob * (entries @ entries.T)
    enum_dev = float(np.abs(expected - Z @ Z.T).max())

    # (b) Monte Carlo concentration at s = 10^4 on a unit-distance pair
    x, x_prime = np.zeros(1), np.ones(1)
    target = math.exp(-1.0)
    hits = 0
    worst = 0.0
    for seed in range(20):
        pool_1d = sample_mc(spectral_density(SPEC, 1), 10_000, seed)
        deviation = abs(approx_kernel_entry(x, x_prime, pool_1d) - target)
        worst = max(worst, deviation)
        hits += deviation <= 0.05
    elapsed = time.perf_counter() - start
    passed = enum_dev <= 1e-12 and hits >= 19 and elapsed < 60.0
    acceptance(
        3,
        passed,
        f"enumeration {enum_dev:.1e}, {hits}/20 seeds within 0.05 "
        f"(worst {worst:.3f}), {elapsed:.1f}s",
    )
    assert enum_dev <= 1e-12
    assert hits >= 19
    assert elapsed < 60.0


def test_criterion_4_eeg_accuracy(acceptance, eeg_dataset):
    dataset = _require(acceptance, 4, eeg_dataset, "EEG eye-state")
    start = time.perf_counter()
    config = ExperimentConfig(
        data="eeg",
        methods=("RFF", "SurrogateRFF"),
        s_multipliers=(64,),
        trials=10,
        err_subsample=200,
    )
    records = run_experiment(config, dataset=dataset)
    elapsed = time.perf_counter() - start
    rff = _percent(records, "RFF")
    surrogate = _percent(records, "SurrogateRFF")
    passed = (
        surrogate >= 87.0
        and 75.0 <= rff <= 83.0
        and surrogate - rff >= 5.0
        and elapsed < 600.0
    )
    acceptance(
        4,
        passed,
        f"SurrogateRFF {surrogate:.2f}%, RFF {rff:.2f}%, gap "
        f"{surrogate - rff:.2f} points, {elapsed:.0f}s",
    )
    assert surrogate >= 87.0
    assert 75.0 <= rff <= 83.0
    assert surrogate - rff >= 5.0
    assert elapsed < 600.0


def test_criterion_5_small_s_parity(acceptance, eeg_dataset, magic04_dataset):
    if eeg_dataset[0] is not None:
        dataset, name = eeg_dataset[0], "EEG"
    else:
        dataset = _require(acceptance, 5, magic04_dataset, "EEG or magic04")
        name = "magic04"
    start = time.perf_counter()
    config = ExperimentConfig(
        data=name,
        s_multipliers=(1,),
        trials=10,
        err_subsample=200,
    )
    records = run_experiment(config, dataset=dataset)
    elapsed = time.perf_counter() - start
    means = {method: _percent(records, method) for method in config.methods}
    spread = max(means.values()) - min(means.values())
    passed = spread <= 2.0 and elapsed < 120.0
    summary = " ".join(f"{m}={v:.2f}%" for m, v in sorted(means.items()))
    acceptance(5, passed, f"{name}: {summary}, spread {spread:.2f} points, {elapsed:.0f}s")
    assert spread <= 2.0
    assert elapsed < 120.0


def test_criterion_6_timing_ratios(acceptance, eeg_dataset):
    dataset = _require(acceptance, 6, eeg_dataset, "EEG eye-state")
    start = time.perf_counter()
    config = ExperimentConfig(
        data="eeg",
        methods=("RFF", "SurrogateRFF", "LeverageRFF"),
        s_multipliers=(128,),
        trials=5,
    )
    records = run_experiment(config, dataset=dataset, mode="timing")
    elapsed = time.perf_counter() - start
    rff = _mean_gen_time(records, "RFF")
    surrogate = _mean_gen_time(records, "SurrogateRFF")
    erls = _mean_gen_time(records, "LeverageRFF")
    passed = surrogate <= 1.5 * rff and erls >= 2.0 * surrogate and elapsed < 600.0
    acceptance(
        6,
        passed,
        f"gen times RFF {rff:.2f}s, surrogate {surrogate:.2f}s "
        f"({surrogate / rff:.2f}x), erls {erls:.2f}s ({erls / surrogate:.2f}x "
        f"surrogate), {elapsed:.0f}s",
    )
    assert surrogate <= 1.5 * rff
    assert erls >= 2.0 * surrogate
    assert elapsed < 600.0


def test_criterion_7_error_trend(acceptance, eeg_dataset):
    dataset = _require(acceptance, 7, eeg_dataset, "EEG eye-state")
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    subset = rng.choice(dataset.n, size=200, replace=False)
    X = dataset.X[subset]
    d = X.shape[1]
    K = kernel_matrix(X, SPEC)
    density = spectral_density(SPEC, d)
    counts = [8, 16, 32, 64, 128, 256, 512, 1024]
    medians = []
    qmc_losses = []
    for s in counts:
        errors = [
            relative_approx_error(K, feature_map(X, sample_mc(density, s, seed)).entries)
            for seed in range(20)
        ]
        median = float(np.median(errors))
        medians.append(median)
        qmc_Z = feature_map(X, sample_qmc(density, s)).entries
        qmc_error = relative_approx_error(K, qmc_Z)
        if qmc_error > median:
            qmc_losses.append(f"s={s}: {qmc_error:.3f} > {median:.3f}")
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    passed = decreasing and not qmc_losses and elapsed < 300.0
    qmc_note = "QMC beats MC median at every s" if not qmc_losses else (
        "QMC above MC median at " + "; ".join(qmc_losses)
    )
    acceptance(
        7,
        passed,
        f"medians {medians[0]:.3f} -> {medians[-1]:.4f} over s=8..1024, "
        f"{qmc_note}, {elapsed:.0f}s",
    )
    assert decreasing
    assert not qmc_losses, qmc_note
    assert elapsed < 300.0


def test_criterion_8_bound_calculator(acceptance):
    start = time.perf_counter()
    report = required_features(np.eye(2), np.array([1.0, -1.0]), 0.5, 0.5)
    elapsed = time.perf_counter() - start
    value = report.s_required_surrogate
    passed = abs(value - 83.18) <= 0.01 and elapsed < 1.0
    acceptance(8, passed, f"s_required_surrogate = {value:.4f}, {elapsed * 1000:.0f}ms")
    assert abs(value - 83.18) <= 0.01
    assert elapsed < 1.0
