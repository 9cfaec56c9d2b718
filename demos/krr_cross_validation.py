"""Kernel ridge regression on random features, lambda picked by CV.

Two overlapping Gaussian blobs, a feature map from the surrogate
resampling pipeline, and a 5-fold grid search for the ridge parameter.
The fitted model predicts real values; classification is by sign.
"""

import numpy as np

from rffkrr import (
    KernelSpec,
    classify_accuracy,
    cross_validate,
    fit,
    make_sampler,
    predict,
    surrogate_pipeline,
)

rng = np.random.default_rng(3)
n_half = 150
X = np.concatenate(
    [
        rng.normal(0.35, 0.12, size=(n_half, 2)),
        rng.normal(0.65, 0.12, size=(n_half, 2)),
    ]
)
y = np.concatenate([np.ones(n_half), -np.ones(n_half)])

# train on a random half, report accuracy on the rest
order = rng.permutation(2 * n_half)
train, test = order[:n_half], order[n_half:]

spec = KernelSpec(1.0)
sampler = make_sampler("SurrogateRFF", spec, s=16, pool_size=64)
report = cross_validate(
    X[train], y[train], sampler, (0.001, 0.01, 0.1, 1.0), folds=5, seed=0
)

for lam, acc in zip(report.lambda_grid, report.mean_accuracy):
    marker = "  <- chosen" if lam == report.chosen_lambda else ""
    print(f"lambda {lam:<7g} mean CV accuracy {acc:.3f}{marker}")

# the pipeline returns the resampled pool and its features on X[train]
pool, Z = surrogate_pipeline(
    X[train], y[train], spec, s=16, lam=report.chosen_lambda, pool_size=64, seed=5
)
model = fit(Z, y[train], report.chosen_lambda, pool)
accuracy = classify_accuracy(predict(model, X[test]), y[test])
print()
print(f"held-out accuracy at lambda={report.chosen_lambda:g}: {accuracy:.3f}")
