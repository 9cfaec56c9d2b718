"""Correctness checks on each benchmark record, and resampling diagnostics.

Each check returns None when the record passes and a one-line reason
when it fails.  A record fails when it raised or any check fails.
"""

import math

import numpy as np
from rffkrr.krr import fit_exact

# fit_exact refuses more rows than linalg.EXACT_MODE_CAP (2000).
ORACLE_ROWS = 2000
ORACLE_TOL = 1e-8
# Allowed gap between a record's summed span self times and its wall time.
SELF_TIME_TOL = 0.01
SELF_TIME_SLACK_S = 0.005


def check_accuracy(accuracy, test_labels):
    labels = np.asarray(test_labels)
    majority = max(np.mean(labels > 0), np.mean(labels < 0))
    if not accuracy >= majority:
        return f"accuracy {accuracy:.6f} is below the majority-class rate {majority:.6f}"
    return None


def check_rel_error(rel_error):
    if not (math.isfinite(rel_error) and rel_error > 0.0):
        return f"relative kernel error {rel_error!r} is not finite and positive"
    return None


def check_lambda(lam, grid):
    if lam not in grid:
        return f"chosen lambda {lam!r} is not on the grid {grid}"
    return None


def check_solve_free(gen_solves):
    """``gen_solves`` holds (method, counted solves) per feature generation."""
    solves = sum(count for method, count in gen_solves if method == "SurrogateRFF")
    if solves:
        return f"SurrogateRFF feature generation did {solves} counted solves"
    return None


def check_oracle(beta, Z, y, lam):
    """``beta`` from ``fit(Z, y, lam)`` must equal the push-through
    Z^T (Z Z^T + n lam I)^{-1} y of the kernel-space oracle."""
    expected = Z.T @ fit_exact(Z @ Z.T, y, lam)
    gap = np.linalg.norm(beta - expected) / np.linalg.norm(expected)
    if not gap <= ORACLE_TOL:
        return f"fit differs from the kernel-space oracle by {gap:.3g} (relative)"
    return None


def check_self_times(self_sum, wall):
    if not abs(self_sum - wall) <= SELF_TIME_TOL * wall + SELF_TIME_SLACK_S:
        return f"span self times sum to {self_sum:.6f} s, record wall is {wall:.6f} s"
    return None


def resampling_diagnostics(pool):
    """Unique draws / s, largest over mean weight, Kish ESS / s."""
    weights = pool.weights
    s = pool.size
    unique = np.unique(pool.frequencies, axis=0).shape[0]
    return {
        "unique_frac": unique / s,
        "max_weight_ratio": float(weights.max() / weights.mean()),
        "ess_frac": float(weights.sum() ** 2 / (weights @ weights) / s),
    }
