"""Kernel ridge regression in feature space, plus grid cross-validation.

The primal solve is beta = (Z^T Z + n lam I)^{-1} Z^T y for an (n, 2s)
feature matrix Z, so the cost scales with the feature count rather than
n.  A resampled pool has u <= s distinct frequencies and Z has 2u
columns; its Z Z^T, and so every prediction, equals that of the s draws
kept apart.  A Z of at least ``_GRAM_FREE_MIN`` columns is solved on Z
itself by conjugate gradients, with products Z^T (Z p) and no Gram, in
``fit`` and in cross-validation.  A narrower Z forms its Gram Z^T Z:
``fit`` factors it, and cross-validation solves a fold's whole lambda
grid on it in one shifted Krylov space.  A system that conjugate
gradients do not solve to the factor path's residual bar forms its Gram
and is factored per lambda, with one refinement step.  ``fit_exact``
provides the kernel-space reference alpha = (K + n lam I)^{-1} y used by
tests at small n.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericalError
from .features import feature_map, make_rng, spawn_seeds
from .leverage import regularized_factor

_RESIDUAL_TOL = 1e-8

# Ridge systems at least this wide are solved on Z itself, without their
# Gram (see linalg.shifted_solves).  At n = 5992 on two cores, with BLAS
# pinned, the Gram and the grid's solve on it took 30.5 ms at m = 400 and
# 48-52 ms at 512, against 31.7 and 34-35 ms for the solve on Z; from 950
# up the Gram route took 1.5 to 2.5 times as long.  Both sides scale with
# n, so the width alone decides.
_GRAM_FREE_MIN = 512


@dataclass(frozen=True)
class KrrModel:
    """Fitted ridge coefficients with the pool that defines the features."""

    beta: np.ndarray
    pool: object
    lam: float


@dataclass(frozen=True)
class CvReport:
    """Cross-validation summary over a lambda grid.

    ``fold_accuracy`` has one row per fold and one column per grid value;
    ``mean_accuracy`` is its column mean.  Ties in mean accuracy resolve
    toward the larger lambda.
    """

    lambda_grid: tuple
    fold_accuracy: np.ndarray
    mean_accuracy: np.ndarray
    chosen_lambda: float


def _ridge_coefficients(gram, rhs, ridge, factor=None):
    """Solve (gram + ridge I) beta = rhs with one refinement step, given
    that matrix's factor or else making it with :func:`linalg.psd_factor`."""
    if factor is None:
        factor = linalg.psd_factor(gram, ridge)
    beta = linalg.factor_solve(factor, rhs)
    rhs_norm = float(np.linalg.norm(rhs))
    residual = rhs - (gram @ beta + ridge * beta)
    if np.linalg.norm(residual) > 1e-10 * rhs_norm:
        beta = beta + linalg.factor_solve(factor, residual)
        residual = rhs - (gram @ beta + ridge * beta)
    if np.linalg.norm(residual) > _RESIDUAL_TOL * rhs_norm:
        raise NumericalError(
            "normal-equations solve did not reach the residual tolerance"
        )
    return beta


def fit(Z, y, lam, pool=None):
    """Fit ridge coefficients on a feature matrix.

    ``Z`` is the plain (n, m) feature array; ``pool`` travels on the model
    so that :func:`predict` can map new points.

    A Z of at least ``_GRAM_FREE_MIN`` columns is solved on Z itself by
    :func:`rffkrr.linalg.shifted_solves` (one count), so no m x m array is
    made: the peak beyond Z is a few vectors of length m and the row
    blocks' partial products.  A narrower Z, or a solve that is declined,
    forms the Gram and factors it, with one refinement step (two or three
    counts).
    """
    Zm = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if Zm.ndim != 2 or Zm.shape[0] != y.shape[0]:
        raise ValueError(
            f"feature matrix shape {Zm.shape} does not match {y.shape[0]} labels"
        )
    if not (np.all(np.isfinite(Zm)) and np.all(np.isfinite(y))):
        raise ValueError("features or labels contain NaN or Inf")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    ridge, rhs = y.shape[0] * lam, Zm.T @ y
    solved = None
    if Zm.shape[1] >= _GRAM_FREE_MIN:
        solved = linalg.shifted_solves(Zm, rhs, [ridge], normal=True)
    if solved is None:
        beta = _ridge_coefficients(linalg.gram(Zm), rhs, ridge)
    else:
        beta = solved[0]
    return KrrModel(beta=beta, pool=pool, lam=float(lam))


def fit_exact(K, y, lam):
    """Kernel-space reference solution alpha = (K + n lam I)^{-1} y.

    Used as the full-kernel oracle at test scale; refuses n beyond the
    exact-mode cap.
    """
    factor = regularized_factor(K, lam)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != factor[0].shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {factor[0].shape[0]} points")
    return linalg.factor_solve(factor, y)


def predict(model, X):
    """Real-valued predictions for new points."""
    if model.pool is None:
        raise ValueError("model carries no frequency pool; cannot map new points")
    return feature_map(X, model.pool).entries @ model.beta


def classify_accuracy(predictions, labels):
    """Fraction of sign agreements; zero predictions count as +1."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if predictions.shape != labels.shape:
        raise ValueError(
            f"{predictions.shape[0]} predictions vs {labels.shape[0]} labels"
        )
    if predictions.size == 0:
        raise ValueError("empty prediction vector")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    signs = np.where(predictions >= 0.0, 1.0, -1.0)
    return float(np.mean(signs == labels))


def _fold_accuracy(X, y, block, sampler, grid, seed):
    # One fold, in a frame of its own: its pairs, training and validation
    # features and Grams die when it returns, before the next fold's
    # sampler call maps a new pool.
    mask = np.ones(X.shape[0], dtype=bool)
    mask[block] = False
    X_tr, y_tr = X[mask], y[mask]
    X_val, y_val = X[block], y[block]
    n_tr = X_tr.shape[0]
    pairs = list(sampler(X_tr, y_tr, grid, seed))
    if len(pairs) != len(grid):
        raise ValueError(
            f"sampler returned {len(pairs)} pairs for {len(grid)} lambda values"
        )
    # The lambda values of each distinct pair (a run of one pair object).
    starts = [i for i in range(len(pairs)) if i == 0 or pairs[i] is not pairs[i - 1]]
    groups = [range(a, b) for a, b in zip(starts, starts[1:] + [len(pairs)])]
    shifts = [n_tr * lam for lam in grid]
    accuracy = np.empty(len(grid))

    # Phase 1, on the caller, one distinct pair at a time: its validation
    # map and Z^T y, then its lambda values in one Krylov space, on Z_tr
    # itself when it is wide and on its Gram otherwise, scored at once.  A
    # wide pair forms its Gram only when that solve is declined.  The pair
    # is let go once it is solved, so its training features are gone before
    # the next pair's are used; only a declined system is kept, for phase 2.
    systems, factored = {}, []
    for group in groups:
        pool, Z_tr = pairs[group[0]]
        for i in group:
            pairs[i] = None
        Z_val = feature_map(X_val, pool).entries
        rhs = Z_tr.T @ y_tr
        group_shifts = [shifts[j] for j in group]
        if Z_tr.shape[1] >= _GRAM_FREE_MIN:
            betas = linalg.shifted_solves(Z_tr, rhs, group_shifts, normal=True)
            gram = None if betas is not None else linalg.gram(Z_tr)
        else:
            gram = linalg.gram(Z_tr)
            betas = linalg.shifted_solves(gram, rhs, group_shifts)
        del pool, Z_tr
        if betas is None:
            systems.update((j, (gram, rhs, Z_val)) for j in group)
            factored += group
        else:
            for j, beta in zip(group, betas):
                accuracy[j] = classify_accuracy(Z_val @ beta, y_val)
        del gram, Z_val

    # Phase 2: the lambda values of declined solves, through one factor
    # task per lambda (factor, solve, refinement, accuracy).
    def score(k, factor):
        j = factored[k]
        gram, rhs, Z_val = systems[j]
        beta = _ridge_coefficients(gram, rhs, shifts[j], factor)
        accuracy[j] = classify_accuracy(Z_val @ beta, y_val)

    if factored:
        linalg.shifted_factors(
            [systems[j][0] for j in factored], [shifts[j] for j in factored], score
        )
    return accuracy


def cross_validate(X, y, sampler, lambda_grid, folds=5, seed=0):
    """K-fold grid search for lambda, scored by classification accuracy.

    ``sampler(X_train, y_train, grid, seed)`` is called once per fold with
    the sorted, deduplicated grid and returns one (pool, Z) pair per grid
    value: the frequency pool and its plain feature array on X_train, so
    the training rows are never mapped twice.  A sampler whose pool
    does not depend on lambda returns the same pair object for every
    value; the training Gram and the validation map are rebuilt only when
    the pair differs from the previous value's, and only the ridge solve
    repeats across the grid.

    A fold works in two phases.  First, on the calling thread, it takes
    the distinct pairs one at a time: it maps the validation rows, forms
    Z^T y, solves the pair's lambda values in one shifted Krylov space by
    :func:`rffkrr.linalg.shifted_solves` (one count per value) and scores
    the validation rows.  A pair of at least ``_GRAM_FREE_MIN`` features
    is solved on its training features Z_tr, with no Gram; a narrower one
    forms its Gram and solves on that.  Either way the pair's training
    features are let go once its values are solved.  The values of a
    system whose Krylov solve is declined (a wide one then forms its Gram)
    fall back, in the second phase, to one task per lambda that factors
    G + n lam I, solves, refines and scores, through
    :func:`rffkrr.linalg.shifted_factors`: when BLAS runs one thread per
    call the tasks run concurrently on the feature map's participants,
    otherwise one after another, and each is computed whole by one
    thread.  Either way the report and the solve count are the same on any
    number of cores; under another BLAS thread count the solutions may
    differ in their last bits.

    Folds are contiguous blocks of a seeded permutation, so the report is
    a pure function of the inputs.  Ties resolve toward the larger lambda.
    Each fold runs in a function call of its own, so nothing of one fold
    (its pairs, training and validation features, Grams) is still held
    when the next fold's sampler runs: the peak is one fold's working
    set.  Its first phase starts from the sampler's pairs.  A wide pair
    holds Z_tr and its validation map Z_val and no m x m array, and both
    are gone before the next pair is solved.  A narrow pair adds its Gram
    and validation map to its training features, and all three are let go
    once it is solved.  So for a sampler whose pairs differ per
    lambda (LeverageRFF), the phase peaks at the pairs plus one pair's
    validation map and, for a narrow pair, one Gram.  The second phase
    holds only the Grams and validation maps of declined systems, plus one
    m x m factor buffer per concurrent task, made on the calling thread
    and reused across the grid.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if X.shape[0] < folds:
        raise ValueError(f"cannot split {X.shape[0]} points into {folds} folds")
    grid = tuple(sorted({float(v) for v in lambda_grid}))
    if not grid:
        raise ValueError("empty lambda grid")
    if grid[0] <= 0:
        raise ValueError("lambda grid values must be positive")

    children = spawn_seeds(seed, folds + 1)
    permutation = make_rng(children[0]).permutation(X.shape[0])
    blocks = np.array_split(permutation, folds)

    accuracy = np.zeros((folds, len(grid)))
    for f, block in enumerate(blocks):
        accuracy[f] = _fold_accuracy(X, y, block, sampler, grid, children[f + 1])

    means = accuracy.mean(axis=0)
    chosen = grid[int(np.flatnonzero(means == means.max()).max())]
    return CvReport(
        lambda_grid=grid,
        fold_accuracy=accuracy,
        mean_accuracy=means,
        chosen_lambda=chosen,
    )
