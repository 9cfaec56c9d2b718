"""Kernel ridge regression in feature space, plus grid cross-validation.

The primal solve is beta = (Z^T Z + n lam I)^{-1} Z^T y for an (n, 2s)
feature matrix Z, so the cost scales with the feature count rather than
n.  A resampled pool has u <= s distinct frequencies and Z has 2u
columns; its Z Z^T, and so every prediction, equals that of the s draws
kept apart.  ``fit`` solves by a Cholesky factor with one refinement
step; cross-validation solves each fold's lambda grid by multi-shift
conjugate gradients, and factors per lambda only a grid that those do not
solve to the factor path's residual bar.  ``fit_exact`` provides the
kernel-space reference alpha = (K + n lam I)^{-1} y used by tests at
small n.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericalError
from .features import feature_map, make_rng, spawn_seeds
from .leverage import regularized_factor

_RESIDUAL_TOL = 1e-8


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
    n = y.shape[0]
    beta = _ridge_coefficients(linalg.gram(Zm), Zm.T @ y, n * lam)
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
    # Phase 1, on the caller: the training Gram, Z^T y and the validation
    # map of each distinct pair.  Each pair is let go as soon as its system
    # is formed, so its training features are gone before the next pair's
    # Gram is allocated.
    distinct = [i == 0 or pairs[i] is not pairs[i - 1] for i in range(len(pairs))]
    systems, groups = [], []
    for i, new in enumerate(distinct):
        if new:
            pool, Z_tr = pairs[i]
            Z_val = feature_map(X_val, pool).entries
            system = (linalg.gram(Z_tr), Z_tr.T @ y_tr, Z_val)
            groups.append([])
            del pool, Z_tr
        pairs[i] = None
        systems.append(system)
        groups[-1].append(i)

    # Phase 2: the lambda values of each distinct system in one Krylov
    # space, scored on the caller; the values of a system whose solves are
    # declined go through one factor task per lambda (factor, solve,
    # refinement, accuracy).
    shifts = [n_tr * lam for lam in grid]
    accuracy = np.empty(len(grid))
    factored = []
    for group in groups:
        gram, rhs, Z_val = systems[group[0]]
        betas = linalg.shifted_solves(gram, rhs, [shifts[j] for j in group])
        if betas is None:
            factored += group
            continue
        for j, beta in zip(group, betas):
            accuracy[j] = classify_accuracy(Z_val @ beta, y_val)

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

    A fold works in two phases.  First, on the calling thread, it forms
    the training Gram, Z^T y and the validation map of each distinct pair,
    letting go of each pair's training features once its system is
    formed.  Then, also on the calling thread, the lambda values of each
    distinct system are solved in one shifted Krylov space by
    :func:`rffkrr.linalg.shifted_solves` (one count per value), and the
    validation rows are scored.  The values of a system it declines fall
    back to one task per lambda that factors G + n lam I, solves, refines
    and scores, through :func:`rffkrr.linalg.shifted_factors`: when BLAS
    runs one thread per call the tasks run concurrently on the feature
    map's participants, otherwise one after another, and each is computed
    whole by one thread.  Either way the report and the solve count are
    the same on any number of cores; under another BLAS thread count the
    solutions may differ in their last bits.

    Folds are contiguous blocks of a seeded permutation, so the report is
    a pure function of the inputs.  Ties resolve toward the larger lambda.
    Each fold runs in a function call of its own, so nothing of one fold
    (its pairs, training and validation features, Grams) is still held
    when the next fold's sampler runs: the peak is one fold's working
    set.  Its first phase starts from the sampler's pairs.  For a sampler
    whose pairs differ per lambda (LeverageRFF), each pair's Gram and
    validation map replace its training features rather than add to
    them, so the phase peaks at the pairs plus one Gram and one
    validation map while m + n_val <= n_train for m features.  Its
    second phase holds the Grams and validation maps, plus a few vectors
    of length m per lambda; only a declined grid adds one m x m factor
    buffer per concurrent task, made on the calling thread and reused
    across the grid.
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
