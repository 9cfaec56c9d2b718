"""Kernel ridge regression in feature space, plus grid cross-validation.

The primal solve is beta = (Z^T Z + n lam I)^{-1} Z^T y for an (n, 2s)
feature matrix Z, so the cost scales with the feature count rather than
n.  A resampled pool has u <= s distinct frequencies and Z has 2u
columns; its Z Z^T, and so every prediction, equals that of the s draws
kept apart.  ``fit`` and cross-validation solve every ridge system the
same way, all of one Z's lambda values in one shifted Krylov space: on Z
itself, with products Z^T (Z p) and no Gram, when Z has at least
``_GRAM_FREE_MIN`` columns, and on its Gram Z^T Z otherwise.  A solve
that conjugate gradients do not bring to the factor path's residual bar
forms the Gram and factors it per lambda, with one refinement step.
``fit_exact`` provides the kernel-space reference
alpha = (K + n lam I)^{-1} y used by tests at small n.
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

# Rows of Z per block of fit's finite check, so that its mask is a block's
# and not one byte per entry of Z.
_FINITE_ROWS = 64


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


def _ridge_coefficients(gram, rhs, ridge):
    """Solve (gram + ridge I) beta = rhs by one :func:`linalg.psd_factor`
    and one refinement step."""
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


def _ridge_solutions(Z, rhs, shifts):
    # Row j solves (Z^T Z + shifts[j] I) beta = rhs.  All shifts share one
    # Krylov space (linalg.shifted_solves, one count each): on Z itself
    # when it is wide, so no m x m array is made, and on its Gram
    # otherwise.  A declined solve forms the Gram, if it has not yet, and
    # factors it for one shift after another on the calling thread.
    gram = None
    if Z.shape[1] >= _GRAM_FREE_MIN:
        solutions = linalg.shifted_solves(Z, rhs, shifts, normal=True)
    else:
        gram = linalg.gram(Z)
        solutions = linalg.shifted_solves(gram, rhs, shifts)
    if solutions is not None:
        return solutions
    if gram is None:
        gram = linalg.gram(Z)
    return np.array([_ridge_coefficients(gram, rhs, shift) for shift in shifts])


def _all_finite(Z):
    # np.isfinite(Z).all() without an n x m mask: one block of rows at a
    # time.
    rows = range(0, Z.shape[0], _FINITE_ROWS)
    return all(np.isfinite(Z[start : start + _FINITE_ROWS]).all() for start in rows)


def fit(Z, y, lam, pool=None):
    """Fit ridge coefficients on a feature matrix.

    ``Z`` is the plain (n, m) feature array; ``pool`` travels on the model
    so that :func:`predict` can map new points.

    The one ridge system is solved as a cross-validation fold's grid is,
    by :func:`rffkrr.linalg.shifted_solves` (one count): on Z itself from
    ``_GRAM_FREE_MIN`` columns up, so the peak beyond Z is a few vectors
    of length m and the row blocks' partial products, and on the Gram
    below, which adds one m x m array.  A declined solve forms the Gram
    and factors it, with one refinement step (two or three counts more).
    """
    Zm = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if Zm.ndim != 2 or Zm.shape[0] != y.shape[0]:
        raise ValueError(
            f"feature matrix shape {Zm.shape} does not match {y.shape[0]} labels"
        )
    if not (_all_finite(Zm) and np.all(np.isfinite(y))):
        raise ValueError("features or labels contain NaN or Inf")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    beta = _ridge_solutions(Zm, Zm.T @ y, [y.shape[0] * lam])[0]
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
    accuracy = np.empty(len(grid))
    # One distinct pair at a time: its validation map, Z^T y, the solutions
    # of its lambda values and their scores.  The pair is let go once it is
    # solved, so its training features are gone before the next pair's are
    # used.
    for group in groups:
        pool, Z_tr = pairs[group[0]]
        for i in group:
            pairs[i] = None
        Z_val = feature_map(X_val, pool).entries
        rhs = Z_tr.T @ y_tr
        betas = _ridge_solutions(Z_tr, rhs, [n_tr * grid[j] for j in group])
        for j, beta in zip(group, betas):
            accuracy[j] = classify_accuracy(Z_val @ beta, y_val)
        del pool, Z_tr, Z_val
    return accuracy


def cross_validate(X, y, sampler, lambda_grid, folds=5, seed=0):
    """K-fold grid search for lambda, scored by classification accuracy.

    ``sampler(X_train, y_train, grid, seed)`` is called once per fold with
    the sorted, deduplicated grid and returns one (pool, Z) pair per grid
    value: the frequency pool and its plain feature array on X_train, so
    the training rows are never mapped twice.  A sampler whose pool
    does not depend on lambda returns the same pair object for every
    value; the validation map and Z^T y are rebuilt only when the pair
    differs from the previous value's, and the values of one pair share
    one solve.

    A fold takes its distinct pairs one at a time, on the calling thread:
    it maps the validation rows, forms Z^T y, solves the pair's lambda
    values as :func:`fit` solves its one value, all in one shifted Krylov
    space (one count per value), and scores the validation rows.  A pair
    of at least ``_GRAM_FREE_MIN`` features is solved on its training
    features Z_tr, with no Gram; a narrower one forms its Gram and solves
    on that.  A declined solve forms the Gram, if it has not yet, and
    factors it per lambda, one lambda after another.  The report and the
    solve count are the same on any number of cores; under another BLAS
    thread count the solutions may differ in their last bits.

    Folds are contiguous blocks of a seeded permutation, so the report is
    a pure function of the inputs.  Ties resolve toward the larger lambda.
    Each fold runs in a function call of its own, so nothing of one fold
    (its pairs, training and validation features, Grams) is still held
    when the next fold's sampler runs: the peak is one fold's working
    set.  It starts from the sampler's pairs.  A pair is let go, with its
    validation map Z_val and any Gram, once its values are solved and
    scored, before the next pair is solved.  A wide pair holds Z_tr and
    Z_val and no m x m array; a narrow or declined one adds one Gram, and
    a declined one one factor of it at a time.  So for a sampler whose
    pairs differ per lambda (LeverageRFF), a fold peaks at the pairs plus
    one pair's validation map and at most one Gram and its factor.
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
