"""Ridge leverage scores, the inversion-free surrogate, and the resampling
pipelines built on them.

For a frequency w with paired cosine/sine columns c, s in R^n (entries
cos(w.x_j), sin(w.x_j)) and regularization lambda, the exact ridge
leverage function is

    l(w) = p(w) [ c^T (K + n lam I)^{-1} c  +  s^T (K + n lam I)^{-1} s ],

whose integral over frequency space equals the effective degrees of
freedom Tr[K (K + n lam I)^{-1}].  Computing it needs an n x n solve.  The
surrogate replaces the inverse with a label-driven upper bound,

    L(w) = p(w) [ (y^T c)^2 + (y^T s)^2 + n (||c||^2 + ||s||^2) ] / (n^2 lam),

which dominates l(w) pointwise and integrates to the surrogate degrees of
freedom (y^T K y + n Tr K) / (n^2 lam).  The simplified variant keeps only
the label term.  Neither needs a linear solve, which is the entire point:
scoring a pool of l frequencies costs one pass over the (n, 2l) feature
matrix.

Resampling is three steps on plain arrays: a scoring function returns
one score per pool frequency, :func:`build_resample_plan` normalizes the
scores into probabilities, and :func:`resample` draws from them.

Pools scored here must be unweighted draws from the spectral density p
(plain Monte Carlo pools), passed as the plain (n, 2l) array of their
feature map.  Because such a pool is already p-distributed, the p(w_i)
factors cancel when scores are normalized into resampling probabilities,
so every scorer leaves them out and returns the rest of its formula.
Unit weights also give every raw cos/sin pair |c|^2 + |s|^2 = n, which
the full surrogate uses in place of a pass over Z.
"""

import numpy as np

from . import linalg
from .errors import NumericalError
from .features import (
    _BLOCK_ENTRIES,
    FrequencyPool,
    PoolSource,
    feature_map,
    make_rng,
    sample_mc,
    spawn_seeds,
)
from .kernels import matrix_entries, spectral_density


def _pair_sums(values):
    """Sum consecutive (cos, sin) column values into per-frequency totals."""
    return values.reshape(-1, 2).sum(axis=1)


def _pool_arrays(Z, n=None):
    # A pool's feature map: (n, 2l), one cos/sin column pair per frequency.
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] % 2:
        raise ValueError(f"feature matrix shape {Z.shape} is not (n, 2l)")
    if n is not None and Z.shape[0] != n:
        raise ValueError(f"feature matrix has {Z.shape[0]} rows, expected {n}")
    return Z, Z.shape[1] // 2


def regularized_factor(K, lam):
    """Cholesky factor of K + n lam I, reusable across exact-leverage calls.

    Refuses n beyond the exact-mode cap in :mod:`rffkrr.linalg`.
    """
    Km = matrix_entries(K)
    n = Km.shape[0]
    linalg.check_exact_cap(n)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return linalg.psd_factor(linalg.add_diagonal(Km, n * lam))


def exact_leverage(kreg_factor, Z):
    """Exact ridge leverage of each pool frequency, via n x n solves, as
    an (l,) array, without the density factor p(w).

    ``kreg_factor`` comes from :func:`regularized_factor`; ``Z`` is the
    (n, 2l) feature array of an unweighted pool on the same n points.
    Cost is one triangular solve against all 2l columns.
    """
    n = kreg_factor[0].shape[0]
    Z, size = _pool_arrays(Z, n)
    solved = linalg.factor_solve(kreg_factor, Z)
    # Columns of Z carry a 1/sqrt(l) normalization; the leverage function
    # is defined on raw cos/sin vectors, hence the factor l.
    quad = size * np.einsum("ij,ij->j", Z, solved)
    return np.clip(_pair_sums(quad), 0.0, None)


def surrogate_leverage(y, Z, lam, simplified=False):
    """Solve-free surrogate leverage of each pool frequency, as an (l,)
    array, without the density factor p(w).

    ``Z`` is the (n, 2l) feature array of a unit-weight pool, so every raw
    cos/sin pair has |c|^2 + |s|^2 = n and the full variant's norm term is
    the constant n^2: full = simplified + 1/lam up to rounding, and only
    the label correlations y^T Z are computed.  A weighted (resampled) map
    breaks that identity and is not a valid input.
    """
    y = np.asarray(y, dtype=float).ravel()
    if not np.all(np.isfinite(y)):
        raise ValueError("labels contain NaN or Inf")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    n = y.shape[0]
    Z, size = _pool_arrays(Z, n)
    raw = size * _pair_sums((y @ Z) ** 2)
    if not simplified:
        raw = raw + n**2
    return raw / (n**2 * lam)


def approx_ridge_leverage(Z, lam):
    """Feature-space approximate ridge leverage (the classical baseline),
    as an (l,) array, or a (k, l) array with one row per value when
    ``lam`` is a sequence of k values.

    Scores column j of the pool's (n, 2l) feature array Z by the diagonal of
    G (G + n lam I)^{-1} = I - n lam (G + n lam I)^{-1} with G = Z^T Z,
    then sums cos/sin pairs.  By the push-through identity this equals the
    exact leverage with K replaced by Z Z^T, up to the pool-size scaling
    of the columns.  Cost is O(n l^2) for G, formed once for all values,
    plus per value one Cholesky factor and one triangular inverse of
    G + n lam I (:func:`rffkrr.linalg.psd_inverse_diagonal`, O(l^3)):
    cheaper than exact leverage for l << n, but still a factorization the
    surrogate avoids.  Every value but the last works on a copy of G; the
    last (or only) one shifts, factors and inverts G itself, so a
    one-value call holds one (2l, 2l) buffer beyond Z, not two.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or lams.size == 0 or not np.all(lams > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    Z, size = _pool_arrays(Z)
    n = Z.shape[0]
    gram = Z.T @ Z
    scores = np.empty((lams.size, size))
    for k, value in enumerate(lams):
        shift = n * value
        if k < lams.size - 1:
            inverse_diagonal = linalg.psd_inverse_diagonal(gram, shift)
        else:
            # G is needed no more: shift, factor and invert it in place.
            inverse_diagonal = linalg._inverse_diagonal_in_place(gram, shift)
        diagonal = 1.0 - shift * inverse_diagonal
        scores[k] = np.clip(_pair_sums(diagonal), 0.0, None)
    return scores if np.ndim(lam) else scores[0]


def degrees_of_freedom(K, lam):
    """Effective degrees of freedom Tr[K (K + n lam I)^{-1}].

    Equals sum_i eig_i / (eig_i + n lam), and also
    n - n lam Tr[(K + n lam I)^{-1}], which is how it is computed here: one
    Cholesky factor and one triangular inverse for the diagonal of the
    inverse, rather than an n-column solve or an eigendecomposition.
    """
    Km = matrix_entries(K)
    n = Km.shape[0]
    linalg.check_exact_cap(n)
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    shift = n * lam
    return float(n - shift * linalg.psd_inverse_diagonal(Km, shift).sum())


def surrogate_dof(K, y, lam):
    """Surrogate degrees of freedom (y^T K y + n Tr K) / (n^2 lam).

    Dominates :func:`degrees_of_freedom` for every PSD K and needs no
    solve.
    """
    Km = matrix_entries(K)
    n = Km.shape[0]
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != n:
        raise ValueError(f"{y.shape[0]} labels for {n} points")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return float((y @ Km @ y + n * np.trace(Km)) / (n**2 * lam))


def build_resample_plan(scores):
    """Normalize per-frequency scores into multinomial resampling
    probabilities, returned as an (l,) array summing to 1.

    This is where scores from outside are checked: they must be
    nonempty, finite and nonnegative (else ValueError), and not all zero
    (else NumericalError).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size == 0:
        raise ValueError("empty score vector")
    if not np.all(np.isfinite(scores)) or np.any(scores < 0):
        raise ValueError("scores must be finite and nonnegative")
    total = scores.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalError("all leverage scores are zero; cannot build a plan")
    return scores / total


def _draw(pool, scores, s, seed):
    # The one place resampling weights are formed.  The s draws merge into
    # u distinct indices; index i, drawn c_i times, gets the weight
    # c_i r_i / (l q_i) (u / s).  feature_map scales by 1/u, so its column
    # pair carries c_i r_i / (l q_i s), the sum of its c_i per-draw pairs
    # in Z Z^T.
    probabilities = build_resample_plan(scores)
    size = pool.size
    if probabilities.size != size:
        raise ValueError(f"{probabilities.size} scores for a pool of {size}")
    if not 1 <= s <= size:
        raise ValueError(f"cannot draw {s} frequencies from a pool of {size}")
    draws = make_rng(seed).choice(size, size=s, replace=True, p=probabilities)
    indices, counts = np.unique(draws, return_counts=True)
    weights = (
        counts
        * pool.weights[indices]
        / (size * probabilities[indices])
        * (indices.size / s)
    )
    out = FrequencyPool(pool.frequencies[indices], weights, PoolSource.RESAMPLED)
    return indices, out


def resample(pool, scores, s, seed):
    """Draw s frequencies from ``pool`` with replacement, with probabilities
    proportional to ``scores`` (one per pool frequency), merging repeats.

    A frequency drawn with probability q_i from a pool of size l with
    prior ratio r_i has per-draw weight r_i / (l q_i), which keeps the
    kernel estimate of the resampled feature map unbiased.  The u <= s
    distinct draws come back once each, in pool order, with the weight
    c_i r_i / (l q_i) (u / s) for c_i draws, so the output pool of size u
    has the same feature-space kernel as the s draws kept apart.
    Frequencies whose probability underflowed to zero are never drawn.
    The output pool is tagged ``PoolSource.RESAMPLED``.  Raises
    ValueError unless there is one score per pool frequency and
    1 <= s <= l.
    """
    return _draw(pool, scores, s, seed)[1]


def _gather_features(z_entries, indices, weights, out):
    # Reuse the pooled cos/sin columns instead of re-evaluating the map:
    # column pair 2i, 2i+1 of the (n, 2l) pool map, rescaled from sqrt(1/l)
    # to sqrt(w/u), gives the resampled feature pair, written to the
    # (n, 2u) array ``out``.  Rows go by block, and each block is read
    # whole before it is written.  Block rows [a, b) of ``out`` end at flat
    # offset 2ub <= 2lb, where row b of the pool map begins, so ``out`` may
    # be the front of the pool map's own buffer: no unread row is
    # overwritten.
    pool_size = z_entries.shape[1] // 2
    unique = indices.size
    column_index = np.empty(2 * unique, dtype=np.int64)
    column_index[0::2] = 2 * indices
    column_index[1::2] = 2 * indices + 1
    scale = np.repeat(np.sqrt(pool_size * weights / unique), 2)
    rows = max(1, _BLOCK_ENTRIES // (2 * unique))
    for start in range(0, out.shape[0], rows):
        block = np.take(z_entries[start : start + rows], column_index, axis=1)
        np.multiply(block, scale, out=out[start : start + rows])


def _resample_pipeline(X, spec, s, pool_size, seed, score_fn):
    """Draw and map one pool, then resample it once per score vector.

    ``score_fn(Z)`` returns one row of scores per lambda value for the
    (n, 2l) pool map Z.  Every row is drawn with the same draw seed, so
    row k gives the pair a one-value call with that row's scores gives.
    Returns one (pool, Z) pair per row, Z the plain (n, 2u) array.

    Each row's features are gathered from the pool map's columns.  Rows
    before the last get fresh (n, 2u) arrays, because later rows still
    need the pool map.  The last row, the only one of a one-value call, is
    gathered into the front of the pool map's own buffer, which then
    shrinks to (n, 2u) in place: the pool map and a copy of its chosen
    columns are never held at once.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pool_size = int(s) if pool_size is None else int(pool_size)
    seed_pool, seed_draw = spawn_seeds(seed, 2)
    density = spectral_density(spec, X.shape[1])
    pool = sample_mc(density, pool_size, seed_pool)
    # ndarray.resize refuses an array with other references, so Z must be
    # the pool map's only one when it shrinks.
    Z = feature_map(X, pool).entries
    draws = [_draw(pool, scores, s, seed_draw) for scores in score_fn(Z)]
    n = Z.shape[0]
    pairs = []
    for indices, out in draws[:-1]:
        entries = np.empty((n, 2 * indices.size))
        _gather_features(Z, indices, out.weights, entries)
        pairs.append((out, entries))
    indices, out = draws[-1]
    width = 2 * indices.size
    front = Z.reshape(-1)[: n * width].reshape(n, width)
    _gather_features(Z, indices, out.weights, front)
    del front
    Z.resize((n, width))
    pairs.append((out, Z))
    return pairs


def surrogate_pipeline(
    X, y, spec, s, lam, pool_size=None, variant="simplified", seed=0
):
    """Draw a pool, score it with the surrogate, and resample s frequencies.

    Runs without a single linear solve.  ``pool_size`` defaults to s;
    larger pools give the resampler more to choose from.  Returns the
    resampled pool of the u <= s distinct draws, with repeats merged into
    their weights as in :func:`resample`, and its (n, 2u) feature array
    on X, assembled by gathering pooled columns rather than re-evaluating
    the map.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}")
    simplified = variant == "simplified"
    return _resample_pipeline(
        X,
        spec,
        s,
        pool_size,
        seed,
        lambda Z: [surrogate_leverage(y, Z, lam, simplified=simplified)],
    )[0]


def erls_baseline_grid(X, spec, s, lambda_grid, pool_size=None, seed=0):
    """Approximate-leverage resampling for every value of a lambda grid.

    Draws and maps one pool and forms its feature Gram once; per value
    it factors the regularized Gram, scores, draws from the same draw
    seed and gathers.  Returns one (pool, Z) pair per grid
    value, each equal bit for bit to :func:`erls_baseline_pipeline` at
    that value.  This is the cross-validation sampler of the baseline.
    """
    grid = tuple(lambda_grid)
    return _resample_pipeline(
        X, spec, s, pool_size, seed, lambda Z: approx_ridge_leverage(Z, grid)
    )


def erls_baseline_pipeline(X, y, spec, s, lam, pool_size=None, seed=0):
    """Pool-and-resample pipeline scored by approximate ridge leverage.

    Identical flow and return value (merged pool of u <= s frequencies,
    (n, 2u) feature array) to :func:`surrogate_pipeline`, but the scoring
    step factors the pooled feature Gram matrix, so it pays the
    O(n l^2 + l^3) cost the surrogate exists to avoid.  It is the
    one-value case of :func:`erls_baseline_grid`.  Labels are ignored by
    the scores and accepted only for signature parity with the surrogate
    pipeline.
    """
    return erls_baseline_grid(X, spec, s, (lam,), pool_size, seed)[0]
