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
scoring a pool of l frequencies costs one pass over its (n, 2l) feature
matrix, for the label correlations y^T Z.

Resampling is three steps on plain arrays: a scoring function returns
one score per pool frequency, :func:`build_resample_plan` normalizes the
scores into probabilities, and :func:`resample` draws from them.  The
pipelines then map the drawn pool afresh.  Neither pipeline holds its
pool's map: the surrogate streams y^T Z block by block
(:func:`rffkrr.features.label_correlations`), and the leverage baseline
maps its pool a block of rows at a time into the pool Gram
(:func:`rffkrr.linalg.gram`), so it holds the Gram and one block.

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
    FrequencyPool,
    feature_map,
    label_correlations,
    make_rng,
    sample_mc,
    spawn_seeds,
)
from .kernels import matrix_entries, spectral_density

# Rows of a pool map per block of the leverage baseline's streamed Gram,
# set by the shape alone.  A block of 7490 x 3584 (gen-s128's pool) is
# 22 MB, where the whole map is 215 MB.  With OpenBLAS's 384-row panels
# of the inner dimension, 768-row blocks gave the Gram of the whole map
# bit for bit at 5992 and 7490 rows by 448 to 3584 columns; 1024-row
# blocks differed from it by up to 1e-15 relative.
_GRAM_ROWS = 768


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
    return linalg.psd_factor(Km, n * lam)


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
    y = _checked_labels(y, lam)
    n = y.shape[0]
    Z, _ = _pool_arrays(Z, n)
    return _surrogate_scores(y @ Z, n, lam, simplified)


def _checked_labels(y, lam):
    y = np.asarray(y, dtype=float).ravel()
    if y.size == 0:
        raise ValueError("no labels: the surrogate needs at least one point")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels contain NaN or Inf")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return y


def _surrogate_scores(correlations, n, lam, simplified):
    # The surrogate of each frequency from its cos/sin pair of y^T Z.
    raw = correlations.size // 2 * _pair_sums(correlations**2)
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
    plus per value one Cholesky factor of G + n lam I and the columns of
    its triangular inverse (:func:`rffkrr.linalg.psd_inverse_diagonal`,
    about (16/3) l^3 flops): cheaper than exact leverage for l << n, but
    still a factorization the surrogate avoids.  Every value's diagonal
    comes from one :func:`rffkrr.linalg.inverse_diagonals` call on G,
    which decides how the values use the cores.  A one-value call shifts
    and factors G itself, so it holds one (2l, 2l) buffer beyond Z, not
    two.  A grid of several values on a G of order below 1200 is scored
    one value per task on every core, each task in a (2l, 2l) copy of G
    of its core's own (one per core, at most one per value).  A wider G
    is factored by tiles on every core, one value after another, each but
    the last on a copy of G, and its inverse is solved a block of columns
    at a time in a (2l, 256) scratch per core.  The Gram and the factors
    hold BLAS at one thread, so the scores are the same bit for bit on
    any number of cores and under any BLAS thread count.

    This is the scorer of a map in hand, G formed as one block.  The
    baseline's pipelines score the same way from a Gram streamed out of
    the map's row blocks (:func:`erls_baseline_grid`), which never holds
    Z; the two differ within the rounding of G's dot products.
    """
    lams = _checked_lambdas(lam)
    Z, _ = _pool_arrays(Z)
    scores = _gram_leverage(linalg.gram(Z), Z.shape[0], lams)
    return scores if np.ndim(lam) else scores[0]


def _checked_lambdas(lam):
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or lams.size == 0 or not np.all(lams > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    return lams


def _gram_leverage(gram, n, lams):
    # The (k, l) scores of approx_ridge_leverage from the pool's Gram on n
    # points, which linalg.inverse_diagonals overwrites.
    shifts = n * lams
    diagonals = 1.0 - shifts[:, None] * linalg.inverse_diagonals(gram, shifts)
    return np.clip(_pair_sums(diagonals).reshape(lams.size, -1), 0.0, None)


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
    Raises ValueError unless there is one score per pool frequency and
    1 <= s <= l.
    """
    # The one place resampling weights are formed.  feature_map scales by
    # 1/u, so the column pair of index i, drawn c_i times, carries
    # c_i r_i / (l q_i s), the sum of its c_i per-draw pairs in Z Z^T.
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
    return FrequencyPool(pool.frequencies[indices], weights)


def _resample_pipeline(X, spec, s, pool_size, seed, score_fn):
    """Draw one pool, then resample it once per score vector and map the
    draws.

    ``score_fn(X, pool)`` returns one row of scores per lambda value for
    the pool.  Every row is drawn with the same draw seed, so row k gives
    the pair a one-value call with that row's scores gives.  Returns one
    (pool, Z) pair per row: the resampled pool and its (n, 2u) feature
    array ``feature_map(X, pool).entries``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    pool_size = int(s) if pool_size is None else int(pool_size)
    seed_pool, seed_draw = spawn_seeds(seed, 2)
    density = spectral_density(spec, X.shape[1])
    pool = sample_mc(density, pool_size, seed_pool)
    pairs = []
    for scores in score_fn(X, pool):
        drawn = resample(pool, scores, s, seed_draw)
        pairs.append((drawn, feature_map(X, drawn).entries))
    return pairs


def surrogate_pipeline(
    X, y, spec, s, lam, pool_size=None, variant="simplified", seed=0
):
    """Draw a pool, score it with the surrogate, and resample s frequencies.

    Runs without a single linear solve.  ``pool_size`` defaults to s;
    larger pools give the resampler more to choose from.  Returns the
    resampled pool of the u <= s distinct draws, with repeats merged into
    their weights as in :func:`resample`, and its (n, 2u) feature array
    on X.  The pool is scored by
    :func:`rffkrr.features.label_correlations`, so its (n, 2l) map is
    never held: the memory used is the (n, 2u) result plus row blocks.
    """
    if variant not in ("full", "simplified"):
        raise ValueError(f"unknown variant {variant!r}")
    simplified = variant == "simplified"
    y = _checked_labels(y, lam)

    def score(X, pool):
        correlations = label_correlations(X, pool, y)
        return [_surrogate_scores(correlations, y.shape[0], lam, simplified)]

    return _resample_pipeline(X, spec, s, pool_size, seed, score)[0]


def erls_baseline_grid(X, spec, s, lambda_grid, pool_size=None, seed=0):
    """Approximate-leverage resampling for every value of a lambda grid.

    Draws one pool and forms its feature Gram once, streamed: the pool is
    mapped ``_GRAM_ROWS`` rows at a time, and each block is added into
    the Gram (:func:`rffkrr.linalg.gram`) and let go, so the (n, 2l) pool
    map is never held.  Per value it factors the regularized Gram and
    scores as :func:`approx_ridge_leverage` does (the values of a grid
    below order 1200 on every core, each in a copy of the Gram of its
    core's own), draws from the same draw seed, and
    maps the draws.  Returns one (pool, Z) pair per grid value,
    each equal bit for bit to :func:`erls_baseline_pipeline` at that
    value.  This is the cross-validation sampler of the baseline.
    """
    lams = _checked_lambdas(tuple(lambda_grid))

    def score(X, pool):
        rows = range(0, X.shape[0], _GRAM_ROWS)
        blocks = (feature_map(X[start : start + _GRAM_ROWS], pool).entries for start in rows)
        return _gram_leverage(linalg.gram(blocks), X.shape[0], lams)

    return _resample_pipeline(X, spec, s, pool_size, seed, score)


def erls_baseline_pipeline(X, spec, s, lam, pool_size=None, seed=0):
    """Pool-and-resample pipeline scored by approximate ridge leverage.

    Identical flow and return value (merged pool of u <= s frequencies,
    (n, 2u) feature array) to :func:`surrogate_pipeline`, but the scoring
    step factors the pooled feature Gram matrix, so it pays the
    O(n l^2 + l^3) cost the surrogate exists to avoid.  It is the
    one-value case of :func:`erls_baseline_grid`.  Its scores do not use
    the labels, so it takes none.
    """
    return erls_baseline_grid(X, spec, s, (lam,), pool_size, seed)[0]
