"""Dense linear-algebra helpers: counted SPD solves and a Lanczos
spectral norm.

Every Cholesky factorization and triangular solve in the package goes
through this module so that tests can count how many linear solves a code
path performs.  The point of the surrogate sampling pipeline is that it
runs without any solves at all, and the counter is how that claim is
checked rather than merely asserted.
"""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NumericalError

_solve_count = 0

# Dense O(n^3) routines (exact leverage, exact KRR, eigendecompositions)
# refuse matrices beyond this order; larger problems should be subsampled.
EXACT_MODE_CAP = 2000

# Fixed entropy for the Lanczos start vector.  A seeded start makes
# spectral-norm results reproducible bit-for-bit across runs and worker
# counts.
_START_SEED = 0x5EED


def check_exact_cap(n):
    if n > EXACT_MODE_CAP:
        raise ValueError(
            f"exact-mode computation on n={n} points exceeds the "
            f"n={EXACT_MODE_CAP} cap; subsample first"
        )


def solve_count():
    """Number of counted factorizations/solves since the last reset."""
    return _solve_count


def reset_solve_count():
    global _solve_count
    _solve_count = 0


def _bump():
    global _solve_count
    _solve_count += 1


def psd_factor(mat):
    """Cholesky-factor a symmetric positive definite matrix.  Counted.

    Returns an opaque factor object accepted by :func:`factor_solve`.
    Raises NumericalError if the matrix is not positive definite.
    """
    _bump()
    try:
        return scipy.linalg.cho_factor(np.asarray(mat, dtype=float), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc


def factor_solve(factor, rhs):
    """Solve A x = rhs given a factor from :func:`psd_factor`.  Counted."""
    _bump()
    return scipy.linalg.cho_solve(factor, np.asarray(rhs, dtype=float))


def psd_solve(mat, rhs):
    """Factor-and-solve convenience wrapper (two counted operations)."""
    return factor_solve(psd_factor(mat), rhs)


def spectral_norm_sym(mat):
    """Largest absolute eigenvalue of a symmetric matrix.

    One Lanczos (ARPACK) call for the largest-magnitude eigenvalue, started
    from a fixed seeded vector.  Symmetry of the input is the caller's
    responsibility.  A 1 x 1 matrix and the zero matrix, which ARPACK
    cannot take (it needs k = 1 < n, and a start vector outside the null
    space), go to a dense eigendecomposition instead.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix has no spectral norm")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains NaN or Inf")
    if n == 1 or not a.any():
        return float(np.abs(np.linalg.eigvalsh(a)).max())

    v0 = np.random.default_rng(_START_SEED).standard_normal(n)
    try:
        top = scipy.sparse.linalg.eigsh(
            a, k=1, which="LM", v0=v0, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise NumericalError(f"Lanczos spectral norm failed: {exc}") from exc
    return float(abs(top[0]))
