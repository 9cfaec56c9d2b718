"""Dense linear-algebra helpers: the feature Gram, counted SPD solves,
the diagonal of a regularized SPD inverse, and a Lanczos spectral norm.

:func:`gram` forms Z^T Z, the O(n m^2) product that ridge fitting,
cross-validation and the leverage baseline share.  With BLAS pinned to
one thread per call (``OPENBLAS_NUM_THREADS=1``, or ``OMP_NUM_THREADS=1``;
``MKL_NUM_THREADS`` for MKL), its column tiles are filled on every core
by the feature map's participants; otherwise it is the one product
``Z.T @ Z``, which a threaded BLAS spreads over the cores itself.

Every Cholesky factorization, triangular solve and triangular inverse in
the package goes through this module so that tests can count how many
linear solves a code path performs; :func:`psd_inverse_diagonal` counts
as two, its factor and its inverse.  The point of the surrogate sampling
pipeline is that it runs without any solves at all, and the counter is
how that claim is checked rather than merely asserted.  Each factor is
one in-place ``potrf`` on a shifted private C-order copy of a symmetric
input, of which only the upper triangle is read.
"""

import os

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import NumericalError
from .features import _run_blocks

_solve_count = 0

# Dense O(n^3) routines (exact leverage, exact KRR, eigendecompositions)
# refuse matrices beyond this order; larger problems should be subsampled.
EXACT_MODE_CAP = 2000

# Fixed entropy for the Lanczos start vector.  A seeded start makes
# spectral-norm results reproducible bit-for-bit across runs and worker
# counts.
_START_SEED = 0x5EED

# Width of the Gram's column tiles.  The partition depends on the width of
# Z alone, never on the core count.  Tiles of 384 to 640 columns timed
# alike at 5992 x 1792 and 7490 x 3584.
_GRAM_TILE = 512


def _blas_one_thread():
    # Whether the environment pins BLAS to one thread per call.  These are
    # the variables BLAS reads when it loads, in the order it reads them;
    # the first one holding a positive count decides.
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {}).get("name", "")
    first = "MKL_NUM_THREADS" if "mkl" in str(blas).lower() else "OPENBLAS_NUM_THREADS"
    for name in (first, "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return count == 1
    return False


# Read once, like BLAS itself: a tiled Gram on threaded BLAS runs every
# tile on every core at once and is slower than the single product.
_BLAS_ONE_THREAD = _blas_one_thread()


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


def gram(Z):
    """The Gram matrix Z^T Z of an (n, m) array, exactly symmetric.  Not
    counted: it is a product, not a solve.

    When BLAS runs one thread per call and Z spans at least two tiles of
    ``_GRAM_TILE`` columns, the upper-triangle tiles of G are filled by
    the calling thread and the feature map's helper threads (see
    :func:`rffkrr.features.feature_map`).  A diagonal tile is one syrk
    product of its columns; an off-diagonal tile is a gemm product,
    mirrored into the lower triangle.  Every tile is written straight
    into G, so nothing but G is allocated, and each tile is computed whole
    by one thread, so G is bit for bit the same on any number of cores.
    It differs from the single product only in the last bits of the
    off-diagonal tiles.  Otherwise G is the single product ``Z.T @ Z``.
    """
    Z = np.asarray(Z, dtype=float)
    m = Z.shape[1]
    tiles = [slice(start, start + _GRAM_TILE) for start in range(0, m, _GRAM_TILE)]
    if len(tiles) < 2 or not _BLAS_ONE_THREAD:
        return Z.T @ Z
    G = np.empty((m, m))

    def fill(i, j):
        a, b = tiles[i], tiles[j]
        # Z[:, a].T and Z[:, a] share one buffer, so numpy takes syrk.
        np.matmul(Z[:, a].T, Z[:, b], out=G[a, b])
        if i != j:
            G[b, a] = G[a, b].T

    _run_blocks(fill, [(i, j) for i in range(len(tiles)) for j in range(i, len(tiles))])
    return G


def psd_factor(mat, shift=0.0):
    """Cholesky-factor the symmetric positive definite mat + shift I.
    Counted.

    One private C-order copy of ``mat`` is shifted and factored in place;
    only its upper triangle is read.  Returns an opaque factor object
    accepted by :func:`factor_solve`.  Raises NumericalError if the
    shifted matrix holds NaN or Inf or is not positive definite.
    """
    return _factor_in_place(np.array(mat, dtype=float, order="C"), shift), True


def factor_solve(factor, rhs):
    """Solve A x = rhs given a factor from :func:`psd_factor`.  Counted."""
    _bump()
    return scipy.linalg.cho_solve(factor, np.asarray(rhs, dtype=float))


def psd_solve(mat, rhs):
    """Factor-and-solve convenience wrapper (two counted operations)."""
    return factor_solve(psd_factor(mat), rhs)


def psd_inverse_diagonal(mat, shift=0.0):
    """Diagonal of (mat + shift I)^{-1} for a symmetric positive definite
    shifted matrix.  Counted twice: a Cholesky factor and a triangular
    inverse.

    With mat + shift I = L L^T, the inverse is L^{-T} L^{-1}, so its
    diagonal is the squared column norms of L^{-1}.  One private copy of
    ``mat`` is shifted, factored (``potrf``) and inverted (``trtri``) in
    place: about (2/3) m^3 flops, and no other m x m float array.
    Only the upper triangle of ``mat`` is read.  Raises NumericalError if
    the shifted matrix holds NaN or Inf or is not positive definite.
    """
    return _inverse_diagonal_in_place(np.array(mat, dtype=float, order="C"), shift)


def _factor_in_place(a, shift):
    # Shift and overwrite the caller's float matrix ``a`` by its factor.
    # A symmetric matrix is its own transpose, and for a C-order ``a`` the
    # transpose is in the Fortran order potrf overwrites in place.  The
    # returned view holds L, with its unused triangle zeroed (clean=1) so
    # that trtri and the column norms of L^{-1} see only L.
    a[np.diag_indices_from(a)] += shift
    a = a.T
    if not np.isfinite(a).all():
        raise NumericalError("matrix contains NaN or Inf")
    _bump()
    factor, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"matrix is not positive definite (potrf info {info})")
    return factor


def _inverse_diagonal_in_place(a, shift):
    # The core of psd_inverse_diagonal, for a caller that owns the float
    # matrix ``a`` and has no further use for it.
    factor = _factor_in_place(a, shift)
    _bump()
    inverse, info = scipy.linalg.lapack.dtrtri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"triangular inverse failed (trtri info {info})")
    # Row j of the C-order array is column j of L^{-1}.
    rows = inverse.T
    return np.einsum("ij,ij->i", rows, rows)


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
