"""Dense linear-algebra helpers: the feature Gram, counted SPD solves,
the diagonal of a regularized SPD inverse, and a Lanczos spectral norm.

:func:`gram` forms Z^T Z, the O(n m^2) product behind the leverage
baseline's scores and the ridge systems of narrow feature arrays; a wide
ridge system is solved on Z itself by :func:`shifted_solves`, which
never forms it.  The Gram takes Z whole or as row blocks, whose products
it adds up in place, so the leverage baseline streams its pool map into
it without holding the map.  When scipy's BLAS runs one thread, the
Gram's column tiles are filled on every core by the feature map's
participants, through the ``cython_blas`` routines below; an array of
one tile, and any array under a threaded BLAS, has the one product
``Z.T @ Z`` for its Gram, which a threaded BLAS spreads over the cores
itself.

Each kernel asks the BLAS it calls for its live thread count at the time
of the call (:mod:`rffkrr._threads`).  ``run_experiment`` sets BLAS to
one thread for its whole run, so every run takes the split paths below
whatever the environment says; a direct caller of these functions gets
the paths that its own BLAS setting selects.

Every Cholesky factorization, triangular solve and triangular inverse in
the package goes through this module so that tests can count how many
linear solves a code path performs; :func:`psd_inverse_diagonal` counts
as two, its factor and its inverse, and :func:`shifted_solves` counts one
per shift it solves, since a Krylov solve of a shifted system stands in
for a factor and its solve.  The point of the surrogate sampling
pipeline is that it runs without any solves at all, and the counter is
how that claim is checked rather than merely asserted.  The counter is
bumped under a lock, so counts made on several threads at once are all
kept.

Each factor works in place on a shifted C-order buffer that holds a
symmetric matrix, of which only the upper triangle is read.  It calls
scipy's own LAPACK ``dpotrf``, the routine behind
``scipy.linalg.lapack.dpotrf``, through the function pointer that
``scipy.linalg.cython_lapack`` exports, by ``ctypes``, and inverts a
factor by that module's ``dtrtri`` the same way; the BLAS routines
``dtrsm``, ``dgemm`` and ``dsyrk`` come from ``scipy.linalg.cython_blas``.
A ``ctypes`` call releases the interpreter lock for its duration, where
the ``scipy.linalg.lapack`` wrapper holds it, so the tiles below, and
the factors of a leverage grid, run on several cores at once.

A factor (:func:`psd_factor` and :func:`psd_inverse_diagonal`) of order
at least ``_TILED_MIN`` is tiled instead when scipy's BLAS, the one
behind those capsules, runs one thread: a right-looking tiled Cholesky
(Buttari, Langou, Kurzak and Dongarra, "A class of parallel tiled linear algebra algorithms for
multicore architectures", Parallel Computing, 2009), whose panel solves
and trailing updates run on the participants, one tile of
``_FACTOR_TILE`` columns per BLAS call.  A tiled factor is made on the
calling thread, its tiles on the helpers; the only whole factors a
helper makes are the untiled ones of a shift grid, one per shift
(:func:`inverse_diagonals`).  The tiled inverse diagonal then solves one
block of columns of L^{-1} per task.
The tiles depend on the order alone and each is computed whole by one
thread, so these results are the same bit for bit on any number of
cores; they differ from one ``potrf`` and ``trtri`` in their last bits.
On a 2-vCPU VM at order 3584 the factor took 0.34-0.36 s against
0.51-0.59 s, and the inverse diagonal 0.57-0.61 s against 0.91-1.01 s.
"""

import ctypes
import threading

import numpy as np
import scipy.linalg
import scipy.linalg.cython_blas
import scipy.linalg.cython_lapack
import scipy.sparse.linalg

from ._threads import _blas_threads, _run_blocks
from .errors import NumericalError

_solve_count = 0
_solve_count_lock = threading.Lock()

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

# Width of the tiles of a tiled factor, and of the column blocks of its
# inverse diagonal.  At order 3584 the inverse diagonal took a median
# 0.58 s with 256, against 0.62-0.66 s with 128, 192, 384 and 512.
_FACTOR_TILE = 256

# Lone factors of at least this order are tiled when scipy's BLAS runs one
# thread.  At 1200 on two cores the tiled factor and inverse diagonal
# took 0.027 and 0.044 s against 0.034 and 0.065 s for one LAPACK call;
# below it the saving is a few milliseconds, and a factor keeps the bits
# of the one call.
_TILED_MIN = 1200

# Rows of the factor cleared at a time by _inverse_diagonal_in_place, and
# of a diagonal Gram tile mirrored at a time by gram.
_CLEAR_ROWS = 64

# shifted_solves: the true residual every shift must reach (also the bar
# below which krr's factored ridge solve skips refinement), the recursive
# residual CG stops at, and its step cap.  Cross-validation folds of 5992
# rows took 13-16 steps to 1e-13 for the default grid at m = 712 to 1792.
# Each step is two passes over Z, and a capped run that is declined is
# paid before the Gram and its factors (see shifted_solves).
_KRYLOV_RESIDUAL = 1e-10
_KRYLOV_TOL = 1e-13
_KRYLOV_STEPS = 32

# Rows of Z per block of Z^T (Z V) in shifted_solves, set by the shape
# alone.  At 5992 x 1792 on two cores one product took 7.0-7.4 ms in
# blocks of 512 or 1024 rows, 7.6-7.8 ms in 3000, 8.9 ms in 2048 (three
# blocks on two cores) and 9.0 ms in 256; 512 and 1024 timed alike at
# 7490 rows too.
_NORMAL_ROWS = 1024


def check_exact_cap(n):
    if n > EXACT_MODE_CAP:
        raise ValueError(
            f"exact-mode computation on n={n} points exceeds the "
            f"n={EXACT_MODE_CAP} cap; subsample first"
        )


def _require_finite(a):
    if not np.isfinite(a).all():
        raise NumericalError("matrix contains NaN or Inf")


def solve_count():
    """Number of counted factorizations/solves since the last reset."""
    return _solve_count


def reset_solve_count():
    global _solve_count
    _solve_count = 0


def _bump():
    global _solve_count
    with _solve_count_lock:
        _solve_count += 1


def _capsule_routine(module, name, *argtypes):
    # A LAPACK or BLAS routine of scipy's, by the function pointer in the
    # capsule that scipy.linalg.cython_lapack or cython_blas exports under
    # its name (the capsule's own name is the C signature).  The capsule
    # calls use prototypes of their own, leaving ctypes.pythonapi's shared
    # entries as they are.
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    pointer = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(pointer)


# Every argument of the Fortran routines is passed by reference: the
# characters as byte strings, integers and scalars as ctypes objects, and
# matrices by the address of their first entry.
_CHAR, _PTR = ctypes.c_char_p, ctypes.c_void_p
_INT, _REAL = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# uplo, n, a, lda, info
_dpotrf = _capsule_routine(
    scipy.linalg.cython_lapack, "dpotrf", _CHAR, _INT, _PTR, _INT, _INT
)
# uplo, diag, n, a, lda, info
_dtrtri = _capsule_routine(
    scipy.linalg.cython_lapack, "dtrtri", _CHAR, _CHAR, _INT, _PTR, _INT, _INT
)
# side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
_dtrsm = _capsule_routine(
    scipy.linalg.cython_blas, "dtrsm",
    _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _REAL, _PTR, _INT, _PTR, _INT,
)
# transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
_dgemm = _capsule_routine(
    scipy.linalg.cython_blas, "dgemm",
    _CHAR, _CHAR, _INT, _INT, _INT, _REAL, _PTR, _INT, _PTR, _INT, _REAL, _PTR, _INT,
)
# uplo, trans, n, k, alpha, a, lda, beta, c, ldc
_dsyrk = _capsule_routine(
    scipy.linalg.cython_blas, "dsyrk",
    _CHAR, _CHAR, _INT, _INT, _REAL, _PTR, _INT, _REAL, _PTR, _INT,
)
_ZERO, _ONE, _MINUS_ONE = ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_double(-1.0)


def gram(Z):
    """The Gram matrix Z^T Z, exactly symmetric, of an (n, m) array or of
    the row blocks of one.  Not counted: it is a product, not a solve.

    ``Z`` is an array, taken as one block, or an iterable of (rows, m)
    arrays whose rows, stacked, are Z.  G = sum_k B_k^T B_k is added up in
    place, block after block, so a caller can feed it a map that is never
    held whole: the memory used is G and the block in hand (see
    :func:`rffkrr.leverage.erls_baseline_grid`).  Blocks that are not
    C-order float64 are copied.

    When scipy's BLAS runs one thread (as it does inside
    ``run_experiment``), each block's upper-triangle tiles of
    ``_GRAM_TILE`` columns are filled by the calling thread and the
    feature map's helper threads (:mod:`rffkrr._threads`): a diagonal tile
    by ``dsyrk``, any other by ``dgemm``, called through the
    ``cython_blas`` capsules: the first block's product is written into
    G (beta = 0) and each later one added to it (beta = 1).  At the end
    each tile is mirrored into the lower triangle, again one task per
    tile.  The tiles depend on the width alone and each is computed whole
    by one thread, so G is bit for bit the same on any number of cores.
    A one-tile block gives the single product's bits; a wider one differs
    from it in the last bits of the off-diagonal tiles, and several
    blocks differ from one block within the dot products' rounding.
    An array of 2 to ``_GRAM_TILE`` columns, and any array under a
    threaded BLAS, is the single product ``Z.T @ Z``, with no mirror
    pass; a threaded BLAS spreads it over the cores itself, and there
    each block of an iterable is one ``dsyrk`` over all its columns.
    (numpy takes the product of one column as a dot product, whose bits
    differ from ``dsyrk``'s.)
    """
    tiled = _blas_threads("scipy") == 1
    if isinstance(Z, np.ndarray):
        if not tiled or (Z.ndim == 2 and 1 < Z.shape[1] <= _GRAM_TILE):
            Z = np.asarray(Z, dtype=float)
            return Z.T @ Z
        Z = (Z,)
    G = None
    for block in Z:
        block = np.ascontiguousarray(block, dtype=float)
        if G is None:
            if block.ndim != 2:
                raise ValueError(f"expected (rows, m) blocks, got shape {block.shape}")
            m = block.shape[1]
            G, beta = np.empty((m, m)), _ZERO
            width = _GRAM_TILE if tiled else max(m, 1)
            tiles = [(start, min(width, m - start)) for start in range(0, m, width)]
        elif block.shape[1:] != (m,):
            raise ValueError(f"block of shape {block.shape} in a Gram of width {m}")
        _add_gram_block(G, block, tiles, beta)
        beta = _ONE
        del block  # before the next block is made
    if G is None:
        raise ValueError("a Gram needs at least one block")
    _run_blocks(_mirror_tile(G, tiles), _tile_pairs(tiles))
    return G


def _tile_pairs(tiles):
    return [(i, j) for i in range(len(tiles)) for j in range(i, len(tiles))]


def _add_gram_block(G, block, tiles, beta):
    # beta G + B^T B into the upper-triangle tiles of the C-order G, one
    # BLAS call per tile.  The C-order B and G are the Fortran B^T (ld m)
    # and G^T, so C-order tile (a, b) of G is Fortran tile (b, a) of
    # B_b^T (B_a^T)^T, and a diagonal tile's C-order upper triangle is its
    # Fortran lower one.  These are the calls that numpy's matmul makes
    # for Z[:, a].T @ Z[:, b].
    m = G.shape[0]
    rows, lead = ctypes.c_int(block.shape[0]), ctypes.c_int(m)
    source, target = block.ctypes.data, G.ctypes.data
    sizes = [ctypes.c_int(width) for _, width in tiles]

    def fill(_work, i, j):
        a0, b0 = tiles[i][0], tiles[j][0]
        if i == j:
            _dsyrk(
                b"L", b"N", sizes[i], rows, _ONE,
                source + 8 * a0, lead, beta, target + 8 * (a0 * m + a0), lead,
            )
        else:
            _dgemm(
                b"N", b"T", sizes[j], sizes[i], rows, _ONE, source + 8 * b0, lead,
                source + 8 * a0, lead, beta, target + 8 * (a0 * m + b0), lead,
            )

    _run_blocks(fill, _tile_pairs(tiles))


def _mirror_tile(G, tiles):
    # A task that copies upper-triangle tile (i, j) of G into the lower
    # triangle: an off-diagonal tile whole, a diagonal one by strips of
    # _CLEAR_ROWS rows, each the entries left of its diagonal square and
    # then the square's own lower triangle.
    below = np.tri(_CLEAR_ROWS, k=-1, dtype=bool)

    def mirror(_work, i, j):
        (a0, wa), (b0, wb) = tiles[i], tiles[j]
        if i != j:
            G[b0 : b0 + wb, a0 : a0 + wa] = G[a0 : a0 + wa, b0 : b0 + wb].T
            return
        D = G[a0 : a0 + wa, a0 : a0 + wa]
        for start in range(0, wa, _CLEAR_ROWS):
            stop = start + _CLEAR_ROWS
            D[start:stop, :start] = D[:start, start:stop].T
            square = D[start:stop, start:stop]
            k = square.shape[0]
            np.copyto(square, square.T.copy(), where=below[:k, :k])

    return mirror


def psd_factor(mat, shift=0.0):
    """Cholesky-factor the symmetric positive definite mat + shift I.
    Counted.

    One private C-order copy of ``mat`` is shifted and factored in place;
    only its upper triangle is read.  Returns an opaque factor object
    accepted by :func:`factor_solve`.  Raises NumericalError if the
    shifted matrix holds NaN or Inf or is not positive definite.  A copy
    of order at least ``_TILED_MIN`` is factored by tiles on every core
    when scipy's BLAS runs one thread, as it does inside
    ``run_experiment`` (see the module docstring); otherwise by one
    ``potrf``.
    """
    a = np.array(mat, dtype=float, order="C")
    return _factor_in_place(a, shift, _tiled(a.shape[0])), True


def shifted_solves(Z, rhs, shifts):
    """Solve (Z^T Z + shifts[j] I) x_j = rhs for every j in one Krylov
    space, or return None.  Counted once per shift when it returns.

    ``Z`` is an (n, m) feature array; its Gram Z^T Z is never formed.

    Multi-shift conjugate gradients (Hestenes and Stiefel 1952;
    Jegerlehner, "Krylov space solvers for shifted linear systems",
    hep-lat/9612014, 1996): CG runs on the smallest shift, and every other
    shift's residual stays collinear with its residual, so each step costs
    one product Z^T (Z p) for all shifts plus O(len(shifts) m) updates, and a
    shift stops updating once its residual has converged.  No factor is
    made.  Returns a (len(shifts), m) array whose row j is x_j, accepted
    only if the smallest shift converges within ``_KRYLOV_STEPS`` steps,
    the curvature p^T (Z^T Z + shift I) p of every step is positive, and every
    x_j's true residual is at most ``_KRYLOV_RESIDUAL`` ||rhs||.
    Otherwise, and for non-finite shifts or ``rhs``, it returns None
    having counted nothing, so that the caller can factor the shifts
    instead.  A zero ``rhs`` gives zeros.

    Each product is two passes over Z's n m entries: this is CGLS, CG on
    the normal equations (Bjorck, "Numerical Methods for Least Squares
    Problems", 1996).  It spares the O(n m^2) Gram and its factors, which
    cost more than the dozen or so steps of a ridge grid from m of about
    500 up.  A grid of four shifts at n = 5992 on two cores, BLAS at one
    thread, medians of 31 (``scripts/ridge_routes.py``):

    ====  ===============  =======
    m     Gram + factors   on Z
    ====  ===============  =======
    256   9.5 ms           16.5 ms
    384   20.5 ms          20.3 ms
    510   43.4 ms          24.3 ms
    730   64.5 ms          30.6 ms
    950   132 ms           43.9 ms
    1792  370 ms           87.2 ms
    ====  ===============  =======

    Both sides scale with n, so the break-even width does not depend on
    it.  A solve on Z that is declined costs up to ``_KRYLOV_STEPS``
    products, about 0.25 s at m = 1792, before the caller forms the Gram
    and factors it.  Z is not scanned for NaN or
    Inf: a non-finite entry makes the first product non-finite, so the
    solve is declined at its first step, and the caller's Gram path
    raises.

    Everything but Z^T (Z p) runs on the calling thread.  When numpy's
    BLAS runs one thread, Z^T (Z V) is taken in blocks of
    ``_NORMAL_ROWS`` rows on the feature map's participants, and the
    blocks' products are added in block order; the blocks depend on the
    shape alone, so the result is the same bit for bit on any number of
    cores.  Under a threaded BLAS it is one product over all the rows, as
    :func:`gram` is, so the solutions are not always the same bit for bit
    under another BLAS thread count: the blocks' sum and the one product
    round differently, as potrf's factors do.  ``run_experiment``
    holds BLAS at one thread, so its records do not depend on the count
    the environment sets.
    """
    shifts = np.asarray(shifts, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if not (np.isfinite(shifts).all() and np.isfinite(rhs).all()):
        return None
    x = np.zeros((shifts.size, rhs.size))
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm > 0.0:
        if not _shifted_cg(Z, rhs, shifts, x, rhs_norm):
            return None
        product = _normal_product(Z, x.T).T
        residual = np.linalg.norm(rhs - product - shifts[:, None] * x, axis=1)
        if not residual.max() <= _KRYLOV_RESIDUAL * rhs_norm:
            return None
    for _ in shifts:
        _bump()
    return x


def _normal_product(Z, V):
    # Z^T (Z V) for V of shape (m,) or (m, k), with no m x m array, taken
    # as ((V^T Z^T) Z)^T, whose products read C-order operands.  When
    # numpy's BLAS runs one thread, the row blocks' products go in the rows
    # of one array and are added in block order; otherwise, or for one
    # block, it is one product.
    vectors = V.T
    blocks = range(0, Z.shape[0], _NORMAL_ROWS)
    if len(blocks) < 2 or _blas_threads("numpy") != 1:
        return ((vectors @ Z.T) @ Z).T
    partials = np.empty((len(blocks),) + vectors.shape)

    def fill(_work, k, start):
        rows = Z[start : start + _NORMAL_ROWS]
        np.matmul(vectors @ rows.T, rows, out=partials[k])

    _run_blocks(fill, list(enumerate(blocks)))
    total = partials[0]
    for partial in partials[1:]:
        total += partial
    return total.T


def _shifted_cg(Z, rhs, shifts, x, rhs_norm):
    # Multi-shift CG into the rows of ``x``, seeded on the smallest shift;
    # False when a step's curvature is not positive or the seed has not
    # converged within _KRYLOV_STEPS steps.  Shift j's residual is
    # zeta[j] times the seed's r and its direction is directions[j]; the
    # seed's zeta stays exactly 1, so its direction is the seed's own.
    shifts = shifts.tolist()
    seed = shifts.index(min(shifts))
    delta = [shift - shifts[seed] for shift in shifts]
    directions = np.tile(rhs, (len(shifts), 1))
    r = rhs.copy()
    rr = float(r @ r)
    zeta, zeta_before = [1.0] * len(shifts), [1.0] * len(shifts)
    alpha_before, beta_before = 1.0, 0.0
    goal = _KRYLOV_TOL * rhs_norm
    active = range(len(shifts))
    for _ in range(_KRYLOV_STEPS):
        p = directions[seed]
        q = _normal_product(Z, p)
        q += shifts[seed] * p
        curvature = float(p @ q)
        if not 0.0 < curvature < np.inf:
            return False
        alpha = rr / curvature
        r -= alpha * q
        rr_next = float(r @ r)
        beta = rr_next / rr
        for j in active:
            z, z_before = zeta[j], zeta_before[j]
            z_next = z * z_before * alpha_before / (
                z_before * alpha_before * (1.0 + delta[j] * alpha)
                + alpha * beta_before * (z_before - z)
            )
            x[j] += (alpha * z_next / z) * directions[j]
            directions[j] *= (z_next / z) ** 2 * beta
            directions[j] += z_next * r
            zeta[j], zeta_before[j] = z_next, z
        residual = rr_next**0.5
        active = [j for j in active if zeta[j] * residual > goal]
        if seed not in active:
            return True
        alpha_before, beta_before, rr = alpha, beta, rr_next
    return False


def factor_solve(factor, rhs):
    """Solve A x = rhs given a factor from :func:`psd_factor`.  Counted.

    The factor was checked finite when it was made, so only ``rhs`` is
    checked here; ValueError if it holds NaN or Inf.
    """
    _bump()
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side contains NaN or Inf")
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def psd_solve(mat, rhs):
    """Factor-and-solve convenience wrapper (two counted operations)."""
    return factor_solve(psd_factor(mat), rhs)


def psd_inverse_diagonal(mat, shift=0.0):
    """Diagonal of (mat + shift I)^{-1} for a symmetric positive definite
    shifted matrix.  Counted twice: a Cholesky factor and a triangular
    inverse.

    With mat + shift I = L L^T, the inverse is L^{-T} L^{-1}, so its
    diagonal is the squared column norms of L^{-1}.  One private copy of
    ``mat`` is shifted and factored in place, about m^3 / 3 flops, and
    L^{-1} takes about m^3 / 3 more.  Below ``_TILED_MIN``, or when
    scipy's BLAS runs more than one thread or was not found, one
    ``potrf`` factors the copy and one ``trtri`` inverts the factor in
    it, both through the ``cython_lapack`` capsules, and no other m x m
    float array is made.  Otherwise the factor is tiled over the cores,
    and each participant solves blocks of ``_FACTOR_TILE`` columns of
    L^{-1} against the identity (``trsm``) in an m x ``_FACTOR_TILE``
    scratch row of its own.  Only the upper triangle of ``mat`` is read.
    Raises NumericalError if the shifted matrix holds NaN or Inf or is
    not positive definite.  It is :func:`inverse_diagonals` of the copy.
    """
    return inverse_diagonals(np.array(mat, dtype=float, order="C"), [shift])[0]


def inverse_diagonals(gram, shifts):
    """The (k, m) diagonals of (gram + shifts[j] I)^{-1}, one row per
    shift, as :func:`psd_inverse_diagonal` computes each, for a C-order
    float64 ``gram``, which is overwritten.  Counted twice per shift.

    When scipy's BLAS runs one thread, several shifts on a Gram of order
    below ``_TILED_MIN`` run one task per shift on the feature map's
    participants, each on a copy of ``gram`` in an m x m scratch row of
    its own, whose every call releases the interpreter lock or is short.
    Otherwise (one shift, tiled factors, which use every core already,
    or a threaded BLAS) the shifts go one after another, each on a copy
    of ``gram`` but the last.  Below ``_TILED_MIN`` a shift is one potrf
    and one trtri of the same matrix either way, so the diagonals are
    the same bit for bit on any number of cores.
    """
    shifts = np.asarray(shifts, dtype=float)
    if shifts.size > 1 and gram.shape[0] < _TILED_MIN and _blas_threads("scipy") == 1:
        return _inverse_diagonals_in_tasks(gram, shifts)
    diagonals = np.empty((shifts.size, gram.shape[0]))
    for k, shift in enumerate(shifts):
        a = gram if k == shifts.size - 1 else gram.copy()
        diagonals[k] = _inverse_diagonal_in_place(a, shift)
    return diagonals


def _inverse_diagonals_in_tasks(gram, shifts):
    # One _run_blocks task per shift, on a copy of gram in its
    # participant's scratch.
    m = gram.shape[0]
    diagonals = np.empty((shifts.size, m))

    def copy_and_invert(work, k):
        buffer = work.reshape(m, m)
        np.copyto(buffer, gram)
        diagonals[k] = _inverse_diagonal_in_place(buffer, shifts[k])

    _run_blocks(copy_and_invert, [(k,) for k in range(shifts.size)], m * m)
    return diagonals


def _tiled(m):
    # Whether a lone factor of order m is tiled over the cores: its tiles
    # call scipy's BLAS.
    return m >= _TILED_MIN and _blas_threads("scipy") == 1


def _factor_in_place(a, shift, tiled=False):
    # Shift and overwrite the caller's C-order float matrix ``a`` by its
    # factor.  A symmetric matrix is its own transpose, and for a C-order
    # ``a`` the transpose is in the Fortran order potrf overwrites in
    # place.  The returned view ``a.T`` holds L in its lower triangle; its
    # strict upper triangle keeps input entries, which potrs never reads.
    # ``tiled`` factors by _tiled_factor, on every core.
    m = a.shape[0]
    if a.dtype != np.float64 or a.shape != (m, m) or not a.flags.c_contiguous:
        raise ValueError(f"expected a square C-order float64 buffer, got {a.shape}")
    a[np.diag_indices_from(a)] += shift
    _require_finite(a)
    _bump()
    if tiled:
        _tiled_factor(a)
    else:
        _potrf(a, 0, m)
    return a.T


def _potrf(a, k0, order):
    # potrf on the diagonal block of order ``order`` at row and column k0
    # of the Fortran view a.T.  A failure names the leading minor of the
    # whole matrix that is not positive definite, as one potrf would.
    m = a.shape[0]
    n, lead, info = ctypes.c_int(order), ctypes.c_int(m), ctypes.c_int(0)
    _dpotrf(b"L", n, a.ctypes.data + 8 * k0 * (m + 1), lead, info)
    if info.value != 0:
        raise NumericalError(
            f"matrix is not positive definite (potrf info {info.value + k0})"
        )


def _tile_bounds(m):
    # The (start, width) tiles of order m: of one width but the last.
    return [(k0, min(_FACTOR_TILE, m - k0)) for k0 in range(0, m, _FACTOR_TILE)]


def _tiled_factor(a):
    # Right-looking tiled Cholesky of the lower triangle of the Fortran
    # view a.T, in place (Buttari, Langou, Kurzak and Dongarra, Parallel
    # Computing 2009).  At step k the caller factors diagonal tile k; then
    # the participants solve the panel tiles below it, and then update
    # the trailing lower tiles, one BLAS call per tile.  Tile (i, j) of
    # a.T starts at a[j0, i0].
    m = a.shape[0]
    tiles = _tile_bounds(m)
    base, lead = a.ctypes.data, ctypes.c_int(m)
    sizes = [ctypes.c_int(width) for _, width in tiles]

    def at(i, j):
        return base + 8 * (tiles[j][0] * m + tiles[i][0])

    def panel(_work, i, k):
        # L_ik = A_ik L_kk^{-T}
        _dtrsm(
            b"R", b"L", b"T", b"N", sizes[i], sizes[k], _ONE,
            at(k, k), lead, at(i, k), lead,
        )

    def update(_work, i, j, k):
        # A_ij -= L_ik L_jk^T, of which a diagonal tile keeps its lower half
        if i == j:
            _dsyrk(
                b"L", b"N", sizes[i], sizes[k], _MINUS_ONE,
                at(i, k), lead, _ONE, at(i, i), lead,
            )
        else:
            _dgemm(
                b"N", b"T", sizes[i], sizes[j], sizes[k], _MINUS_ONE,
                at(i, k), lead, at(j, k), lead, _ONE, at(i, j), lead,
            )

    for k, (k0, width) in enumerate(tiles):
        _potrf(a, k0, width)
        below = range(k + 1, len(tiles))
        _run_blocks(panel, [(i, k) for i in below])
        _run_blocks(update, [(i, j, k) for j in below for i in range(j, len(tiles))])


def _tiled_inverse_diagonal(a):
    # The squared column norms of L^{-1}, for L in the lower triangle of
    # the Fortran view a.T, one block of _FACTOR_TILE columns per task.
    # Columns j0.. of L^{-1} are zero above row j0, and below it they are
    # L[j0:, j0:]^{-1} times the identity's columns, solved in the
    # participant's scratch.
    m = a.shape[0]
    tiles = _tile_bounds(m)
    diagonal = np.empty(m)
    base, lead = a.ctypes.data, ctypes.c_int(m)

    def solve(work, j0, width):
        rows = m - j0
        # Row c of the C-order block is column c of the Fortran block.
        block = work[: rows * width].reshape(width, rows)
        block.fill(0.0)
        block[np.arange(width), np.arange(width)] = 1.0
        _dtrsm(
            b"L", b"L", b"N", b"N", ctypes.c_int(rows), ctypes.c_int(width), _ONE,
            base + 8 * j0 * (m + 1), lead, block.ctypes.data, ctypes.c_int(rows),
        )
        diagonal[j0 : j0 + width] = np.einsum("ij,ij->i", block, block)

    _run_blocks(solve, tiles, m * _FACTOR_TILE)
    return diagonal


def _inverse_diagonal_in_place(a, shift):
    # One shift of inverse_diagonals, overwriting the C-order float matrix
    # ``a``.  Below _TILED_MIN it runs on the calling thread alone, so a
    # helper may call it.
    tiled = _tiled(a.shape[0])
    _factor_in_place(a, shift, tiled=tiled)
    _bump()
    if tiled:
        return _tiled_inverse_diagonal(a)
    # trtri reads only L, but the column norms of L^{-1} below read whole
    # columns: zero the rest, which is the strict lower triangle of the
    # C-order ``a``, a block of rows at a time.
    below = np.tri(_CLEAR_ROWS, k=-1, dtype=bool)
    for start in range(0, a.shape[0], _CLEAR_ROWS):
        rows = a[start : start + _CLEAR_ROWS]
        k = rows.shape[0]
        rows[:, :start] = 0.0
        np.copyto(rows[:, start : start + k], 0.0, where=below[:k, :k])
    order, info = ctypes.c_int(a.shape[0]), ctypes.c_int(0)
    _dtrtri(b"L", b"N", order, a.ctypes.data, order, info)
    if info.value != 0:
        raise NumericalError(f"triangular inverse failed (trtri info {info.value})")
    # Row j of the C-order ``a`` is column j of L^{-1}.
    return np.einsum("ij,ij->i", a, a)


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
    _require_finite(a)
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
