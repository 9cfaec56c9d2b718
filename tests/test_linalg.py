import ctypes
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from rffkrr import KernelSpec, NumericalError
from rffkrr import linalg
from rffkrr.leverage import approx_ridge_leverage, surrogate_pipeline


@pytest.fixture(autouse=True)
def _fresh_counter():
    linalg.reset_solve_count()
    yield
    linalg.reset_solve_count()


def test_psd_solve_matches_dense_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 20))
    spd = A @ A.T + 20 * np.eye(20)
    rhs = rng.standard_normal(20)
    np.testing.assert_allclose(
        linalg.psd_solve(spd, rhs), np.linalg.solve(spd, rhs), rtol=1e-10
    )


def test_solve_counter_counts_factor_and_solve():
    spd = np.eye(3) * 2.0
    assert linalg.solve_count() == 0
    factor = linalg.psd_factor(spd)
    assert linalg.solve_count() == 1
    linalg.factor_solve(factor, np.ones(3))
    assert linalg.solve_count() == 2
    linalg.psd_solve(spd, np.ones(3))
    assert linalg.solve_count() == 4
    linalg.reset_solve_count()
    assert linalg.solve_count() == 0


@pytest.mark.parametrize("m", [1, 7, 64, 513])
def test_psd_factor_shift_matches_scipy_on_the_shifted_matrix(m):
    # An exactly symmetric G: both triangles hold the same numbers, so the
    # factor of its upper triangle is scipy's factor of the lower one.
    A = np.random.default_rng(m).standard_normal((m, m + 3))
    G = A @ A.T
    np.testing.assert_array_equal(G, G.T)
    before = G.copy()
    rhs = np.random.default_rng(m + 1).standard_normal((m, 2))
    x = linalg.factor_solve(linalg.psd_factor(G, 0.37), rhs)
    np.testing.assert_array_equal(G, before)
    shifted = scipy.linalg.cho_factor(G + 0.37 * np.eye(m), lower=True)
    assert np.array_equal(x, scipy.linalg.cho_solve(shifted, rhs))


@pytest.mark.parametrize("m", [1, 7, 513, 1792])
def test_ctypes_factor_equals_scipy_wrapper_bit_for_bit(m):
    # Both calls reach scipy's one LAPACK dpotrf: by its function pointer,
    # and through the scipy.linalg.lapack wrapper.
    G = _dense_spd(m, m + 2)
    np.testing.assert_array_equal(G, G.T)
    factor = linalg._factor_in_place(G.copy(), 0.25)
    expected, info = scipy.linalg.lapack.dpotrf(
        G + 0.25 * np.eye(m), lower=1, clean=1
    )
    assert info == 0
    assert np.array_equal(np.tril(factor), expected)


def test_factor_releases_the_interpreter_lock():
    # While one thread is inside dpotrf, another keeps running Python code;
    # under a held lock it would count nothing.  The long switch interval
    # keeps the counter out between reading ``before`` and the call: it
    # gets the lock only when the factoring thread gives it up.
    m = 1792
    G = _dense_spd(m, 9)
    started, done = threading.Event(), threading.Event()
    ticks = []

    def count():
        started.set()
        while not done.is_set():
            ticks.append(None)
            time.sleep(0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.5)
    counter = threading.Thread(target=count)
    counter.start()
    try:
        started.wait(timeout=10)
        for _ in range(3):
            a = G.copy()
            n, info = ctypes.c_int(m), ctypes.c_int(0)
            before = len(ticks)
            linalg._dpotrf(b"L", n, a.ctypes.data, n, info)
            assert len(ticks) > before
            assert info.value == 0
    finally:
        done.set()
        counter.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not counter.is_alive()


def _ridge_features(n, m, seed):
    # Unit-norm cosine/sine feature rows Z on +-1 labels, so that
    # tr Z^T Z = n as for the package's unweighted maps, with n times a
    # grid like the default one as the shifts.
    rng = np.random.default_rng(seed)
    projection = rng.uniform(size=(n, 3)) @ rng.standard_normal((3, m // 2)) * 3.0
    Z = np.hstack([np.cos(projection), np.sin(projection)]) / np.sqrt(m // 2)
    y = np.where(rng.uniform(size=n) < 0.6, 1.0, -1.0)
    return Z, y, [n * lam for lam in (0.05, 0.1, 0.5, 1.0)]


def _ridge_system(n, m, seed):
    # The Gram and Z^T y of _ridge_features, with its shifts.
    Z, y, shifts = _ridge_features(n, m, seed)
    return Z.T @ Z, Z.T @ y, shifts


@pytest.mark.parametrize("m", [64, 300])
def test_shifted_solves_equal_factor_solves(m):
    gram, rhs, shifts = _ridge_system(900, m, m)
    solved = linalg.shifted_solves(gram, rhs, shifts)
    assert solved.shape == (len(shifts), m)
    assert linalg.solve_count() == len(shifts)
    for beta, shift in zip(solved, shifts):
        expected = linalg.factor_solve(linalg.psd_factor(gram, shift), rhs)
        assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(expected)
        residual = rhs - gram @ beta - shift * beta
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


def test_shifted_solves_seed_on_the_smallest_shift_in_any_order():
    gram, rhs, shifts = _ridge_system(400, 64, 1)
    shuffled = [shifts[2], shifts[0], shifts[3], shifts[0], shifts[1]]
    solved = linalg.shifted_solves(gram, rhs, shuffled)
    np.testing.assert_array_equal(solved[1], solved[3])
    for beta, shift in zip(solved, shuffled):
        expected = scipy.linalg.solve(gram + shift * np.eye(64), rhs, assume_a="pos")
        np.testing.assert_allclose(beta, expected, rtol=1e-11, atol=0.0)


def test_shifted_solves_of_a_zero_rhs_are_zeros():
    gram, _, shifts = _ridge_system(200, 64, 2)
    with np.errstate(all="raise"):
        solved = linalg.shifted_solves(gram, np.zeros(64), shifts)
    np.testing.assert_array_equal(solved, np.zeros((len(shifts), 64)))
    assert linalg.solve_count() == len(shifts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_shifted_solves_refuse_a_non_finite_gram_before_any_step(monkeypatch, bad):
    gram, rhs, shifts = _ridge_system(200, 64, 3)
    gram[5, 7] = bad
    steps = []
    monkeypatch.setattr(linalg, "_shifted_cg", lambda *args: steps.append(args))
    with pytest.raises(NumericalError):
        linalg.shifted_solves(gram, rhs, shifts)
    assert steps == []
    assert linalg.solve_count() == 0


def test_shifted_solves_decline_without_counting(monkeypatch):
    gram, rhs, shifts = _ridge_system(400, 64, 4)
    # Non-finite shifts or rhs, and curvature that is not positive: CG
    # would solve -I x = rhs in one step, but that matrix is not definite.
    assert linalg.shifted_solves(gram, rhs, shifts + [np.inf]) is None
    assert linalg.shifted_solves(gram, np.where(rhs > 0, np.nan, rhs), shifts) is None
    assert linalg.shifted_solves(-np.eye(64), rhs, [0.0]) is None
    # CG that has not converged within the step cap.
    monkeypatch.setattr(linalg, "_KRYLOV_STEPS", 2)
    assert linalg.shifted_solves(gram, rhs, shifts) is None
    # Converged recursive residuals whose true residual is not small enough.
    monkeypatch.setattr(linalg, "_KRYLOV_STEPS", 32)
    monkeypatch.setattr(linalg, "_KRYLOV_TOL", 1e-3)
    assert linalg.shifted_solves(gram, rhs, shifts) is None
    assert linalg.solve_count() == 0


def test_shifted_solves_are_the_same_on_any_participant_count(participants):
    gram, rhs, shifts = _ridge_system(900, 300, 5)
    solved = []
    for count in (1, 2, 4):
        participants(count)
        solved.append(linalg.shifted_solves(gram, rhs, shifts))
    np.testing.assert_array_equal(solved[1], solved[0])
    np.testing.assert_array_equal(solved[2], solved[0])


@pytest.fixture
def small_row_blocks(participants, monkeypatch):
    # Z^T (Z V) in row blocks of 64, the last one ragged at 300 rows.
    monkeypatch.setattr(linalg, "_NORMAL_ROWS", 64)
    return participants


@pytest.mark.parametrize("columns", [None, 3])
def test_normal_product_is_the_gram_product(small_row_blocks, columns):
    small_row_blocks(2)
    Z = _feature_like(300, 96, 7)
    V = np.random.default_rng(8).standard_normal((96,) if columns is None else (96, columns))
    product = linalg._normal_product(Z, V)
    assert product.shape == V.shape
    # The dot-product rounding bound of both products, entry by entry.
    bound = 2 * (300 + 96) * np.finfo(float).eps * (np.abs(Z).T @ (np.abs(Z) @ np.abs(V)))
    assert np.all(np.abs(product - linalg.gram(Z) @ V) <= bound)


@pytest.mark.parametrize("columns", [None, 3])
def test_normal_product_is_the_same_on_any_participant_count(small_row_blocks, columns):
    Z = _feature_like(300, 96, 9)
    V = np.random.default_rng(10).standard_normal((96,) if columns is None else (96, columns))
    products = []
    for count in (1, 2, 4):
        small_row_blocks(count)
        products.append(linalg._normal_product(Z, V))
    np.testing.assert_array_equal(products[1], products[0])
    np.testing.assert_array_equal(products[2], products[0])


def test_normal_product_under_threaded_blas_is_one_product(
    small_row_blocks, blas_threads, monkeypatch
):
    small_row_blocks(2)
    blas_threads(2)
    calls = []
    monkeypatch.setattr(linalg, "_run_blocks", lambda *args: calls.append(args))
    Z = _feature_like(300, 96, 11)
    V = np.random.default_rng(12).standard_normal((96, 3))
    np.testing.assert_array_equal(linalg._normal_product(Z, V), ((V.T @ Z.T) @ Z).T)
    assert calls == []


def test_shifted_solves_on_z_equal_the_gram_route_and_factor_solves(small_row_blocks):
    small_row_blocks(2)
    Z, y, shifts = _ridge_features(900, 300, 13)
    gram, rhs = Z.T @ Z, Z.T @ y
    on_z = linalg.shifted_solves(Z, rhs, shifts, normal=True)
    assert on_z.shape == (len(shifts), 300)
    assert linalg.solve_count() == len(shifts)
    on_gram = linalg.shifted_solves(gram, rhs, shifts)
    for beta, beta_gram, shift in zip(on_z, on_gram, shifts):
        expected = linalg.factor_solve(linalg.psd_factor(gram, shift), rhs)
        assert np.linalg.norm(beta - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(beta - beta_gram) <= 1e-12 * np.linalg.norm(beta_gram)


@pytest.mark.parametrize("positive", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shifted_solves_on_a_non_finite_z_decline_at_the_first_step(
    small_row_blocks, monkeypatch, bad, positive
):
    # Z is not scanned: its first product is not finite, so CG stops at
    # its first curvature, having counted nothing.  With Z and rhs all
    # positive, an infinite entry makes every entry of the product, and
    # so the curvature, +inf.
    small_row_blocks(2)
    Z, y, shifts = _ridge_features(300, 64, 15)
    rhs = Z.T @ y
    if positive:
        Z, rhs = np.abs(Z) + 0.1, np.abs(rhs) + 0.1
    Z[17, 5] = bad
    products = []
    product = linalg._normal_product
    monkeypatch.setattr(
        linalg, "_normal_product", lambda *args: products.append(1) or product(*args)
    )
    with np.errstate(invalid="ignore"):
        assert linalg.shifted_solves(Z, rhs, shifts, normal=True) is None
    assert products == [1]
    assert linalg.solve_count() == 0


def test_shifted_solves_decline_a_nan_solution(monkeypatch):
    # A NaN true residual fails the residual bar rather than slipping past
    # a comparison that NaN makes false.
    gram, rhs, shifts = _ridge_system(200, 64, 16)

    def nan_cg(matrix, rhs, shifts, x, rhs_norm, normal=False):
        x.fill(np.nan)
        return True

    monkeypatch.setattr(linalg, "_shifted_cg", nan_cg)
    assert linalg.shifted_solves(gram, rhs, shifts) is None
    assert linalg.solve_count() == 0


def test_factor_refuses_a_buffer_it_cannot_pass_to_lapack():
    G = _dense_spd(6, 2)
    for bad in (np.asfortranarray(G)[:, :5], G[::2, ::2], G.astype(np.float32)):
        with pytest.raises(ValueError):
            linalg._factor_in_place(bad, 0.0)
    assert linalg.solve_count() == 0


def test_solve_counter_counts_every_thread():
    threads = [
        threading.Thread(target=lambda: [linalg._bump() for _ in range(2000)])
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert linalg.solve_count() == 8 * 2000


def test_factor_solve_rejects_non_finite_rhs():
    factor = linalg.psd_factor(_dense_spd(4, 3))
    for bad in (np.nan, np.inf):
        rhs = np.ones(4)
        rhs[2] = bad
        with pytest.raises(ValueError):
            linalg.factor_solve(factor, rhs)


def _wrapper_inverse_diagonal(mat, shift):
    # The diagonal of (mat + shift I)^{-1} as it was computed through
    # scipy.linalg.lapack's dpotrf wrapper, which zeroes the unused
    # triangle itself (clean=1).
    a = np.array(mat, dtype=float, order="C")
    a[np.diag_indices_from(a)] += shift
    factor, info = scipy.linalg.lapack.dpotrf(a.T, lower=1, clean=1, overwrite_a=1)
    assert info == 0
    inverse, info = scipy.linalg.lapack.dtrtri(factor, lower=1, overwrite_c=1)
    assert info == 0
    rows = inverse.T
    return np.einsum("ij,ij->i", rows, rows)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 513])
def test_psd_inverse_diagonal_equals_the_wrapper_path(m):
    # Widths around the 64-row blocks in which the unused triangle is
    # cleared.
    G = _dense_spd(m, 3 * m)
    for shift in (0.0, 0.7):
        assert np.array_equal(
            linalg.psd_inverse_diagonal(G, shift), _wrapper_inverse_diagonal(G, shift)
        )


def test_approx_ridge_leverage_equals_the_wrapper_path():
    Z = np.random.default_rng(4).uniform(-1.0, 1.0, size=(300, 2 * 70)) / np.sqrt(70)
    grid = (0.001, 0.01, 0.1)
    G = Z.T @ Z
    n = Z.shape[0]
    for lam, row in zip(grid, approx_ridge_leverage(Z, grid)):
        diagonal = 1.0 - n * lam * _wrapper_inverse_diagonal(G, n * lam)
        expected = np.clip(diagonal[0::2] + diagonal[1::2], 0.0, None)
        assert np.array_equal(row, expected)


def test_psd_factor_memory_is_one_buffer(traced_peak):
    m = 1024
    G = _dense_spd(m, 5)
    peak, _ = traced_peak(lambda: linalg.psd_factor(G, 0.5))
    assert peak <= 1.2 * m * m * 8


# Factorizations and inverses outside linalg would escape its solve
# counter, which is how a pipeline is shown to run without solves.
_FACTOR_CALLS = (
    "cho_factor",
    "cho_solve",
    "dpotrf",
    "dtrtri",
    "dtrsm",
    "solve_triangular",
    "np.linalg.solve",
    "np.linalg.inv",
    "np.linalg.cholesky",
)


def test_every_factorization_goes_through_linalg():
    package = Path(linalg.__file__).parent
    for path in package.glob("*.py"):
        if path.name != "linalg.py":
            text = path.read_text()
            assert [name for name in _FACTOR_CALLS if name in text] == [], path.name
    # One call of the LAPACK routine, scipy's wrapper or the ctypes handle.
    assert len(re.findall(r"\b_?dpotrf\(", (package / "linalg.py").read_text())) == 1


def test_psd_factor_rejects_indefinite_matrix():
    with pytest.raises(NumericalError):
        linalg.psd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_factor_rejects_non_finite_matrix(bad):
    # A NaN or Inf Gram is a numerical failure (CLI exit 3), not a bare
    # ValueError from scipy's finiteness check.
    for mat in (np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[2.0, bad], [bad, 2.0]])):
        with pytest.raises(NumericalError):
            linalg.psd_factor(mat)
        with pytest.raises(NumericalError):
            linalg.psd_solve(mat, np.ones(2))
    # A finite matrix at a non-finite shift, as a ridge of n times a huge
    # lambda overflows to inf.
    with pytest.raises(NumericalError):
        linalg.psd_factor(_dense_spd(3, 1), bad)
    assert linalg.solve_count() == 0


def _dense_spd(m, seed):
    A = np.random.default_rng(seed).standard_normal((m, m))
    return A @ A.T + m * np.eye(m)


@pytest.mark.parametrize("m", [1, 5, 64])
def test_psd_inverse_diagonal_matches_dense_inverse(m):
    # Dense, non-diagonal inputs: a factor whose unused triangle kept the
    # input's entries would give diagonals far off here.
    spd = _dense_spd(m, m)
    expected = np.diag(np.linalg.inv(spd))
    np.testing.assert_allclose(linalg.psd_inverse_diagonal(spd), expected, rtol=1e-12)
    np.testing.assert_allclose(
        linalg.psd_inverse_diagonal(spd, 0.3),
        np.diag(np.linalg.inv(spd + 0.3 * np.eye(m))),
        rtol=1e-12,
    )


def test_psd_inverse_diagonal_counts_factor_and_inverse():
    linalg.psd_inverse_diagonal(_dense_spd(5, 1))
    assert linalg.solve_count() == 2


def test_psd_inverse_diagonal_leaves_input_unchanged():
    for spd in (_dense_spd(6, 2), np.asfortranarray(_dense_spd(6, 3))):
        before = spd.copy()
        linalg.psd_inverse_diagonal(spd, 0.5)
        np.testing.assert_array_equal(spd, before)


def test_psd_inverse_diagonal_rejects_indefinite_and_nan():
    with pytest.raises(NumericalError):
        linalg.psd_inverse_diagonal(np.array([[1.0, 0.0], [0.0, -1.0]]))
    nan = _dense_spd(4, 4)
    nan[2, 1] = nan[1, 2] = np.nan
    with pytest.raises(NumericalError):
        linalg.psd_inverse_diagonal(nan)
    with pytest.raises(ValueError):
        linalg.psd_inverse_diagonal(np.ones((2, 3)))


def _near_tie(n=300):
    # Top |eigenvalues| 1 and +/-0.999 nearly tie, the slow case for
    # iterative eigensolvers: a power iteration that stops when its estimate
    # changes by <= 1e-9 stops ~5e-7 off here.
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([[1.0, 0.999, -0.999], rng.uniform(-0.5, 0.5, n - 3)])
    A = (Q * eigs) @ Q.T
    return 0.5 * (A + A.T)


def test_spectral_norm_matches_eigvalsh():
    inputs = [
        np.random.default_rng(seed).standard_normal((64, 64)) for seed in range(3)
    ]
    inputs += [_near_tie(), np.array([[-3.0]]), np.array([[0.5, 2.0], [2.0, -1.0]])]
    for A in inputs:
        A = 0.5 * (A + A.T)
        expected = np.abs(np.linalg.eigvalsh(A)).max()
        assert linalg.spectral_norm_sym(A) == pytest.approx(expected, rel=1e-12)


def test_spectral_norm_handles_plus_minus_pair():
    # Extreme eigenvalues +1 and -1: the iterate norm still converges to 1.
    assert linalg.spectral_norm_sym(np.diag([1.0, -1.0])) == pytest.approx(1.0)


def test_spectral_norm_zero_matrix():
    assert linalg.spectral_norm_sym(np.zeros((5, 5))) == 0.0


def test_spectral_norm_input_validation():
    with pytest.raises(ValueError):
        linalg.spectral_norm_sym(np.ones((2, 3)))
    with pytest.raises(NumericalError):
        linalg.spectral_norm_sym(np.array([[np.nan]]))


def test_spectral_norm_lanczos_failure_is_numerical_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericalError):
        linalg.spectral_norm_sym(np.eye(4))


# The narrowest Gram that spans two tiles.
_TILED = linalg._GRAM_TILE + 1
# 1792 (three tiles and a half) and 1101 end in ragged tiles; 1024 does not.
_GRAM_WIDTHS = [1, 7, _TILED - 1, _TILED, _TILED + 1, 1024, 1101, 1792]


def _feature_like(n, m, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, m)) / np.sqrt(m)


@pytest.mark.parametrize("m", _GRAM_WIDTHS)
def test_gram_matches_single_product(participants, m):
    participants(2)
    n = 257
    Z = _feature_like(n, m, m)
    G = linalg.gram(Z)
    product = Z.T @ Z
    assert G.shape == (m, m)
    np.testing.assert_array_equal(G, G.T)
    if m < _TILED:
        np.testing.assert_array_equal(G, product)
    # The dot-product rounding bound, entry by entry.
    bound = n * np.finfo(float).eps * (np.abs(Z).T @ np.abs(Z))
    assert np.all(np.abs(G - product) <= bound)
    assert linalg.solve_count() == 0


@pytest.mark.parametrize("m", _GRAM_WIDTHS)
def test_gram_without_pinned_blas_is_single_product(blas_threads, m):
    blas_threads(2)
    Z = _feature_like(131, m, m)
    np.testing.assert_array_equal(linalg.gram(Z), Z.T @ Z)


@pytest.mark.parametrize("m", [_TILED, 1101, 1792])
def test_gram_is_the_same_on_any_participant_count(participants, m):
    Z = _feature_like(300, m, 2 * m)
    grams = []
    for count in (1, 2, 4):
        participants(count)
        grams.append(linalg.gram(Z))
    np.testing.assert_array_equal(grams[1], grams[0])
    np.testing.assert_array_equal(grams[2], grams[0])


def test_gram_memory_is_the_gram(participants, traced_peak):
    participants(4)
    Z = _feature_like(600, 1792, 3)
    peak, G = traced_peak(lambda: linalg.gram(Z))
    assert peak <= 1.05 * G.nbytes


def test_exact_mode_cap_boundary():
    linalg.check_exact_cap(linalg.EXACT_MODE_CAP)
    with pytest.raises(ValueError, match="cap"):
        linalg.check_exact_cap(linalg.EXACT_MODE_CAP + 1)


# Tiled factors, with tiles small enough that a tiled order is quick.
_TILE = 16
# Orders below, at and above one tile and two, and one ending in a ragged tile.
_TILED_ORDERS = [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 5 * _TILE - 3]


@pytest.fixture
def small_tiles(participants, monkeypatch):
    """Lone factors of every order are tiled, in tiles of ``_TILE``; the
    returned ``participants`` sets how many threads run the tiles."""
    monkeypatch.setattr(linalg, "_FACTOR_TILE", _TILE)
    monkeypatch.setattr(linalg, "_TILED_MIN", 2)
    participants(2)
    return participants


def _lower(factor):
    return np.tril(factor[0])


@pytest.mark.parametrize("m", _TILED_ORDERS)
def test_tiled_factor_is_a_cholesky_factor(small_tiles, m):
    G = _dense_spd(m, m)
    L = _lower(linalg.psd_factor(G, 0.5))
    A = G + 0.5 * np.eye(m)
    eps = np.finfo(float).eps
    assert np.linalg.norm(L @ L.T - A) <= 2 * m * eps * np.linalg.norm(A)
    reference = scipy.linalg.cholesky(A, lower=True)
    assert np.linalg.norm(reference @ reference.T - A) <= 2 * m * eps * np.linalg.norm(A)
    np.testing.assert_allclose(L, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("m", _TILED_ORDERS)
def test_tiled_inverse_diagonal_matches_dense_inverse(small_tiles, m):
    G = _dense_spd(m, m + 1)
    np.testing.assert_allclose(
        linalg.psd_inverse_diagonal(G, 0.3),
        np.diag(np.linalg.inv(G + 0.3 * np.eye(m))),
        rtol=1e-12,
    )


def test_tiled_results_are_the_same_on_any_participant_count(small_tiles):
    m = 5 * _TILE - 3
    G = _dense_spd(m, 21)
    factors, diagonals = [], []
    for count in (1, 2, 4):
        small_tiles(count)
        factors.append(_lower(linalg.psd_factor(G, 0.2)))
        diagonals.append(linalg.psd_inverse_diagonal(G, 0.2))
    for factor, diagonal in zip(factors[1:], diagonals[1:]):
        np.testing.assert_array_equal(factor, factors[0])
        np.testing.assert_array_equal(diagonal, diagonals[0])


def test_lone_factors_below_the_minimum_or_on_threaded_blas_are_one_potrf(
    small_tiles, blas_threads, monkeypatch
):
    m = 3 * _TILE
    G = _dense_spd(m, 22)
    one_call = _lower((linalg._factor_in_place(G.copy(), 0.4), True))
    tiled = _lower(linalg.psd_factor(G, 0.4))
    assert not np.array_equal(tiled, one_call)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_TILED_MIN", m + 1)
        np.testing.assert_array_equal(_lower(linalg.psd_factor(G, 0.4)), one_call)
    blas_threads(2)
    np.testing.assert_array_equal(_lower(linalg.psd_factor(G, 0.4)), one_call)


def test_tiled_factor_names_the_failing_column(small_tiles):
    m = 4 * _TILE
    G = _dense_spd(m, 23)
    column = 2 * _TILE + 5
    G[column, column] = -1.0
    _, info = scipy.linalg.lapack.dpotrf(G, lower=1)
    assert info == column + 1
    for call in (linalg.psd_factor, linalg.psd_inverse_diagonal):
        with pytest.raises(NumericalError, match=f"potrf info {column + 1}\\)"):
            call(G)


def test_tiled_factor_checks_for_nan_before_any_factor(small_tiles, monkeypatch):
    calls = []
    potrf = linalg._dpotrf
    monkeypatch.setattr(linalg, "_dpotrf", lambda *args: calls.append(args) or potrf(*args))
    G = _dense_spd(3 * _TILE, 24)
    G[2 * _TILE + 1, _TILE + 3] = G[_TILE + 3, 2 * _TILE + 1] = np.nan
    for call in (linalg.psd_factor, linalg.psd_inverse_diagonal):
        with pytest.raises(NumericalError, match="NaN"):
            call(G)
    assert calls == []
    assert linalg.solve_count() == 0


def test_tiled_paths_count_as_before(small_tiles):
    m = 3 * _TILE + 2
    linalg.psd_factor(_dense_spd(m, 25))
    assert linalg.solve_count() == 1
    linalg.reset_solve_count()
    linalg.psd_inverse_diagonal(_dense_spd(m, 26))
    assert linalg.solve_count() == 2
    linalg.reset_solve_count()
    rng = np.random.default_rng(27)
    X, y = rng.uniform(size=(60, 3)), rng.choice([-1.0, 1.0], size=60)
    surrogate_pipeline(X, y, KernelSpec(1.0), 2 * _TILE, 0.1, pool_size=4 * _TILE, seed=2)
    assert linalg.solve_count() == 0


def test_tiled_inverse_diagonal_memory(small_tiles, traced_peak, monkeypatch):
    monkeypatch.setattr(linalg, "_FACTOR_TILE", 64)
    small_tiles(4)
    m = 300
    G = _dense_spd(m, 28)
    peak, _ = traced_peak(lambda: linalg.psd_inverse_diagonal(G, 0.5))
    assert peak <= 1.2 * m * m * 8 + 4 * m * 64 * 8
