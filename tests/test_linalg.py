import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from rffkrr import NumericalError
from rffkrr import features, linalg


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
    assert len(re.findall(r"\bdpotrf\(", (package / "linalg.py").read_text())) == 1


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


@pytest.fixture
def participants(monkeypatch):
    """``participants(count)`` makes Grams run on the caller and
    ``count - 1`` helpers of a fresh pool, with BLAS taken as pinned to
    one thread, so that wide Grams are tiled whatever the environment.  A
    short switch interval makes a tile claimed twice or not at all show."""
    monkeypatch.setattr(linalg, "_BLAS_ONE_THREAD", True)

    def use(count):
        if features._helpers is not None:
            features._helpers.shutdown()
        monkeypatch.setattr(features, "_cpu_count", lambda: count)
        monkeypatch.setattr(features, "_helpers", None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        if features._helpers is not None:
            features._helpers.shutdown()


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
def test_gram_without_pinned_blas_is_single_product(monkeypatch, m):
    monkeypatch.setattr(linalg, "_BLAS_ONE_THREAD", False)
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


@pytest.mark.parametrize(
    "env, pinned",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2"}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "4"}, False),
    ],
)
def test_blas_one_thread_reads_the_blas_variables(monkeypatch, env, pinned):
    # numpy here links OpenBLAS, which reads OPENBLAS_NUM_THREADS first.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert linalg._blas_one_thread() is pinned


def test_exact_mode_cap_boundary():
    linalg.check_exact_cap(linalg.EXACT_MODE_CAP)
    with pytest.raises(ValueError, match="cap"):
        linalg.check_exact_cap(linalg.EXACT_MODE_CAP + 1)
