import numpy as np
import pytest
import scipy.sparse.linalg

from rffkrr import NumericalError
from rffkrr import linalg


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


def test_psd_factor_rejects_indefinite_matrix():
    with pytest.raises(NumericalError):
        linalg.psd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


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


def test_exact_mode_cap_boundary():
    linalg.check_exact_cap(linalg.EXACT_MODE_CAP)
    with pytest.raises(ValueError, match="cap"):
        linalg.check_exact_cap(linalg.EXACT_MODE_CAP + 1)
