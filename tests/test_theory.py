import numpy as np
import pytest

from rffkrr import (
    KernelSpec,
    classify_decay,
    exact_leverage,
    feature_map,
    format_bound_report,
    kernel_matrix,
    regularized_factor,
    required_features,
    sample_mc,
    spectral_density,
    surrogate_leverage,
)
from rffkrr.theory import (
    DECAY_EXPONENTIAL,
    DECAY_POLYNOMIAL,
    DECAY_SLOWEST,
    DECAY_UNCLASSIFIED,
)

# identity kernel on two points with unit labels: every constant in the
# bound is known in closed form (dof = 1, surrogate dof = 3)
TRIVIAL = dict(K=np.eye(2), y=np.ones(2), lam=0.5, delta=0.5)


def test_required_features_closed_form_instance():
    report = required_features(**TRIVIAL)
    assert report.dof == pytest.approx(1.0, abs=1e-12)
    assert report.surrogate_dof == pytest.approx(3.0, abs=1e-12)
    assert report.bernstein_m == pytest.approx(1.5, abs=1e-12)
    # 5 * 3 * log(16) / 0.5 and 5 * 1 * log(16) / 0.5
    assert report.s_required_surrogate == pytest.approx(83.17766166719343, abs=1e-9)
    assert report.s_required_erls == pytest.approx(27.725887222397812, abs=1e-9)
    assert report.n == 2
    assert report.l_sup is None
    assert report.decay.kind == DECAY_UNCLASSIFIED
    assert report.s_asymptotic_surrogate is None
    assert report.s_asymptotic_erls is None


def test_bound_scales_inversely_with_delta():
    tight = required_features(np.eye(2), np.ones(2), 0.5, 0.1)
    loose = required_features(np.eye(2), np.ones(2), 0.5, 0.5)
    assert tight.s_required_surrogate == pytest.approx(
        5.0 * loose.s_required_surrogate, rel=1e-12
    )


def test_delta_validation():
    for delta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="delta"):
            required_features(np.eye(2), np.ones(2), 0.5, delta)


def test_label_length_validation():
    with pytest.raises(ValueError):
        required_features(np.eye(3), np.ones(2), 0.5, 0.1)


def _gaussian_instance(n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 2))
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    return kernel_matrix(X, KernelSpec(1.0)), y, X


def test_bounds_decrease_with_lambda():
    K, y, _ = _gaussian_instance()
    surrogate, erls = [], []
    for lam in (0.05, 0.1, 0.5):
        report = required_features(K, y, lam, 0.1)
        surrogate.append(report.s_required_surrogate)
        erls.append(report.s_required_erls)
    assert surrogate[0] > surrogate[1] > surrogate[2]
    assert erls[0] > erls[1] > erls[2]


def test_warns_when_regularization_exceeds_top_eigenvalue():
    K, y, _ = _gaussian_instance()
    with pytest.warns(UserWarning, match="outside"):
        required_features(K, y, 1.0, 0.1)


def test_l_sup_bounded_by_surrogate_dof():
    # Scoring one pool both ways realizes the density ratio; domination of
    # the surrogate score makes every ratio at most 1, so l_sup <= D.
    K, y, X = _gaussian_instance(n=25, seed=6)
    lam = 0.1
    Z = feature_map(X, sample_mc(spectral_density(KernelSpec(1.0), 2), 12, 3)).entries
    exact = exact_leverage(regularized_factor(K, lam), Z)
    surr = surrogate_leverage(y, Z, lam)
    report = required_features(K, y, lam, 0.1, exact_scores=exact, surrogate_scores=surr)
    assert report.l_sup is not None
    assert 0.0 < report.l_sup <= report.surrogate_dof * (1.0 + 1e-9)


def test_mismatched_score_vectors_rejected():
    K, y, X = _gaussian_instance(n=25, seed=6)
    density = spectral_density(KernelSpec(1.0), 2)
    Z_a = feature_map(X, sample_mc(density, 12, 3)).entries
    Z_b = feature_map(X, sample_mc(density, 8, 3)).entries
    exact = exact_leverage(regularized_factor(K, 0.1), Z_a)
    surr = surrogate_leverage(y, Z_b, 0.1)
    with pytest.raises(ValueError, match="pools"):
        required_features(K, y, 0.1, 0.1, exact_scores=exact, surrogate_scores=surr)
    surr = surrogate_leverage(y, Z_a, 0.1)
    for bad in (np.nan, np.inf, -1.0):
        broken = surr.copy()
        broken[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            required_features(K, y, 0.1, 0.1, exact_scores=exact, surrogate_scores=broken)


def test_classify_decay_exponential():
    eig = np.exp(-0.5 * np.arange(1, 41))
    regime = classify_decay(eig)
    assert regime.kind == DECAY_EXPONENTIAL
    assert regime.t is None
    assert regime.r_squared > 0.999


def test_classify_decay_polynomial_rate():
    eig = np.arange(1, 41, dtype=float) ** -4.0
    regime = classify_decay(eig)
    assert regime.kind == DECAY_POLYNOMIAL
    assert regime.t == pytest.approx(2.0, abs=1e-9)
    assert regime.r_squared > 0.999


def test_classify_decay_slowest():
    eig = 1.0 / np.arange(1, 41, dtype=float)
    regime = classify_decay(eig)
    assert regime.kind == DECAY_SLOWEST
    assert regime.t == pytest.approx(0.5, abs=1e-9)


def test_classify_decay_scale_invariant():
    eig = np.arange(1, 41, dtype=float) ** -4.0
    base = classify_decay(eig)
    scaled = classify_decay(eig * 3.7e5)
    assert scaled.kind == base.kind
    assert scaled.t == pytest.approx(base.t, rel=1e-12)


def test_classify_decay_degenerate_spectra():
    # flat spectrum has no decaying fit; a one-value cliff leaves fewer
    # than four usable eigenvalues
    assert classify_decay(np.ones(10)).kind == DECAY_UNCLASSIFIED
    cliff = np.concatenate([[1.0], np.full(9, 1e-30)])
    assert classify_decay(cliff).kind == DECAY_UNCLASSIFIED
    assert classify_decay(np.zeros(6)).kind == DECAY_UNCLASSIFIED


def test_classify_decay_validation():
    with pytest.raises(ValueError, match="at least 4"):
        classify_decay([1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="nonincreasing"):
        classify_decay([1.0, 0.5, 0.6, 0.25])
    with pytest.raises(ValueError, match="nonnegative"):
        classify_decay([1.0, 0.5, 0.25, -0.1])


def _spectrum_instance(eigenvalues, seed=17):
    n = eigenvalues.shape[0]
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    K = (Q * eigenvalues) @ Q.T
    y = np.where(rng.uniform(size=n) > 0.5, 1.0, -1.0)
    return K, y


def test_report_asymptotics_exponential_spectrum():
    n = 40
    K, y = _spectrum_instance(10.0 * np.exp(-0.5 * np.arange(1, n + 1)))
    report = required_features(K, y, 0.05, 0.1)
    assert report.decay.kind == DECAY_EXPONENTIAL
    assert report.s_asymptotic_surrogate == pytest.approx(
        np.sqrt(n) * np.log(np.log(n)), rel=1e-12
    )
    assert report.s_asymptotic_erls == pytest.approx(np.log(n) ** 2, rel=1e-12)


def test_report_asymptotics_polynomial_spectrum():
    n = 40
    K, y = _spectrum_instance(10.0 * np.arange(1, n + 1, dtype=float) ** -4.0)
    report = required_features(K, y, 0.05, 0.1)
    assert report.decay.kind == DECAY_POLYNOMIAL
    assert report.decay.t == pytest.approx(2.0, abs=0.05)
    assert report.s_asymptotic_surrogate == pytest.approx(
        np.sqrt(n) * np.log(n), rel=1e-12
    )
    assert report.s_asymptotic_erls == pytest.approx(
        n ** (1.0 / (4.0 * report.decay.t)) * np.log(n), rel=1e-12
    )


def test_format_bound_report_trivial():
    text = format_bound_report(required_features(**TRIVIAL))
    assert "s_required_surrogate" in text
    assert "83.1776617" in text
    assert "dof" in text and "surrogate_dof" in text
    assert "bernstein_m" in text
    assert DECAY_UNCLASSIFIED in text
    assert text.count("n/a") == 3  # l_sup and both asymptotic orders


def test_format_bound_report_classified():
    n = 40
    K, y = _spectrum_instance(10.0 * np.exp(-0.5 * np.arange(1, n + 1)))
    text = format_bound_report(required_features(K, y, 0.05, 0.1))
    assert DECAY_EXPONENTIAL in text
    assert "[R^2 = " in text
    assert "n/a" in text  # l_sup stays unavailable without scored pools
