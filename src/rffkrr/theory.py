"""Executable diagnostics for the sample-complexity theory: feature-count
lower bounds, Bernstein constants, and eigenvalue-decay classification.

The central quantity is the bound

    s  >=  5 D log(16 d) / delta,

where d is the effective degrees of freedom of the regularized kernel and
D its label-driven surrogate; the classical leverage-sampling bound takes
the same shape with d in place of D.  A report evaluates the bound at
the one lambda it is given.  Everything here is desk-scale by design:
dense eigendecompositions refuse n beyond the exact-mode cap, which
``rffkrr bounds`` reports as a usage error naming the cap.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernels import matrix_entries
from .leverage import degrees_of_freedom, surrogate_dof

DECAY_EXPONENTIAL = "exponential"
DECAY_POLYNOMIAL = "polynomial"
DECAY_SLOWEST = "slowest"
DECAY_UNCLASSIFIED = "unclassified"

_R2_THRESHOLD = 0.95


@dataclass(frozen=True)
class DecayRegime:
    """Spectral decay classification.

    ``kind`` is one of exponential / polynomial / slowest / unclassified;
    ``t`` is the fitted polynomial rate (eigenvalues ~ i^{-2t}) when the
    kind is polynomial or slowest, else None.  ``r_squared`` is the fit
    quality of the winning model, 0.0 when unclassified.
    """

    kind: str
    t: float = None
    r_squared: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    """Feature-count requirements and the constants feeding them.

    ``l_sup`` is only available when the caller scored a concrete pool
    both ways (exact and surrogate); otherwise it is None.  The asymptotic
    fields evaluate the order-of-magnitude expressions for the classified
    decay regime, without constants, and are None when unclassified.
    """

    n: int
    dof: float
    surrogate_dof: float
    bernstein_m: float
    l_sup: float
    s_required_surrogate: float
    s_required_erls: float
    delta: float
    lam: float
    decay: DecayRegime
    s_asymptotic_surrogate: float
    s_asymptotic_erls: float


def _log_fit(x, logs):
    # Least squares for logs ~ a + b*x; returns (slope b, R^2).
    coeffs = np.polyfit(x, logs, 1)
    fitted = np.polyval(coeffs, x)
    ss_res = float(((logs - fitted) ** 2).sum())
    centered = logs - logs.mean()
    ss_tot = float((centered**2).sum())
    if ss_tot == 0.0:
        return float(coeffs[0]), 0.0
    return float(coeffs[0]), 1.0 - ss_res / ss_tot


def classify_decay(eigenvalues):
    """Classify a nonincreasing spectrum by log-space least squares.

    Fits log(eig_i) against i (exponential model eig ~ e^{-ci}) and
    against log i (power model eig ~ i^{-2t}); the better fit wins if its
    R^2 reaches 0.95, with power-law exponents below 2 (t < 1) mapped to
    the slowest regime.  Scaling all eigenvalues by a positive constant
    does not change the result.
    """
    eig = np.asarray(eigenvalues, dtype=float).ravel()
    if eig.shape[0] < 4:
        raise ValueError(f"need at least 4 eigenvalues, got {eig.shape[0]}")
    if np.any(eig < -1e-12 * max(1.0, abs(eig[0]))):
        raise ValueError("eigenvalues must be nonnegative")
    if np.any(np.diff(eig) > 1e-12 * max(1.0, abs(eig[0]))):
        raise ValueError("eigenvalues must be nonincreasing")

    positive = eig[eig > eig[0] * 1e-15] if eig[0] > 0 else eig[eig > 0]
    if positive.shape[0] < 4:
        return DecayRegime(DECAY_UNCLASSIFIED)
    indices = np.arange(1, positive.shape[0] + 1, dtype=float)
    logs = np.log(positive)

    slope_exp, r2_exp = _log_fit(indices, logs)
    slope_pow, r2_pow = _log_fit(np.log(indices), logs)

    candidates = []
    if slope_exp < 0 and r2_exp >= _R2_THRESHOLD:
        candidates.append((r2_exp, DECAY_EXPONENTIAL, None))
    if slope_pow < 0 and r2_pow >= _R2_THRESHOLD:
        t = -slope_pow / 2.0
        kind = DECAY_POLYNOMIAL if t >= 1.0 else DECAY_SLOWEST
        candidates.append((r2_pow, kind, t))
    if not candidates:
        return DecayRegime(DECAY_UNCLASSIFIED)
    r2, kind, t = max(candidates, key=lambda item: item[0])
    return DecayRegime(kind, t, r2)


def _asymptotic_orders(regime, n):
    # Table of regime -> (surrogate order, classical-leverage order),
    # evaluated without constants.
    if n < 3:
        return None, None
    log_n = np.log(n)
    if regime.kind == DECAY_EXPONENTIAL:
        return float(np.sqrt(n) * np.log(log_n)), float(log_n**2)
    if regime.kind == DECAY_POLYNOMIAL:
        return float(np.sqrt(n) * log_n), float(n ** (1.0 / (4.0 * regime.t)) * log_n)
    if regime.kind == DECAY_SLOWEST:
        return float(np.sqrt(n) * log_n), float(np.sqrt(n) * log_n)
    return None, None


def required_features(K, y, lam, delta, exact_scores=None, surrogate_scores=None):
    """Evaluate the feature-count bounds and their constants on one instance.

    Returns a BoundReport with s_required_surrogate = 5 D log(16 d) /
    delta and s_required_erls = 5 d log(16 d) / delta, the Bernstein
    constant m = D eig_1 / (eig_1 + n lam), and the decay classification
    of the spectrum.  When ``exact_scores`` and ``surrogate_scores`` are
    the (l,) arrays that ``exact_leverage`` and the full-variant
    ``surrogate_leverage`` return for one pool, l_sup = D * max(exact_i /
    surrogate_i) realizes sup l(w)/q(w) for the surrogate sampling density.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    Km = matrix_entries(K)
    n = Km.shape[0]
    linalg.check_exact_cap(n)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != n:
        raise ValueError(f"{y.shape[0]} labels for {n} points")

    d = degrees_of_freedom(Km, lam)
    D = surrogate_dof(Km, y, lam)
    eigs = np.linalg.eigvalsh(Km)[::-1]
    eig_top = float(eigs[0])
    if not 0.0 <= n * lam <= eig_top:
        warnings.warn(
            f"n*lambda = {n * lam:.6g} is outside [0, eig_1 = {eig_top:.6g}]; "
            "the bound constants assume n*lambda <= eig_1",
            stacklevel=2,
        )

    bernstein_m = D * eig_top / (eig_top + n * lam)
    s_surrogate = 5.0 * D * np.log(16.0 * d) / delta
    s_erls = 5.0 * d * np.log(16.0 * d) / delta

    l_sup = None
    if exact_scores is not None and surrogate_scores is not None:
        exact = np.asarray(exact_scores, dtype=float)
        surr = np.asarray(surrogate_scores, dtype=float)
        if exact.shape != surr.shape:
            raise ValueError("score vectors cover different pools")
        if not np.all(np.isfinite([exact, surr])) or np.any([exact < 0, surr < 0]):
            raise ValueError("scores must be finite and nonnegative")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where((exact == 0) & (surr == 0), 0.0, exact / surr)
        l_sup = float(D * ratio.max())

    if n >= 4:
        regime = classify_decay(np.clip(eigs, 0.0, None))
    else:
        regime = DecayRegime(DECAY_UNCLASSIFIED)
    asym_surrogate, asym_erls = _asymptotic_orders(regime, n)

    return BoundReport(
        n=n,
        dof=d,
        surrogate_dof=D,
        bernstein_m=bernstein_m,
        l_sup=l_sup,
        s_required_surrogate=float(s_surrogate),
        s_required_erls=float(s_erls),
        delta=float(delta),
        lam=float(lam),
        decay=regime,
        s_asymptotic_surrogate=asym_surrogate,
        s_asymptotic_erls=asym_erls,
    )


def format_bound_report(report):
    """Render a BoundReport as aligned key: value text lines."""
    regime = report.decay.kind
    if report.decay.t is not None:
        regime += f" (t = {report.decay.t:.3f})"
    if report.decay.kind != DECAY_UNCLASSIFIED:
        regime += f" [R^2 = {report.decay.r_squared:.4f}]"
    rows = [
        ("n", f"{report.n}"),
        ("lambda", f"{report.lam:.9g}"),
        ("delta", f"{report.delta:.9g}"),
        ("dof", f"{report.dof:.9g}"),
        ("surrogate_dof", f"{report.surrogate_dof:.9g}"),
        ("bernstein_m", f"{report.bernstein_m:.9g}"),
        ("l_sup", "n/a" if report.l_sup is None else f"{report.l_sup:.9g}"),
        ("s_required_surrogate", f"{report.s_required_surrogate:.9g}"),
        ("s_required_erls", f"{report.s_required_erls:.9g}"),
        ("decay_regime", regime),
        (
            "s_asymptotic_surrogate",
            "n/a"
            if report.s_asymptotic_surrogate is None
            else f"{report.s_asymptotic_surrogate:.9g}",
        ),
        (
            "s_asymptotic_erls",
            "n/a"
            if report.s_asymptotic_erls is None
            else f"{report.s_asymptotic_erls:.9g}",
        ),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)
