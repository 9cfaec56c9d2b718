"""Gaussian kernel evaluation, exact kernel matrices, the matching spectral
measure, and a spectral-norm approximation error metric.

The kernel throughout is

    k(x, x') = exp(-||x - x'||^2 / sigma^2),

with a single bandwidth parameter sigma.  Its spectral measure (the Fourier
transform, normalized to a probability density) is a zero-mean Gaussian on
frequency space with per-coordinate variance 2 / sigma^2.  Frequency
samplers draw from that density; see :mod:`rffkrr.features`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import linalg

# Inverse-CDF arguments are clamped away from {0, 1} so that deterministic
# low-discrepancy inputs can never produce infinite frequencies.
_UNIT_CLIP = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel parameters.

    Parameters
    ----------
    bandwidth : float
        The sigma in exp(-||x - x'||^2 / sigma^2).  Must be positive.
    """

    bandwidth: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


@dataclass(frozen=True)
class SpectralDensity:
    """Zero-mean isotropic Gaussian density on frequency space.

    ``variance`` is the per-coordinate variance, equal to 2 / sigma^2 for
    the Gaussian kernel with bandwidth sigma.
    """

    dim: int
    variance: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError(f"variance must be positive, got {self.variance}")

    def sample(self, count, rng):
        """Draw ``count`` iid frequencies using the given numpy Generator."""
        return rng.normal(0.0, np.sqrt(self.variance), size=(count, self.dim))

    def icdf(self, u):
        """Map uniform (0,1) variates through the per-coordinate inverse CDF.

        Inputs are clamped to [1e-12, 1 - 1e-12] so that endpoint values
        from deterministic sequences stay finite.
        """
        u = np.clip(np.asarray(u, dtype=float), _UNIT_CLIP, 1.0 - _UNIT_CLIP)
        return ndtri(u) * np.sqrt(self.variance)


def eval_kernel(x, x_prime, spec):
    """Evaluate k(x, x') for a single pair of points."""
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.shape != x_prime.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {x_prime.shape}")
    diff = x - x_prime
    return float(np.exp(-(diff @ diff) / spec.bandwidth**2))


def kernel_matrix(X, spec):
    """Exact Gaussian kernel matrix for the rows of X.

    Squared distances are computed from the Gram matrix and clipped at
    zero, the result is symmetrized exactly, and the diagonal is pinned to
    1.  Entries are independent of evaluation order, so the output does not
    depend on how the computation is blocked.  Returns the (n, n) array.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    if not np.all(np.isfinite(X)):
        raise ValueError("dataset contains NaN or Inf")
    sq_norms = (X * X).sum(axis=1)
    sq_dist = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    np.clip(sq_dist, 0.0, None, out=sq_dist)
    K = np.exp(-sq_dist / spec.bandwidth**2)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def spectral_density(spec, dim):
    """Spectral measure of the Gaussian kernel in ``dim`` dimensions."""
    return SpectralDensity(dim=dim, variance=2.0 / spec.bandwidth**2)


def matrix_entries(K):
    """Validate a kernel matrix and return it as a float array.

    The matrix must be square, nonempty, finite, and symmetric to 1e-12
    relative to max(1, max |K_ij|).  Matrices from :func:`kernel_matrix`
    also have an exactly-unit diagonal; that is a property of the Gaussian
    kernel, not a requirement here (general PSD matrices are legitimate
    inputs to the degrees-of-freedom routines).
    """
    arr = np.asarray(K, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("kernel matrix on an empty dataset")
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel matrix contains NaN or Inf")
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > 1e-12 * scale:
        raise ValueError("kernel matrix is not symmetric")
    return arr


def relative_approx_error(K, Z):
    """Relative spectral-norm error ||K - Z Z^T||_2 / ||K||_2.

    ``K`` is a kernel matrix (checked by :func:`matrix_entries`); ``Z`` the
    feature array, one row per data point.  Both norms come
    from the seeded Lanczos call in :mod:`rffkrr.linalg`.
    """
    Km = matrix_entries(K)
    Zm = np.asarray(Z, dtype=float)
    if Zm.ndim != 2 or Zm.shape[0] != Km.shape[0]:
        raise ValueError(
            f"feature matrix has {Zm.shape[0] if Zm.ndim == 2 else 'bad'} rows, "
            f"kernel matrix has {Km.shape[0]}"
        )
    residual = Km - Zm @ Zm.T
    residual = 0.5 * (residual + residual.T)
    denom = linalg.spectral_norm_sym(Km)
    if denom == 0.0:
        raise ValueError("kernel matrix has zero spectral norm")
    return linalg.spectral_norm_sym(residual) / denom
