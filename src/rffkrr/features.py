"""Frequency sampling and the paired cos/sin random Fourier feature map.

A frequency pool holds l frequencies w_1..w_l together with importance
weights r_i = p(w_i) / q(w_i), the ratio of the kernel's spectral density
to the density the pool was actually drawn from.  Plain Monte Carlo and
quasi-Monte Carlo pools have all ratios equal to 1; resampled pools carry
the correction that keeps the kernel estimate unbiased.

For a pool of size s the feature map sends a point x to the row

    z(x) = [ sqrt(r_1/s) cos(w_1.x), sqrt(r_1/s) sin(w_1.x), ...,
             sqrt(r_s/s) cos(w_s.x), sqrt(r_s/s) sin(w_s.x) ],

so Z has shape (n, 2s), Z Z^T estimates the kernel matrix, and for an
unweighted pool every row of Z has unit norm exactly.
"""

import enum
from dataclasses import dataclass

import numpy as np

# First 64 primes, the Halton bases for up to 64 input dimensions.
_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
)


class PoolSource(enum.Enum):
    """How a frequency pool was produced."""

    MONTE_CARLO = "mc"
    QMC = "qmc"
    LEVERAGE_RESAMPLED = "leverage"
    SURROGATE_RESAMPLED = "surrogate"


@dataclass(frozen=True)
class FrequencyPool:
    """A set of frequencies with importance ratios and provenance.

    frequencies : (l, d) array, one frequency per row.
    weights     : (l,) array of ratios p(w_i)/q(w_i); all 1 for direct
                  Monte Carlo and QMC pools.
    source      : PoolSource tag.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    source: PoolSource

    def __post_init__(self):
        freq = np.atleast_2d(np.asarray(self.frequencies, dtype=float))
        weights = np.asarray(self.weights, dtype=float).ravel()
        if freq.shape[0] != weights.shape[0]:
            raise ValueError(
                f"{freq.shape[0]} frequencies but {weights.shape[0]} weights"
            )
        if freq.shape[0] == 0:
            raise ValueError("empty frequency pool")
        if not np.all(np.isfinite(freq)):
            raise ValueError("frequencies contain NaN or Inf")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        if self.source in (PoolSource.MONTE_CARLO, PoolSource.QMC) and np.any(
            weights != 1.0
        ):
            raise ValueError(f"{self.source.value} pools must have unit weights")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self):
        return self.frequencies.shape[0]

    @property
    def dim(self):
        return self.frequencies.shape[1]


@dataclass(frozen=True)
class FeatureMatrix:
    """Mapped features, shape (n, 2s) for s frequencies."""

    entries: np.ndarray
    n_frequencies: int

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[1] != 2 * self.n_frequencies:
            raise ValueError(
                f"feature matrix shape {entries.shape} does not match "
                f"{self.n_frequencies} frequencies"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def n(self):
        return self.entries.shape[0]


def as_seed_sequence(seed):
    """Normalize an int / sequence-of-ints / SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def make_rng(seed):
    """Generator from an int, a SeedSequence, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_seed_sequence(seed))


def spawn_seeds(seed, count):
    """Derive ``count`` independent child SeedSequences from one seed.

    The children equal those of a first ``SeedSequence.spawn``, but the
    parent is left untouched (``spawn`` advances it), so the same
    SeedSequence object always yields the same children.
    """
    parent = as_seed_sequence(seed)
    return [
        np.random.SeedSequence(
            parent.entropy,
            spawn_key=parent.spawn_key + (i,),
            pool_size=parent.pool_size,
        )
        for i in range(count)
    ]


def sample_mc(density, count, seed):
    """Draw ``count`` iid frequencies from the spectral density."""
    if count < 1:
        raise ValueError(f"need at least one frequency, got {count}")
    freq = density.sample(count, make_rng(seed))
    return FrequencyPool(freq, np.ones(count), PoolSource.MONTE_CARLO)


def halton(count, dim):
    """First ``count`` points of the Halton sequence in (0,1)^dim.

    Base for coordinate j is the j-th prime; index 0 (the all-zeros point)
    is skipped, so the sequence starts at 1/2 in the base-2 coordinate.
    Supports up to 64 dimensions.
    """
    if count < 1:
        raise ValueError(f"need at least one point, got {count}")
    if not 1 <= dim <= len(_PRIMES):
        raise ValueError(f"dimension must be in 1..{len(_PRIMES)}, got {dim}")
    indices = np.arange(1, count + 1, dtype=np.int64)
    out = np.empty((count, dim))
    for j in range(dim):
        out[:, j] = _radical_inverse(indices, _PRIMES[j])
    return out


def _radical_inverse(indices, base):
    # Digit-reversal of each index in the given base, vectorized over indices.
    values = np.zeros(indices.shape)
    denom = np.ones(indices.shape)
    rem = indices.copy()
    while rem.max() > 0:
        denom *= base
        values += (rem % base) / denom
        rem //= base
    return values


def sample_qmc(density, count):
    """Deterministic low-discrepancy frequencies from the spectral density.

    Halton points mapped through the per-coordinate Gaussian inverse CDF.
    No seed: the sequence is fixed, so repeated calls agree exactly.
    """
    if count < 1:
        raise ValueError(f"need at least one frequency, got {count}")
    uniforms = halton(count, density.dim)
    freq = density.icdf(uniforms)
    return FrequencyPool(freq, np.ones(count), PoolSource.QMC)


def feature_map(X, pool):
    """Map data rows through the pool's paired cos/sin features.

    Returns a FeatureMatrix with entries of shape (n, 2s): frequency i
    contributes columns 2i (cosine) and 2i+1 (sine), both scaled by
    sqrt(weights[i] / s).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != pool.dim:
        raise ValueError(
            f"data dimension {X.shape[1]} does not match pool dimension {pool.dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains NaN or Inf")
    s = pool.size
    projections = X @ pool.frequencies.T
    scale = np.sqrt(pool.weights / s)
    Z = np.empty((X.shape[0], 2 * s))
    Z[:, 0::2] = np.cos(projections) * scale
    Z[:, 1::2] = np.sin(projections) * scale
    return FeatureMatrix(Z, s)


def approx_kernel_entry(x, x_prime, pool):
    """Feature-space estimate of k(x, x') = z(x) . z(x')."""
    zx = feature_map(np.asarray(x, dtype=float).reshape(1, -1), pool).entries
    zp = feature_map(np.asarray(x_prime, dtype=float).reshape(1, -1), pool).entries
    return float(zx.ravel() @ zp.ravel())
