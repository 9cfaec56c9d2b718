"""Frequency sampling and the paired cos/sin random Fourier feature map.

A frequency pool holds l frequencies w_1..w_l together with importance
weights r_i = p(w_i) / q(w_i), the ratio of the kernel's spectral density
to the density the pool was actually drawn from.  Plain Monte Carlo and
quasi-Monte Carlo pools have all ratios equal to 1; resampled pools carry
the correction that keeps the kernel estimate unbiased.  A resampled pool
holds the u <= s distinct frequencies of s draws, and its weights fold in
each frequency's draw count c_i and the factor u/s, so that the 1/u
scaling below gives the same Z Z^T as the s draws kept apart.

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

# Rows per feature-map block: about this many projection entries (1 MiB
# of float64).  Block sizes from 2^15 to 2^19 entries timed alike, within
# run-to-run noise.
_BLOCK_ENTRIES = 2**17


class PoolSource(enum.Enum):
    """How a frequency pool was produced."""

    MONTE_CARLO = "mc"
    QMC = "qmc"
    RESAMPLED = "resampled"


@dataclass(frozen=True)
class FrequencyPool:
    """A set of frequencies with importance ratios and provenance.

    frequencies : (l, d) array, one frequency per row.
    weights     : (l,) array of ratios p(w_i)/q(w_i); all 1 for direct
                  Monte Carlo and QMC pools.  A resampled pool has one
                  row per distinct draw (l = u <= s) and the weight
                  c_i r_i / (l_0 q_i) (u / s) for a frequency drawn c_i
                  times with probability q_i from a pool of size l_0.
    source      : PoolSource tag: MONTE_CARLO or QMC for direct draws,
                  RESAMPLED for the output of a resampling step, whatever
                  scores drove it.
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
    """What :func:`feature_map` returns: the (n, 2s) array ``entries``.

    Every other function takes and returns that plain array; the wrapper
    stays only because the benchmark harness reads ``.entries`` off
    :func:`feature_map`'s result.
    """

    entries: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.entries)
        if len(shape) != 2 or shape[1] % 2:
            raise ValueError(
                f"feature matrix shape {shape} is not (n, 2s) cos/sin pairs"
            )


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

    Returns a FeatureMatrix whose ``entries`` has shape (n, 2s): frequency i
    contributes columns 2i (cosine) and 2i+1 (sine), both scaled by
    sqrt(weights[i] / s).  Z is filled one block of rows at a time, with
    cos and sin written straight into its columns, so the memory used
    beyond Z itself is one block of projections (about 2^17 entries, at
    least two rows), not an n x s array.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != pool.dim:
        raise ValueError(
            f"data dimension {X.shape[1]} does not match pool dimension {pool.dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains NaN or Inf")
    n, s = X.shape[0], pool.size
    W = pool.frequencies.T
    scale = np.repeat(np.sqrt(pool.weights / s), 2)
    Z = np.empty((n, 2 * s))
    rows = max(2, _BLOCK_ENTRIES // s)
    start = 0
    while start < n:
        # Fewer than two blocks left go in one: BLAS rounds a one-row or
        # small product differently from the same rows of a larger one.
        stop = start + rows if n - start >= 2 * rows else n
        projections = X[start:stop] @ W
        block = Z[start:stop]
        np.cos(projections, out=block[:, 0::2])
        np.sin(projections, out=block[:, 1::2])
        block *= scale
        start = stop
    return FeatureMatrix(Z)


def approx_kernel_entry(x, x_prime, pool):
    """Feature-space estimate of k(x, x') = z(x) . z(x').

    Both points go through one two-row map: a one-row map goes to gemv
    and rounds differently from the same rows of a larger map.
    """
    Z = feature_map(np.vstack([x, x_prime]), pool).entries
    return float(Z[0] @ Z[1])
