"""Frequency sampling and the paired cos/sin random Fourier feature map.

A frequency pool holds l frequencies w_1..w_l together with importance
weights r_i = p(w_i) / q(w_i), the ratio of the kernel's spectral density
to the density the pool was actually drawn from.  Plain Monte Carlo and
quasi-Monte Carlo pools have all ratios equal to 1; resampled pools carry
the correction that keeps the kernel estimate unbiased.  The estimator
needs nothing else, so a pool records no tag of how it was drawn.  A
resampled pool holds the u <= s distinct frequencies of s draws, and its
weights fold in each frequency's draw count c_i and the factor u/s, so
that the 1/u scaling below gives the same Z Z^T as the s draws kept
apart.

For a pool of size s the feature map sends a point x to the row

    z(x) = [ sqrt(r_1/s) cos(w_1.x), sqrt(r_1/s) sin(w_1.x), ...,
             sqrt(r_s/s) cos(w_s.x), sqrt(r_s/s) sin(w_s.x) ],

so Z has shape (n, 2s), Z Z^T estimates the kernel matrix, and for an
unweighted pool every row of Z has unit norm up to rounding.

Both entries of a pair come from one half-angle tangent t = tan(w.x / 2):

    cos(w.x) = (1 - t^2) / (1 + t^2),    sin(w.x) = 2t / (1 + t^2),

with sqrt(r/s) folded into the one division.  numpy sends float64
``np.tan`` to a vector path on CPUs with AVX-512, where ``np.cos`` and
``np.sin`` call scalar libm: a 7490 x 14 map at s = 896 took 0.07 s
against 0.22 s on a 2-vCPU Xeon VM.  Without AVX-512 numpy falls back to
libm ``tan``, and the same map took 0.15 s against 0.24 s.  Either way,
on angles |w.x| from 1e-6 to 1e8 and next to odd multiples of pi, each
entry measured within 4 * 2^-53 * sqrt(r/s) of the ``np.cos``/``np.sin``
value.  The half angles come from one product with 0.5 W (exactly half
of X W) padded with zero columns to a multiple of 8, so each row of Z is
the same bit for bit whatever rows are mapped with it.

:func:`label_correlations` forms y^T Z from the same tangents, block by
block, without holding Z: it is how the surrogate scores a pool.
"""

from dataclasses import dataclass

import numpy as np

from ._threads import _one_blas_thread, _run_blocks

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


@dataclass(frozen=True)
class FrequencyPool:
    """A set of frequencies with their importance ratios.

    frequencies : (l, d) array, one frequency per row.
    weights     : (l,) array of ratios p(w_i)/q(w_i); all 1 for direct
                  Monte Carlo and QMC pools.  A resampled pool has one
                  row per distinct draw (l = u <= s) and the weight
                  c_i r_i / (l_0 q_i) (u / s) for a frequency drawn c_i
                  times with probability q_i from a pool of size l_0.
    """

    frequencies: np.ndarray
    weights: np.ndarray

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
    return FrequencyPool(freq, np.ones(count))


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
    return FrequencyPool(freq, np.ones(count))


@_one_blas_thread()
def feature_map(X, pool):
    """Map data rows through the pool's paired cos/sin features.

    Returns a FeatureMatrix whose ``entries`` has shape (n, 2s): frequency i
    contributes columns 2i (cosine) and 2i+1 (sine), both scaled by
    sqrt(weights[i] / s).  Z is filled one block of rows at a time, with
    each block's cos and sin columns used as its scratch, so the memory
    used beyond Z itself is one block of projections (about 2^17 entries,
    at least two rows) per core, not an n x s array.

    The blocks are filled in parallel, by the calling thread and a shared
    pool of helper threads, one participant per CPU in the process's
    affinity mask (:mod:`rffkrr._threads`).  Each block is computed whole
    by one participant, and the blocks are of one size but the last
    whatever the core count, so Z is bit for bit the same on one core or
    many; there is no option to set.  A one-block map, or any map on a
    one-CPU mask, runs in the caller and starts no thread.  BLAS is held
    at one thread, process-wide, for the call
    (:func:`rffkrr._threads._one_blas_thread`), so each block's projection
    runs on its participant's core alone.
    """
    X, half, scale = _map_operands(X, pool)
    s = pool.size
    Z = np.empty((X.shape[0], 2 * s))

    def fill(_work, start, stop):
        t = _half_tangents(X, half, s, start, stop)
        cos, sin = Z[start:stop, 0::2], Z[start:stop, 1::2]
        np.multiply(t, t, out=cos)
        np.add(cos, 1.0, out=sin)
        np.divide(scale, sin, out=sin)  # sqrt(w/s) / (1 + t^2)
        np.subtract(1.0, cos, out=cos)
        cos *= sin
        t += t
        sin *= t

    _run_blocks(fill, _map_blocks(X.shape[0], s))
    return FeatureMatrix(Z)


@_one_blas_thread()
def label_correlations(X, pool, y):
    """y^T Z for Z = ``feature_map(X, pool).entries``, as a (2s,) array,
    without holding Z.  Equal to ``y @ Z`` up to rounding.

    With f = 1 / (1 + t^2) for the half-angle tangents t, a column pair
    of Z is sqrt(r/s) (2f - 1, 2tf), so its two entries of y^T Z are
    sqrt(r/s) (2 y^T f - sum(y)) and sqrt(r/s) 2 y^T (tf): per row block,
    f and tf (four passes after the tangent, against seven for the map's
    pairs) times the block's labels.  The blocks run on the map's
    participants, each forming f in scratch of its own.  The per-block
    products are added in block order, so the result is the same bit for
    bit on any number of cores.  BLAS is held at one thread for the call,
    as in :func:`feature_map`.  Zero rows give zeros, as ``y @ Z`` does.
    """
    X, half, scale = _map_operands(X, pool)
    y = np.asarray(y, dtype=float).ravel()
    n, s = X.shape[0], pool.size
    if y.shape[0] != n:
        raise ValueError(f"{y.shape[0]} labels for {n} points")
    bounds = _map_blocks(n, s)
    partials = np.empty((len(bounds), 2, s))
    rows = max((stop - start for start, stop in bounds), default=0)

    def fill(work, k, start, stop):
        t = _half_tangents(X, half, s, start, stop)
        f = work[: t.size].reshape(t.shape)
        np.multiply(t, t, out=f)
        f += 1.0
        np.divide(1.0, f, out=f)
        t *= f
        np.matmul(y[start:stop], f, out=partials[k, 0])
        np.matmul(y[start:stop], t, out=partials[k, 1])

    tasks = [(k, start, stop) for k, (start, stop) in enumerate(bounds)]
    _run_blocks(fill, tasks, rows * s)
    sums = np.zeros((2, s))
    for partial in partials:
        sums += partial
    correlations = np.empty(2 * s)
    correlations[0::2] = (2.0 * sums[0] - y.sum()) * scale
    correlations[1::2] = 2.0 * sums[1] * scale
    return correlations


def _map_operands(X, pool):
    """The checked rows, the half-frequency matrix 0.5 W padded with zero
    columns to a multiple of 8 (with such widths OpenBLAS computes each
    row of a product of two or more rows the same, however many rows it
    has), and the per-frequency scale sqrt(weights / s)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != pool.dim:
        raise ValueError(
            f"data dimension {X.shape[1]} does not match pool dimension {pool.dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains NaN or Inf")
    s = pool.size
    half = np.zeros((pool.dim, -(-s // 8) * 8))
    np.multiply(pool.frequencies.T, 0.5, out=half[:, :s])
    return X, half, np.sqrt(pool.weights / s)


def _map_blocks(n, s):
    """The (start, stop) row blocks of an n-row map of s frequencies: all
    of one size, at least two rows, but the last."""
    rows = max(2, _BLOCK_ENTRIES // s)
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _half_tangents(X, half, s, start, stop):
    # tan(w.x / 2) of rows [start, stop), computed in place in the block's
    # projection.  A one-row block (a one-point map, or a one-row last
    # block) is projected as a two-row product: a one-row product goes to
    # gemv and rounds differently.
    rows = X[start:stop] if stop - start > 1 else X[[start, start]]
    t = (rows @ half)[: stop - start, :s]
    return np.tan(t, out=t)


def approx_kernel_entry(x, x_prime, pool):
    """Feature-space estimate of k(x, x') = z(x) . z(x'), from one
    two-row map."""
    Z = feature_map(np.vstack([x, x_prime]), pool).entries
    return float(Z[0] @ Z[1])
