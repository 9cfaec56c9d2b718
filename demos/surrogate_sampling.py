"""Scoring frequencies by leverage, with and without matrix inversion.

The exact ridge leverage of a frequency needs a solve against the n x n
regularized kernel matrix.  The surrogate score replaces that solve with
label correlations, is provably an upper bound, and costs O(n) per
frequency.  This script scores one pool both ways, shows the domination,
and then resamples the pool by surrogate score: the labels oscillate
along one planted frequency, and the plan piles its mass there.
"""

import numpy as np

from rffkrr import (
    FrequencyPool,
    KernelSpec,
    build_resample_plan,
    exact_leverage,
    feature_map,
    kernel_matrix,
    regularized_factor,
    resample,
    sample_mc,
    spectral_density,
    surrogate_leverage,
)

rng = np.random.default_rng(7)
n, lam = 120, 0.1
X = rng.uniform(size=(n, 2))

spec = KernelSpec(1.0)
base = sample_mc(spectral_density(spec, 2), 12, seed=1)

# spectral-density draws are slow on the unit square; plant one genuinely
# oscillatory frequency and give the labels its sign pattern
planted = 4
frequencies = base.frequencies.copy()
frequencies[planted] = (12.0, -9.0)
pool = FrequencyPool(frequencies, np.ones(12))
y = np.where(np.cos(X @ pool.frequencies[planted]) > 0.0, 1.0, -1.0)

Z = feature_map(X, pool).entries
factor = regularized_factor(kernel_matrix(X, spec), lam)
exact = exact_leverage(factor, Z)
surrogate = surrogate_leverage(y, Z, lam)

print(f"{'freq':>4} {'|w|':>8} {'exact':>12} {'surrogate':>12} {'ratio':>8}")
for i in range(pool.frequencies.shape[0]):
    norm = np.linalg.norm(pool.frequencies[i])
    e, s = exact[i], surrogate[i]
    print(f"{i:>4} {norm:>8.3f} {e:>12.5f} {s:>12.5f} {s / e:>8.2f}")

assert np.all(surrogate >= exact), "domination violated"
print()
print("surrogate >= exact at every frequency (it always is)")

# resampling: the simplified score drops the constant column-norm term,
# leaving pure label correlation, so the planted frequency dominates
draws = 6
scores = surrogate_leverage(y, Z, lam, simplified=True)
probabilities = build_resample_plan(scores)
picked = resample(pool, scores, draws, seed=2)
print()
print("resampling probabilities:", np.round(probabilities, 3))
print(f"resampled pool: {picked.size} distinct frequencies out of {draws} draws")
print("importance weights (repeats merged):", np.round(picked.weights, 3))

# a frequency drawn c times has weight c / (l q) * (u / s); invert for c
hit = np.isclose(picked.frequencies, pool.frequencies[planted]).all(axis=1)
scale = pool.size * probabilities[planted] * draws / picked.size
hits = round(float((picked.weights[hit] * scale).sum()))
print(f"planted frequency {planted} drawn {hits} of {draws} times")
