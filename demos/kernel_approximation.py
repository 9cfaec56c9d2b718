"""Approximating a Gaussian kernel with random Fourier features.

Builds the exact kernel matrix on a small 2-d dataset, then approximates
it with Monte-Carlo and Halton (quasi-Monte-Carlo) frequency sets of
increasing size.  The printed table is the classic error-vs-s curve: MC
error shrinks like 1/sqrt(s), and the deterministic Halton set tracks or
beats the MC median at this dimension.
"""

import numpy as np

from rffkrr import (
    KernelSpec,
    feature_map,
    kernel_matrix,
    relative_approx_error,
    sample_mc,
    sample_qmc,
    spectral_density,
)

rng = np.random.default_rng(0)
X = rng.uniform(size=(200, 2))

spec = KernelSpec(bandwidth=1.0)
K = kernel_matrix(X, spec)
density = spectral_density(spec, X.shape[1])

print("exact kernel: shape", K.shape, "diagonal", K[0, 0])
print()
print(f"{'s':>6} {'MC median':>12} {'MC best':>12} {'QMC':>12}")
for s in (8, 32, 128, 512, 2048):
    errors = []
    for seed in range(10):
        Z = feature_map(X, sample_mc(density, s, seed)).entries
        errors.append(relative_approx_error(K, Z))
    qmc_error = relative_approx_error(K, feature_map(X, sample_qmc(density, s)).entries)
    print(
        f"{s:>6} {np.median(errors):>12.5f} {min(errors):>12.5f} {qmc_error:>12.5f}"
    )

# single entries are just dot products of feature rows
Z = feature_map(X, sample_mc(density, 2048, seed=0)).entries
approx = float(Z[3] @ Z[7])
print()
print(f"k(x_3, x_7) exact {K[3, 7]:.6f} vs feature estimate {approx:.6f}")
