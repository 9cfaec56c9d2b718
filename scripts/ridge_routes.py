"""Time the two routes of krr's ridge solve at chosen widths.

For each width m and grid size it solves (Z^T Z + n lam I) beta = Z^T y
for every lam of the grid, through ``krr._ridge_solutions``: once with
``_GRAM_FREE_MIN`` above m (the route of narrow systems) and once with it
at 1 (the Krylov solve on Z).  Z is the RFF map of 5992 points shaped
like perfbench's synthetic EEG data (uniform on [0, 1]^14, sigma 1).
BLAS is held at one thread, as in ``run_experiment``.  Each cell is the
median of ``--repeats`` runs; the two routes alternate.

    PYTHONPATH=src python3 scripts/ridge_routes.py [--repeats 31]

Point PYTHONPATH at another checkout to time its routes on the same
inputs.
"""

import argparse
import time

import numpy as np

from rffkrr import KernelSpec, feature_map, krr, sample_mc, spectral_density
from rffkrr._threads import _one_blas_thread

ROWS, DIM = 5992, 14
WIDTHS = (256, 384, 448, 510, 512, 730, 950, 1792)
GRIDS = ((0.05,), (0.05, 0.1, 0.5, 1.0))


def _system(m, seed=1):
    X = np.random.default_rng(seed).uniform(size=(ROWS, DIM))
    y = np.where(np.sin(4.0 * X[:, 0]) + X[:, 1] ** 2 - 0.6 > 0.0, 1.0, -1.0)
    pool = sample_mc(spectral_density(KernelSpec(1.0), DIM), m // 2, seed)
    Z = feature_map(X, pool).entries
    return Z, Z.T @ y


def _timed(Z, rhs, shifts, free_min):
    krr._GRAM_FREE_MIN = free_min
    start = time.perf_counter()
    krr._ridge_solutions(Z, rhs, shifts)
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=31)
    repeats = parser.parse_args().repeats
    print("m     lambdas  narrow route  Krylov on Z  (ms, medians)")
    with _one_blas_thread():
        for m in WIDTHS:
            Z, rhs = _system(m)
            for grid in GRIDS:
                shifts = [ROWS * lam for lam in grid]
                narrow, on_z = [], []
                for _ in range(repeats):
                    narrow.append(_timed(Z, rhs, shifts, m + 1))
                    on_z.append(_timed(Z, rhs, shifts, 1))
                print(
                    f"{m:<5} {len(grid):<8} {1e3 * np.median(narrow):>12.1f}"
                    f"  {1e3 * np.median(on_z):>11.1f}"
                )


if __name__ == "__main__":
    main()
