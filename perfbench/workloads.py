"""Benchmark workloads and the synthetic data they run on.

The data is synthetic and shaped like the UCI EEG eye-state file (14980
rows, 14 features).  It is not EEG data and is never reported as such.
Each workload is a list of parts; one part is one ``run_experiment``
call, configured as the ``rffkrr`` subcommand it names would configure
it.  A round runs every part once with ``trials=1``, so it produces one
(method, s, trial) record per method.
"""

from dataclasses import dataclass

import numpy as np

EEG_ROWS = 14980
EEG_DIM = 14


@dataclass(frozen=True)
class Part:
    command: str  # rffkrr subcommand whose protocol the part reproduces
    methods: tuple
    s_mult: int
    pool_mult: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple

    @property
    def methods(self):
        return tuple(m for part in self.parts for m in part.methods)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "krr-s64",
            "full krr trial at s=64d: repeated feature maps and Cholesky "
            "solves of CV dominate; RFF and SurrogateRFF",
            (Part("krr", ("RFF", "SurrogateRFF"), 64, 1),),
        ),
        Workload(
            "gen-s128",
            "timed generation only at s=128d (acceptance-6 ratios): no CV, "
            "fit or error stage; RFF, SurrogateRFF, LeverageRFF",
            (Part("bench", ("RFF", "SurrogateRFF", "LeverageRFF"), 128, 1),),
        ),
        Workload(
            "krr-pool4",
            "full krr trial with 4x pools: wide pool scored and mostly "
            "discarded, lambda-dependent CV for LeverageRFF",
            (
                Part("krr", ("SurrogateRFF",), 32, 4),
                Part("krr", ("LeverageRFF",), 8, 4),
            ),
        ),
    )
}


def make_data(seed, rows=EEG_ROWS, dim=EEG_DIM):
    """Uniform features on [0,1]^dim with labels sign(sin 4x0 + x1^2 - 0.6)."""
    X = np.random.default_rng(seed).uniform(size=(rows, dim))
    y = np.where(np.sin(4.0 * X[:, 0]) + X[:, 1] ** 2 - 0.6 > 0.0, 1, -1)
    return X, y


def write_csv(path, X, y):
    header = ",".join([f"x{j}" for j in range(X.shape[1])] + ["label"])
    table = np.column_stack([X, y])
    fmt = ["%.17g"] * X.shape[1] + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")
