"""Experiment orchestration: per-trial splits, inner cross-validation,
timed feature generation, test accuracy, approximation error, and report
emission.

The per-record flow mirrors the benchmark protocol this package
reproduces: split the data in half, tune lambda by inner CV on the
training half, time the feature generation in isolation, fit ridge
coefficients, score sign accuracy on the test half, and measure the
relative kernel approximation error on a subsample of the training half.
"""

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._threads import _one_blas_thread
from .datasets import load_dataset, load_dataset_pair, split
from .errors import DataError, UsageError
from .features import _PRIMES, feature_map, sample_mc, sample_qmc
from .kernels import KernelSpec, kernel_matrix, relative_approx_error, spectral_density
from .krr import classify_accuracy, cross_validate, fit, predict
from .leverage import erls_baseline_grid, erls_baseline_pipeline, surrogate_pipeline

METHODS = ("RFF", "QMC", "LeverageRFF", "SurrogateRFF")

# (report column, TrialRecord attribute) in report order.  The one rename
# is ``lambda``, a Python keyword, stored as ``lam``.
_REPORT_COLUMNS = (
    ("method", "method"),
    ("s", "s"),
    ("trial", "trial"),
    ("accuracy", "accuracy"),
    ("rel_error", "rel_error"),
    ("gen_time_s", "gen_time_s"),
    ("solve_time_s", "solve_time_s"),
    ("lambda", "lam"),
)

REPORT_HEADER = ",".join(column for column, _ in _REPORT_COLUMNS)

# Tags that keep the per-trial derived seed streams disjoint.
_TAG_SPLIT, _TAG_CV, _TAG_GEN, _TAG_ERR = 0, 1, 2, 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs.

    ``s_multipliers`` are multiples of the data dimension (s = mult * d);
    ``pool_multiplier`` sizes the resampling pool as l = mult * s.
    With ``test_data`` every trial uses the given train/test partition
    instead of a random half split.
    """

    data: str
    format: str = "csv"
    methods: tuple = METHODS
    s_multipliers: tuple = (1,)
    pool_multiplier: int = 1
    sigma: float = 1.0
    lambda_grid: tuple = (0.05, 0.1, 0.5, 1.0)
    folds: int = 5
    trials: int = 10
    seed: int = 0
    err_subsample: int = 1000
    variant: str = "simplified"
    test_data: str = None
    out: str = None
    emit: str = "csv"
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self, "s_multipliers", tuple(int(m) for m in self.s_multipliers)
        )
        object.__setattr__(
            self, "lambda_grid", tuple(float(v) for v in self.lambda_grid)
        )
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if not self.s_multipliers or any(m < 1 for m in self.s_multipliers):
            raise ValueError("s multipliers must be positive")
        if self.pool_multiplier < 1:
            raise ValueError("pool multiplier must be positive")
        if not self.lambda_grid or not all(0 < v < math.inf for v in self.lambda_grid):
            raise ValueError("lambda grid must be nonempty, finite and positive")
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        # The kernel divides by sigma^2 and the frequencies' variance is
        # 2 / sigma^2: both must be finite and positive.
        sigma = float(self.sigma)
        square = sigma * sigma
        if not (sigma > 0 and square > 0 and 1 / square > 0 and 2 / square < math.inf):
            raise ValueError(
                f"sigma must be positive, with 1/sigma^2 and 2/sigma^2 finite "
                f"and positive, got {self.sigma}"
            )
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if not self.methods:
            raise ValueError("no methods selected")
        if self.format not in ("csv", "libsvm"):
            raise ValueError(f"format must be csv or libsvm, got {self.format}")
        if self.variant not in ("full", "simplified"):
            raise ValueError(f"variant must be full or simplified, got {self.variant}")
        if self.emit not in ("csv", "jsonl"):
            raise ValueError(f"emit must be csv or jsonl, got {self.emit}")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.err_subsample < 2:
            raise ValueError("error subsample must be at least 2")


@dataclass(frozen=True)
class TrialRecord:
    """One (method, s, trial) outcome; stages not run hold NaN."""

    method: str
    s: int
    trial: int
    accuracy: float
    rel_error: float
    gen_time_s: float
    solve_time_s: float
    lam: float


def _child_seed(seed, trial, tag):
    return np.random.SeedSequence([int(seed), int(trial), tag])


def generate_features(method, X, y, spec, s, pool_size, variant, lam, seed):
    """Sample (and for resampling methods, score and resample) frequencies,
    then build the feature matrix.  This is the unit the benchmark timer
    brackets.  Returns (pool, Z), Z the plain (n, 2u) feature array."""
    if method == "RFF":
        pool = sample_mc(spectral_density(spec, X.shape[1]), s, seed)
        return pool, feature_map(X, pool).entries
    if method == "QMC":
        pool = sample_qmc(spectral_density(spec, X.shape[1]), s)
        return pool, feature_map(X, pool).entries
    if method == "SurrogateRFF":
        return surrogate_pipeline(
            X, y, spec, s, lam, pool_size=pool_size, variant=variant, seed=seed
        )
    if method == "LeverageRFF":
        return erls_baseline_pipeline(
            X, spec, s, lam, pool_size=pool_size, seed=seed
        )
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def make_sampler(method, spec, s, pool_size, variant="simplified"):
    """Wrap a method as a CV sampler callable (X, y, lambda_grid, seed)
    returning one (pool, Z) pair per grid value, Z the plain feature array
    of the pool on X, so cross-validation need not map the training rows
    again.

    Only the approximate leverage baseline changes its pool with lambda;
    it draws, maps and forms the pool Gram once and redoes only the
    factor, the draw and the map of the draws per value
    (:func:`~rffkrr.leverage.erls_baseline_grid`).  Every other method is
    :func:`generate_features` at the first grid value, and the same pair
    object stands for every value: the surrogate scores scale by
    1/lambda uniformly, which cancels in normalization.
    """

    def sampler(X, y, lambda_grid, seed):
        if method == "LeverageRFF":
            return erls_baseline_grid(
                X, spec, s, lambda_grid, pool_size=pool_size, seed=seed
            )
        pair = generate_features(
            method, X, y, spec, s, pool_size, variant, lambda_grid[0], seed
        )
        return [pair] * len(lambda_grid)

    return sampler


def _with_context(exc, method, s, trial):
    message = f"[method={method} s={s} trial={trial}] {exc}"
    try:
        wrapped = type(exc)(message)
    except TypeError:
        wrapped = RuntimeError(message)
    return wrapped


def _load_for_config(config):
    if config.test_data:
        return load_dataset_pair(config.data, config.test_data, config.format)
    return load_dataset(config.data, config.format)


def _check_qmc_dimension(methods, dim):
    if "QMC" in methods and dim > len(_PRIMES):
        raise UsageError(
            f"QMC supports at most {len(_PRIMES)} data columns (one Halton "
            f"prime base each); the data has {dim}"
        )


def _check_ridge_shift(n, lambda_grid):
    # Ridge systems on n points are shifted by n lambda.
    if not math.isfinite(n * max(lambda_grid)):
        raise UsageError(f"lambda {max(lambda_grid):g} times {n} points overflows")


def _split_and_cv(config, dataset, spec, method, s, trial, mode):
    """A trial's (train, test) split and, in "full" mode, the CvReport of
    its inner cross-validation on the training half (else None).  This is
    the one place the split and CV seeds of a trial are derived; ``rffkrr
    cv`` runs it for trial 0."""
    train, test = split(dataset, _child_seed(config.seed, trial, _TAG_SPLIT))
    _check_ridge_shift(train.n, config.lambda_grid)
    if mode != "full":
        return train, test, None
    if train.n < config.folds:
        raise DataError(
            f"the training half has {train.n} rows, fewer than the "
            f"{config.folds} cross-validation folds"
        )
    sampler = make_sampler(method, spec, s, config.pool_multiplier * s, config.variant)
    report = cross_validate(
        train.X,
        train.y,
        sampler,
        config.lambda_grid,
        folds=config.folds,
        seed=_child_seed(config.seed, trial, _TAG_CV),
    )
    return train, test, report


def _run_one(config, dataset, spec, method, s, trial, mode):
    train, test, report = _split_and_cv(config, dataset, spec, method, s, trial, mode)
    lam = min(config.lambda_grid) if report is None else report.chosen_lambda

    start = time.perf_counter()
    pool, Z = generate_features(
        method,
        train.X,
        train.y,
        spec,
        s,
        config.pool_multiplier * s,
        config.variant,
        lam,
        _child_seed(config.seed, trial, _TAG_GEN),
    )
    gen_time = time.perf_counter() - start

    accuracy = solve_time = rel_error = math.nan
    if mode == "full":
        start = time.perf_counter()
        model = fit(Z, train.y, lam, pool)
        solve_time = time.perf_counter() - start
    if mode in ("full", "error"):
        count = min(config.err_subsample, train.n)
        rng = np.random.default_rng(_child_seed(config.seed, trial, _TAG_ERR))
        subset = rng.choice(train.n, size=count, replace=False)
        Z_sub = Z[subset]
    # The rest needs only the error-stage rows of Z: drop it before predict
    # maps the test half.
    del Z
    if mode == "full":
        accuracy = classify_accuracy(predict(model, test.X), test.y)
    if mode in ("full", "error"):
        K_sub = kernel_matrix(train.X[subset], spec)
        rel_error = relative_approx_error(K_sub, Z_sub)

    return TrialRecord(
        method=method,
        s=int(s),
        trial=int(trial),
        accuracy=accuracy,
        rel_error=rel_error,
        gen_time_s=gen_time,
        solve_time_s=solve_time,
        lam=float(lam),
    )


def run_experiment(config, dataset=None, mode="full", on_record=None):
    """Run every (method, s, trial) combination of the config.

    ``mode`` selects how much of the per-record flow runs: "full" (CV,
    fit, accuracy, approximation error), "error" (feature generation and
    approximation error only), or "timing" (feature generation only,
    always single-threaded).  Records arrive in deterministic order; all
    non-timing fields are pure functions of the config.  ``on_record`` is
    called with each record as it is produced.

    The run holds every OpenBLAS library that numpy and scipy load at one
    thread, and gives each back the count it had when the run returns or
    raises (:func:`rffkrr._threads._one_blas_thread`).  The cores go to
    the package's own block and tile threads instead, and the records are
    the same whatever thread count the environment sets.  The count is
    process-wide: while a run is in progress, the caller's other threads
    see one BLAS thread too.
    """
    if mode not in ("full", "error", "timing"):
        raise ValueError(f"unknown mode {mode!r}")
    if dataset is None:
        dataset = _load_for_config(config)
    _check_qmc_dimension(config.methods, dataset.dim)
    spec = KernelSpec(config.sigma)
    tasks = [
        (method, mult * dataset.dim, trial)
        for mult in config.s_multipliers
        for method in config.methods
        for trial in range(config.trials)
    ]

    def run_task(task):
        method, s, trial = task
        try:
            return _run_one(config, dataset, spec, method, s, trial, mode)
        except Exception as exc:
            raise _with_context(exc, method, s, trial) from exc

    def collect(iterator):
        records = []
        for record in iterator:
            if on_record is not None:
                on_record(record)
            records.append(record)
        return records

    threads = 1 if mode == "timing" else config.threads
    with _one_blas_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return collect(pool.map(run_task, tasks))
        return collect(run_task(task) for task in tasks)


def _format_float(value):
    return f"{value:.9g}"


def _summary_lines(records):
    groups = {}
    for record in records:
        groups.setdefault((record.method, record.s), []).append(record)
    lines = []
    for (method, s), group in groups.items():
        parts = [f"# summary method={method} s={s} trials={len(group)}"]
        for name in ("accuracy", "rel_error", "gen_time_s", "solve_time_s"):
            values = np.array([getattr(record, name) for record in group])
            parts.append(
                f"{name}={_format_float(values.mean())}"
                f"±{_format_float(values.std())}"
            )
        lines.append(" ".join(parts))
    return lines


def _records_to_csv(records):
    lines = [REPORT_HEADER]
    for r in records:
        cells = (getattr(r, attr) for _, attr in _REPORT_COLUMNS)
        lines.append(
            ",".join(
                _format_float(v) if isinstance(v, float) else str(v) for v in cells
            )
        )
    lines.extend(_summary_lines(records))
    return "\n".join(lines) + "\n"


def _records_to_jsonl(records):
    lines = []
    for r in records:
        row = {}
        for column, attr in _REPORT_COLUMNS:
            value = getattr(r, attr)
            nan = isinstance(value, float) and math.isnan(value)
            row[column] = None if nan else value
        lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


def render_report(records, fmt="csv"):
    """Records as report text: fixed-header CSV with '#' mean±std summary
    lines appended, or JSON-lines mirroring the fields."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        return _records_to_csv(records)
    if fmt == "jsonl":
        return _records_to_jsonl(records)
    raise ValueError(f"unknown report format {fmt!r}")


def emit_report(records, path, fmt="csv"):
    """Write the rendered report to a file."""
    text = render_report(records, fmt)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _record_from_fields(fields):
    types = {field.name: field.type for field in dataclasses.fields(TrialRecord)}
    values = {}
    for column, attr in _REPORT_COLUMNS:
        value = fields[column]
        if types[attr] is float:
            values[attr] = math.nan if value is None else float(value)
        else:
            values[attr] = types[attr](value)
    return TrialRecord(**values)


def read_report(path):
    """Parse a report file (CSV or JSON-lines) back into TrialRecords."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty report")
    records = []
    if lines[0].lstrip().startswith("{"):
        for line in lines:
            records.append(_record_from_fields(json.loads(line)))
        return records
    if lines[0] != REPORT_HEADER:
        raise ValueError(f"{path}: unrecognized report header {lines[0]!r}")
    columns = REPORT_HEADER.split(",")
    for line in lines[1:]:
        if line.startswith("#"):
            continue
        values = line.split(",")
        if len(values) != len(columns):
            raise ValueError(f"{path}: malformed row {line!r}")
        records.append(_record_from_fields(dict(zip(columns, values))))
    return records
