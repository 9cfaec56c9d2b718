"""Command-line benchmark driver.

Subcommands:
  approx   approximation error vs feature count (plot-ready CSV)
  bench    feature-generation timing vs feature count (single-threaded)
  krr      full accuracy benchmark (CV, fit, test accuracy, error)
  bounds   feature-count bound report for each lambda in the grid
  cv       the lambda selection of krr's trial 0: the same split, inner CV
           and seed, for the first method and s multiplier

Flag values may also come from a config file of flat key=value lines
('#' starts a comment; keys match the long flag names); explicit flags
override file values.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.
"""

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import linalg
from ._threads import _one_blas_thread
from .errors import DataError, NumericalError, UsageError
from .experiments import (
    ExperimentConfig,
    _check_qmc_dimension,
    _check_ridge_shift,
    _load_for_config,
    _split_and_cv,
    render_report,
    run_experiment,
)
from .kernels import KernelSpec, kernel_matrix
from .theory import format_bound_report, required_features

_MODES = {"approx": "error", "bench": "timing", "krr": "full"}

# Only CLI-only settings have a default here; ExperimentConfig owns the rest.
_DEFAULTS = {"delta": "0.1"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common_flags(parser):
    for flag in (*_CONFIG_FIELDS, *_DEFAULTS, "config"):
        parser.add_argument("--" + flag, default=None)


def _build_parser():
    parser = _Parser(prog="rffkrr", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("approx", "approximation error vs feature count"),
        ("bench", "feature-generation timing vs feature count"),
        ("krr", "accuracy benchmark with inner cross-validation"),
        ("bounds", "feature-count bound report"),
        ("cv", "lambda selection of krr's trial 0"),
    ):
        _add_common_flags(commands.add_parser(name, help=help_text))
    return parser


def _read_config_file(path):
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def _merge_settings(args):
    settings = dict(_DEFAULTS)
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_CONFIG_FIELDS) - set(_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_values)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        settings[key.replace("_", "-")] = value
    return settings


def _parse_int(raw, key):
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"--{key} expects an integer, got {raw!r}") from exc


def _parse_float(raw, key):
    try:
        return float(raw)
    except ValueError as exc:
        raise UsageError(f"--{key} expects a number, got {raw!r}") from exc


def _parse_list(raw, key, convert):
    try:
        return tuple(convert(token) for token in str(raw).split(",") if token.strip())
    except ValueError as exc:
        raise UsageError(f"--{key} has a malformed entry: {raw!r}") from exc


def _as_given(raw, key):
    return raw


# flag -> (ExperimentConfig field, parser(raw, flag)).  Parsers only convert
# types; ExperimentConfig checks ranges and choices, and supplies the
# defaults of flags left unset.
_CONFIG_FIELDS = {
    "data": ("data", _as_given),
    "test-data": ("test_data", _as_given),
    "out": ("out", _as_given),
    "format": ("format", _as_given),
    "method": ("methods", partial(_parse_list, convert=str)),
    "s-mult": ("s_multipliers", partial(_parse_list, convert=int)),
    "pool-mult": ("pool_multiplier", _parse_int),
    "sigma": ("sigma", _parse_float),
    "lambda-grid": ("lambda_grid", partial(_parse_list, convert=float)),
    "folds": ("folds", _parse_int),
    "trials": ("trials", _parse_int),
    "seed": ("seed", _parse_int),
    "err-subsample": ("err_subsample", _parse_int),
    "variant": ("variant", _as_given),
    "emit": ("emit", _as_given),
    "threads": ("threads", _parse_int),
}


def _resolve_config(settings):
    if not settings.get("data"):
        raise UsageError("--data is required (flag or config file)")
    fields = {
        field: parse(settings[key], key)
        for key, (field, parse) in _CONFIG_FIELDS.items()
        if key in settings
    }
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_or_print(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_experiment(command, config):
    def progress(record):
        print(
            f"done method={record.method} s={record.s} trial={record.trial}",
            file=sys.stderr,
        )

    records = run_experiment(config, mode=_MODES[command], on_record=progress)
    _write_or_print(render_report(records, config.emit), config.out)
    return 0


def _cmd_bounds(config, delta):
    dataset = _load_for_config(config)
    count = min(config.err_subsample, dataset.n)
    if count > linalg.EXACT_MODE_CAP:
        raise UsageError(
            f"--err-subsample {count} exceeds the exact-mode cap of "
            f"{linalg.EXACT_MODE_CAP} points"
        )
    _check_ridge_shift(count, config.lambda_grid)
    rng = np.random.default_rng(config.seed)
    subset = rng.choice(dataset.n, size=count, replace=False)
    X, y = dataset.X[subset], dataset.y[subset]
    K = kernel_matrix(X, KernelSpec(config.sigma))
    sections = []
    for lam in sorted(config.lambda_grid):
        report = required_features(K, y, lam, delta)
        sections.append(format_bound_report(report))
    _write_or_print("\n\n".join(sections) + "\n", config.out)
    return 0


def _cmd_cv(config):
    dataset = _load_for_config(config)
    method = config.methods[0]
    s = config.s_multipliers[0] * dataset.dim
    _check_qmc_dimension((method,), dataset.dim)
    # BLAS at one thread, as in run_experiment, for krr's own selection.
    with _one_blas_thread():
        _, _, report = _split_and_cv(
            config, dataset, KernelSpec(config.sigma), method, s, 0, "full"
        )
    lines = [f"method={method} s={s} folds={config.folds}"]
    for lam, accuracy in zip(report.lambda_grid, report.mean_accuracy):
        lines.append(f"lambda={lam:.9g} mean_accuracy={accuracy:.9g}")
    lines.append(f"chosen_lambda={report.chosen_lambda:.9g}")
    _write_or_print("\n".join(lines) + "\n", config.out)
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        settings = _merge_settings(args)
        config = _resolve_config(settings)
        if args.command in _MODES:
            return _cmd_experiment(args.command, config)
        if args.command == "bounds":
            delta = _parse_float(settings["delta"], "delta")
            if not 0.0 < delta < 1.0:
                raise UsageError(f"--delta must be in (0, 1), got {delta}")
            return _cmd_bounds(config, delta)
        return _cmd_cv(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
