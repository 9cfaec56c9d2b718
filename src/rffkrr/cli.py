"""Command-line benchmark driver.

Subcommands:
  approx   approximation error vs feature count (plot-ready CSV)
  bench    feature-generation timing vs feature count (single-threaded)
  krr      full accuracy benchmark (CV, fit, test accuracy, error)
  bounds   feature-count bound report for each lambda in the grid
  cv       standalone lambda selection on the training half

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

from .datasets import GIVEN_PARTITION, RANDOM_HALF, split
from .errors import DataError, NumericalError, UsageError
from .experiments import (
    METHODS,
    ExperimentConfig,
    _load_for_config,
    make_sampler,
    render_report,
    run_experiment,
)
from .kernels import KernelSpec, kernel_matrix
from .krr import cross_validate
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
        ("cv", "standalone lambda selection"),
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


def _parse_int(raw, key, minimum=None):
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"--{key} expects an integer, got {raw!r}") from exc
    if minimum is not None and value < minimum:
        raise UsageError(f"--{key} must be at least {minimum}, got {value}")
    return value


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


def _parse_choice(value, key, choices):
    if value not in choices:
        raise UsageError(f"--{key} must be one of {choices}, got {value!r}")
    return value


def _parse_methods(raw, key):
    methods = _parse_list(raw, key, str)
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"--{key} entries must be among {METHODS}, got {method!r}")
    return methods


def _as_given(raw, key):
    return raw


# flag -> (ExperimentConfig field, parser(raw, flag)); unset flags are left
# out so that ExperimentConfig supplies its own defaults.
_CONFIG_FIELDS = {
    "data": ("data", _as_given),
    "test-data": ("test_data", _as_given),
    "out": ("out", _as_given),
    "format": ("format", partial(_parse_choice, choices=("csv", "libsvm"))),
    "method": ("methods", _parse_methods),
    "s-mult": ("s_multipliers", partial(_parse_list, convert=int)),
    "pool-mult": ("pool_multiplier", partial(_parse_int, minimum=1)),
    "sigma": ("sigma", _parse_float),
    "lambda-grid": ("lambda_grid", partial(_parse_list, convert=float)),
    "folds": ("folds", partial(_parse_int, minimum=2)),
    "trials": ("trials", partial(_parse_int, minimum=1)),
    "seed": ("seed", _parse_int),
    "err-subsample": ("err_subsample", partial(_parse_int, minimum=2)),
    "variant": ("variant", partial(_parse_choice, choices=("full", "simplified"))),
    "emit": ("emit", partial(_parse_choice, choices=("csv", "jsonl"))),
    "threads": ("threads", partial(_parse_int, minimum=1)),
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
    if dataset.given_test is not None:
        train, _ = split(dataset, GIVEN_PARTITION)
    else:
        train, _ = split(dataset, RANDOM_HALF, np.random.SeedSequence(config.seed))
    method = config.methods[0]
    s = config.s_multipliers[0] * train.dim
    sampler = make_sampler(
        method, KernelSpec(config.sigma), s, config.pool_multiplier * s, config.variant
    )
    report = cross_validate(
        train.X, train.y, sampler, config.lambda_grid,
        folds=config.folds, seed=config.seed,
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
