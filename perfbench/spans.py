"""Spans and probes around calls into the rffkrr package.

The package is not changed: public functions (and ``_run_one``, the
per-record unit of the orchestration) are wrapped from outside.  A module
that did ``from .features import feature_map`` holds its own binding, so
a wrapper is installed in every rffkrr module that binds the original
function, and every binding is put back afterwards.

Spans stay in memory; :meth:`Recorder.write` writes them out at the end.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

# Layers timed in a traced run, as "module.function" under rffkrr.
TRACED = (
    "datasets.load_dataset",
    "datasets.split",
    "features.sample_mc",
    "features.feature_map",
    "leverage.surrogate_leverage",
    "leverage.approx_ridge_leverage",
    "leverage.build_resample_plan",
    "leverage.surrogate_pipeline",
    "leverage.erls_baseline_pipeline",
    "krr.cross_validate",
    "krr.fit",
    "krr.predict",
    "linalg.psd_factor",
    "linalg.factor_solve",
    "linalg.spectral_norm_sym",
    "kernels.kernel_matrix",
    "kernels.relative_approx_error",
    "experiments.generate_features",
    "experiments._run_one",
    "experiments.run_experiment",
)

# Wrapped in every run: the correctness checks need what these return.
PROBED = ("datasets.split", "experiments.generate_features")


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "rffkrr" or name.startswith("rffkrr."))
    ]


@contextmanager
def rebound(names, make_wrapper):
    """Replace each named function by ``make_wrapper(name, original)`` in
    every rffkrr module that binds it; restore all bindings on exit."""
    modules = _package_modules()
    saved = []
    try:
        for name in names:
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules["rffkrr." + module_name], attr)
            wrapper = make_wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for module, key, original in reversed(saved):
            setattr(module, key, original)


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "record", "count")

    def __init__(self, name, start, parent, round_, record):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.round = round_
        self.record = record
        self.count = {}

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "round": self.round,
            "record": list(self.record) if self.record else None,
            **self.count,
        }


class Recorder:
    """Records spans of wrapped calls and captures what the checks need.

    ``round`` is set by the caller before each round.  While
    ``_run_one`` runs, spans carry its record id (round, method, s,
    trial).  :meth:`take` hands over what was captured for the record
    that just finished: the solve-count delta of each feature generation,
    the last generated pool, and the train/test split.
    """

    def __init__(self, solve_count):
        self._solve_count = solve_count
        self.spans = []
        self._stack = []
        self.round = None
        self._record = None
        self._captured = self._fresh()

    @staticmethod
    def _fresh():
        return {"gen_solves": [], "pool": None, "split": None}

    def install(self, names):
        return rebound(names, self._wrap)

    def take(self):
        captured, self._captured = self._captured, self._fresh()
        return captured

    def _wrap(self, name, original):
        before = {
            "experiments._run_one": self._enter_record,
            "experiments.generate_features": self._solves_now,
        }.get(name)
        after = {
            "experiments.generate_features": self._capture_generation,
            "datasets.split": self._capture_split,
            "features.feature_map": self._count_map,
        }.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, parent, self.round, self._record)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if name == "experiments._run_one":
                    self._record = None
            if after:
                after(span, args, result, state)
            return result

        return wrapper

    def _enter_record(self, args):
        # _run_one(config, dataset, spec, method, s, trial, mode)
        self._record = (self.round, args[3], int(args[4]), int(args[5]))

    def _solves_now(self, args):
        return self._solve_count()

    def _capture_generation(self, span, args, result, solves_before):
        solves = self._solve_count() - solves_before
        self._captured["gen_solves"].append((args[0], solves))
        self._captured["pool"] = result[0]

    def _capture_split(self, span, args, result, state):
        self._captured["split"] = result

    def _count_map(self, span, args, result, state):
        n, width = result.entries.shape
        span.count = {"cos_sin_evals": n * width, "z_mb": n * width * 8 / 1e6}

    def write(self, path):
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus its children's.

    Calls are nested and single-threaded, so children never overlap and
    the time they cover is the sum of their durations.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def has_ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
