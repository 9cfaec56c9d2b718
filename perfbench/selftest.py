"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

Smoke runs of every workload at a tiny size, each correctness check fed
a wrong answer, and the trace wrappers restoring the package afterwards.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.use_checkout_source()

import rffkrr  # noqa: E402
from rffkrr import experiments, krr, linalg  # noqa: E402

import checks  # noqa: E402
from harness import run_workload  # noqa: E402
from spans import TRACED, Recorder, Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"rows": 400, "dim": 2}


def _tiny_run(name, tmp_path, tracing=False):
    return run_workload(WORKLOADS[name], 3, 0.0, tracing, str(tmp_path), **TINY)[1]


def test_benchmark_json_matches_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    result = _tiny_run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[name].methods)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name, tmp_path):
    result = _tiny_run(name, tmp_path, tracing=True)
    # The self-time check runs on every traced record and counts as a failure.
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["features.feature_map.self_s"] > 0
    assert metrics["features.feature_map.calls"] >= len(WORKLOADS[name].methods)
    assert metrics["linalg.solves"] == int(metrics["linalg.solves"])
    assert list(tmp_path.glob(f"spans-{name}-seed3.jsonl"))


def test_self_times_subtract_children():
    spans = []
    for name, start, end, parent in (("a", 0, 10, None), ("b", 1, 3, 0),
                                     ("c", 4, 8, 0), ("d", 5, 6, 2)):
        span = Span(name, start, parent, 0, None)
        span.end = end
        spans.append(span)
    assert self_times(spans) == [4, 2, 3, 1]


def test_accuracy_check_rejects_flipped_predictions():
    labels = np.array([1.0, 1.0, 1.0, -1.0])
    right = krr.classify_accuracy(labels, labels)
    flipped = krr.classify_accuracy(-labels, labels)
    assert checks.check_accuracy(right, labels) is None
    assert checks.check_accuracy(flipped, labels)
    assert checks.check_accuracy(0.74, labels)  # below the 0.75 majority rate


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.1])
def test_rel_error_check_rejects(value):
    assert checks.check_rel_error(0.08) is None
    assert checks.check_rel_error(value)


def test_lambda_check_rejects_off_grid():
    grid = (0.05, 0.1, 0.5, 1.0)
    assert checks.check_lambda(0.05, grid) is None
    assert checks.check_lambda(0.07, grid)


def test_solve_free_check_rejects_a_surrogate_solve():
    assert checks.check_solve_free([("SurrogateRFF", 0), ("LeverageRFF", 2)]) is None
    assert checks.check_solve_free([("SurrogateRFF", 0), ("SurrogateRFF", 1)])


def test_oracle_check_rejects_a_wrong_fit():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(60, 20)) / np.sqrt(20)
    y = np.where(rng.normal(size=60) > 0, 1.0, -1.0)
    beta = krr.fit(Z, y, 0.05).beta
    assert checks.check_oracle(beta, Z, y, 0.05) is None
    assert checks.check_oracle(beta * (1 + 1e-6), Z, y, 0.05)


def test_self_time_check_rejects_a_gap():
    assert checks.check_self_times(2.0, 2.001) is None
    assert checks.check_self_times(1.5, 2.0)


def test_run_fails_when_surrogate_generation_solves(tmp_path, monkeypatch):
    pipeline = experiments.surrogate_pipeline

    def solving_pipeline(*args, **kwargs):
        linalg.psd_solve(np.eye(2), np.ones(2))
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(experiments, "surrogate_pipeline", solving_pipeline)
    result = _tiny_run("gen-s128", tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1  # only the SurrogateRFF record


def test_run_fails_on_flipped_predictions(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "predict", lambda model, X: -krr.predict(model, X))
    result = _tiny_run("krr-s64", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def _bindings():
    return {
        (module.__name__, key): value
        for module in (rffkrr, *[getattr(rffkrr, m) for m in (
            "cli", "datasets", "experiments", "features", "kernels", "krr",
            "leverage", "linalg")])
        for key, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_rebind_everywhere_and_restore():
    before = _bindings()
    original = rffkrr.features.feature_map
    recorder = Recorder(linalg.solve_count)
    with pytest.raises(RuntimeError):
        with recorder.install(TRACED):
            for module in (rffkrr, rffkrr.features, rffkrr.krr, rffkrr.leverage,
                           experiments):
                assert module.feature_map is not original
                assert module.feature_map.__wrapped__ is original
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "krr-s64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
