"""Shared fixtures: the acceptance-line recorder, benchmark dataset
discovery, the traced-peak helper for memory bounds, the helper-pool
participants of feature maps, Grams and cross-validation folds.

The acceptance tests in test_acceptance.py print one PASS/FAIL line per
criterion; those lines are also replayed in the terminal summary so they
stay visible when pytest captures stdout.

Benchmark-scale criteria need real datasets that are not bundled with the
repository.  Files are looked up in the locations below; when a file is
missing, the criteria that need it fail with instructions rather than
silently passing.

  EEG eye-state recording (14 features, binary label, ~15k rows):
    $RFFKRR_EEG, else <repo>/data/eeg-eye-state.csv
  MAGIC gamma telescope (10 features, g/h label, ~19k rows):
    $RFFKRR_MAGIC04, else <repo>/data/magic04.csv

Both are accepted as comma-separated rows with the label last.  ARFF
headers (@... and %... lines) are stripped automatically, so the EEG file
can be used as distributed.
"""

import os
import sys
import tracemalloc
from pathlib import Path

import pytest

from rffkrr import _threads, load_dataset

_REPO_ROOT = Path(__file__).resolve().parent.parent

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record and print one 'ACCEPTANCE <n>: PASS/FAIL' line."""

    def record(criterion, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {criterion}: {status}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return passed

    return record


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` under tracemalloc and returns
    (peak traced bytes, result).  Arrays made before the call are not
    counted; tracing stops even if ``fn`` raises."""

    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def participants(monkeypatch):
    """``participants(count)`` makes block and tile tasks run on the
    caller and ``count - 1`` helpers of a fresh pool.  A short switch
    interval makes a task claimed twice or not at all show.

    Only pools made under the fixture are shut down: the process-wide
    pool live before it is put back as it was, still running."""
    monkeypatch.setattr(_threads, "_helpers", None)

    def use(count):
        if _threads._helpers is not None:
            _threads._helpers.shutdown()
        _threads._helpers = None
        monkeypatch.setattr(_threads, "_cpu_count", lambda: count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)
        if _threads._helpers is not None:
            _threads._helpers.shutdown()


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.line(line)


def _locate(env_var, default_name):
    override = os.environ.get(env_var)
    candidates = [Path(override)] if override else []
    candidates.append(_REPO_ROOT / "data" / default_name)
    for path in candidates:
        if path.is_file():
            return path
    return candidates


def _load_benchmark_csv(path, tmp_path_factory):
    # Accept plain CSV or ARFF: drop @declaration and % comment lines.
    lines = path.read_text().splitlines()
    data_lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith(("@", "%"))]
    if len(data_lines) != len([ln for ln in lines if ln.strip()]):
        stripped = tmp_path_factory.mktemp("data") / path.name
        stripped.write_text("\n".join(data_lines) + "\n")
        path = stripped
    return load_dataset(path, fmt="csv")


@pytest.fixture(scope="session")
def eeg_dataset(tmp_path_factory):
    """The EEG eye-state dataset, or None with the attempted paths."""
    found = _locate("RFFKRR_EEG", "eeg-eye-state.csv")
    if isinstance(found, list):
        return None, found
    return _load_benchmark_csv(found, tmp_path_factory), [found]


@pytest.fixture(scope="session")
def magic04_dataset(tmp_path_factory):
    found = _locate("RFFKRR_MAGIC04", "magic04.csv")
    if isinstance(found, list):
        return None, found
    return _load_benchmark_csv(found, tmp_path_factory), [found]
