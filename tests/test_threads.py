"""The OpenBLAS thread counts that rffkrr._threads finds, reads and sets."""

import ctypes.util
import threading

import numpy as np
import pytest
import scipy
from test_experiments import _blob_dataset, _config

from rffkrr import _threads, linalg, run_experiment


@pytest.fixture
def blas_at_two():
    """Both libraries set to two threads for the test and put back at
    their own counts after it; yields a function that reads the counts."""
    libraries = _threads._openblas()
    if not libraries:
        pytest.skip("no OpenBLAS with known thread-count functions is loaded")
    saved = [(set_, get()) for get, set_ in libraries.values()]
    for set_, _ in saved:
        set_(2)
    try:
        yield lambda: {owner: get() for owner, (get, _) in libraries.items()}
    finally:
        for set_, count in saved:
            set_(count)


def _uses_scipy_openblas(module):
    blas = module.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return blas.get("name") == "scipy-openblas"


@pytest.mark.skipif(
    not (_uses_scipy_openblas(np) and _uses_scipy_openblas(scipy)),
    reason="numpy or scipy is not built on scipy-openblas",
)
def test_probe_finds_numpy_and_scipy_openblas(blas_at_two):
    # Without them every kernel takes its single-product path.
    assert set(_threads._openblas()) == {"numpy", "scipy"}
    assert blas_at_two() == {"numpy": 2, "scipy": 2}
    assert _threads._blas_threads("numpy") == _threads._blas_threads("scipy") == 2


def test_context_holds_one_thread_and_restores_the_counts(blas_at_two):
    with _threads._one_blas_thread():
        assert set(blas_at_two().values()) == {1}
    assert set(blas_at_two().values()) == {2}
    with pytest.raises(RuntimeError, match="inside"):
        with _threads._one_blas_thread():
            raise RuntimeError("inside")
    assert set(blas_at_two().values()) == {2}


def test_nested_entries_restore_on_the_last_exit(blas_at_two):
    with _threads._one_blas_thread():
        with _threads._one_blas_thread():
            assert set(blas_at_two().values()) == {1}
        assert set(blas_at_two().values()) == {1}
    assert set(blas_at_two().values()) == {2}


def test_overlapping_runs_leave_the_counts_as_they_found_them(blas_at_two):
    # Both runs wait for each other inside their first record, so their
    # entries overlap; the second to leave raises.
    both_inside = threading.Barrier(2, timeout=60)
    seen, errors = [], []

    def run(fail):
        def on_record(record):
            seen.append(blas_at_two())
            both_inside.wait()
            if fail:
                raise RuntimeError("record rejected")

        try:
            run_experiment(_config(), dataset=_blob_dataset(), on_record=on_record)
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(fail,)) for fail in (False, True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(errors) == 1
    assert all(set(counts.values()) == {1} for counts in seen) and len(seen) == 2
    assert set(blas_at_two().values()) == {2}


def test_run_experiment_restores_the_counts_when_it_raises(blas_at_two):
    def on_record(record):
        raise RuntimeError("record rejected")

    with pytest.raises(RuntimeError, match="record rejected"):
        run_experiment(_config(), dataset=_blob_dataset(), on_record=on_record)
    assert set(blas_at_two().values()) == {2}


def test_libraries_without_the_symbols_are_a_no_op(blas_at_two, monkeypatch):
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library to open")
    found = _threads._find_openblas({"numpy": libc, "scipy": "/no/such/library.so"})
    assert found == {}
    monkeypatch.setattr(_threads, "_libraries", found)
    monkeypatch.setattr(linalg, "_run_blocks", lambda *args: pytest.fail("split"))
    Z = np.random.default_rng(0).standard_normal((64, 1100))
    with _threads._one_blas_thread():
        assert _threads._blas_threads("numpy") is None
        assert set(blas_at_two().values()) == {2}
        np.testing.assert_array_equal(linalg.gram(Z), Z.T @ Z)
    assert set(blas_at_two().values()) == {2}
