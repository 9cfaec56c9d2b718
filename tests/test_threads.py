"""The OpenBLAS thread counts that rffkrr._threads finds, reads and sets."""

import ctypes.util
import os
import threading
import time

import numpy as np
import pytest
import scipy
from test_experiments import _blob_dataset, _config
from test_features import _child_stdout

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
    # Without them _one_blas_thread holds nothing.
    assert set(_threads._openblas()) == {"numpy", "scipy"}
    assert blas_at_two() == {"numpy": 2, "scipy": 2}


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
    # With no library found the hold sets nothing, and a Gram of three
    # tiles still splits into its six tile tasks and six mirror tasks, on
    # BLAS at two threads, with the bits it has when BLAS is held at one.
    libc = ctypes.util.find_library("c")
    if libc is None:
        pytest.skip("no C library to open")
    found = _threads._find_openblas({"numpy": libc, "scipy": "/no/such/library.so"})
    assert found == {}
    Z = np.random.default_rng(0).standard_normal((64, 1100))
    held = linalg.gram(Z)
    monkeypatch.setattr(_threads, "_libraries", found)
    tasks = []
    run_blocks = linalg._run_blocks

    def counting(fill, blocks, *args):
        tasks.append(len(blocks))
        return run_blocks(fill, blocks, *args)

    monkeypatch.setattr(linalg, "_run_blocks", counting)
    with _threads._one_blas_thread():
        assert set(blas_at_two().values()) == {2}
        G = linalg.gram(Z)
    assert tasks == [6, 6]
    np.testing.assert_array_equal(G, held)
    assert set(blas_at_two().values()) == {2}


def test_child_forked_inside_a_hold_gets_its_counts_back(blas_at_two):
    # A forked child runs none of the parent's entries: it starts with the
    # counts they saved, its own entries set and restore them, and the
    # parent's entry, left in the child, changes nothing there.  The child
    # reports what it saw through a pipe and never returns to pytest.
    read_end, write_end = os.pipe()
    pid = None
    try:
        with _threads._one_blas_thread():
            pid = os.fork()
            if pid == 0:
                seen = [(blas_at_two(), _threads._pin_depth)]
                with _threads._one_blas_thread():
                    seen.append((blas_at_two(), _threads._pin_depth))
                seen.append((blas_at_two(), _threads._pin_depth))
        if pid == 0:
            seen.append((blas_at_two(), _threads._pin_depth))
            with _threads._one_blas_thread():
                seen.append((blas_at_two(), _threads._pin_depth))
            a = np.arange(90000.0).reshape(300, 300) % 7
            seen.append(bool(np.array_equal(a @ a, np.einsum("ij,jk->ik", a, a))))
            os.write(write_end, repr(seen).encode())
    finally:
        if pid == 0:
            os._exit(0)
    os.close(write_end)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish")
        time.sleep(0.01)
    with os.fdopen(read_end) as report:
        seen = report.read()
    two, one = {"numpy": 2, "scipy": 2}, {"numpy": 1, "scipy": 1}
    assert seen == repr([(two, 0), (one, 1), (two, 0), (two, 0), (one, 1), True])
    assert set(blas_at_two().values()) == {2}


def test_direct_calls_are_the_same_under_one_and_two_blas_threads():
    # Each kernel called directly, outside any run, gives the same bits
    # whatever thread count the environment sets: the feature map, the
    # Gram whole (wider than one tile) and streamed, a Krylov solve on Z,
    # lone factors and inverse diagonals below and above _TILED_MIN, a
    # two-value leverage grid and a wide fit.  The inputs take no BLAS
    # product outside the kernels.
    code = (
        "import numpy as np\n"
        "from test_features import _digest\n"
        "from rffkrr import KernelSpec, approx_ridge_leverage, feature_map, fit\n"
        "from rffkrr import linalg, sample_mc, spectral_density\n"
        "rng = np.random.default_rng(31)\n"
        "n = 1500\n"
        "X = rng.uniform(size=(n, 14))\n"
        "Z = feature_map(X, sample_mc(spectral_density(KernelSpec(1.0), 14), 475, 3)).entries\n"
        "print('feature_map', _digest(Z))\n"
        "print('gram', _digest(linalg.gram(Z)))\n"
        "blocks = (Z[start : start + 512] for start in range(0, n, 512))\n"
        "print('streamed gram', _digest(linalg.gram(blocks)))\n"
        "rhs = rng.standard_normal(Z.shape[1])\n"
        "solutions = linalg.shifted_solves(Z, rhs, [75.0, 150.0])\n"
        "assert solutions is not None\n"
        "print('shifted_solves', _digest(solutions))\n"
        "for m in (linalg._TILED_MIN - 250, linalg._TILED_MIN + 100):\n"
        "    A = rng.uniform(-1.0, 1.0, size=(m, m))\n"
        "    G = A + A.T\n"
        "    G[np.diag_indices(m)] += 2.0 * m\n"
        "    print('psd_factor', m, _digest(linalg.psd_factor(G)[0]))\n"
        "    print('psd_inverse_diagonal', m, _digest(linalg.psd_inverse_diagonal(G)))\n"
        "grid = approx_ridge_leverage(np.ascontiguousarray(Z[:, :400]), (0.01, 0.1))\n"
        "print('approx_ridge_leverage', _digest(grid))\n"
        "y = rng.choice([-1.0, 1.0], size=n)\n"
        "print('fit', _digest(fit(Z, y, 0.05).beta))\n"
    )
    one, two = (_child_stdout(code, OPENBLAS_NUM_THREADS=t).splitlines() for t in "12")
    assert len(one) == 10
    assert one == two
