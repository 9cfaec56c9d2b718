"""Threads in rffkrr: the block runner behind the feature map, the tiled
Gram, the tiled factors, products Z^T (Z p) and a leverage grid's
factors, and the thread counts of the OpenBLAS libraries that numpy and
scipy load.

:func:`_run_blocks` hands a call's tasks to the calling thread and a
shared pool of helper threads, one participant per CPU in the process's
affinity mask.  Its callers split their work by shape alone, so their
results are the same bit for bit on any number of cores.

Those tasks are small BLAS products, and each one is meant to run on one
core: under a threaded BLAS a tiled Gram or a blocked product runs every
task on every core at once and is slower than one product.  So each
kernel asks the library it calls for its live thread count
(:func:`_blas_threads`) and splits its work only at one thread.  The
counts are read and set through ``ctypes``, by the functions that the
scipy-openblas builds in numpy's and scipy's wheels export, looked up
through the extension module that calls each library the first time
they are needed, never at import.  A build without those functions (MKL,
Accelerate, a system OpenBLAS) is not found: the kernels then take their
single-product paths, and :func:`_one_blas_thread` does nothing.

:func:`_one_blas_thread` sets every library found to one thread for the
length of a block, as ``run_experiment`` does for a whole run.  The count
is process-wide: while it is held, any other thread of the process that
calls BLAS gets one thread too.
"""

import ctypes
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

# Helper threads shared by every caller of _run_blocks in the process,
# created on first use.  Sharing one pool keeps concurrent calls (trials
# run with threads > 1) from starting more threads than there are cores.
# Helpers only run tasks and never submit work, so they cannot deadlock.
_helpers = None
_helpers_lock = threading.Lock()

# Entries of _one_blas_thread now running, and the counts that the first
# of them saved, as (set function, count) pairs.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = []


def _forget_helpers():
    # A forked child has none of the parent's threads: a pool inherited
    # from the parent would accept work that no thread ever runs, and a
    # lock held by one of them would never be released.
    global _helpers, _helpers_lock, _pin_lock
    _helpers = None
    _helpers_lock = threading.Lock()
    _pin_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _cpu_count():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_pool():
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(
                max_workers=_cpu_count() - 1, thread_name_prefix="rffkrr-helper"
            )
        return _helpers


def _run_blocks(fill, tasks, scratch=0):
    """Call ``fill(work, *task)`` once for every task in ``tasks``: the
    row blocks of a feature map, the tiles of one block of
    :func:`rffkrr.linalg.gram` or of its mirror, the panel and
    trailing tiles of one step of a tiled factor, the column blocks of its
    inverse diagonal, the row blocks of a product Z^T (Z p), or the
    shifts of :func:`rffkrr.linalg.inverse_diagonals`, each an untiled
    factor and inverse of a copy of a Gram.  No task calls it again: helper threads
    never submit work.

    The tasks run on the caller and up to ``cpus - 1`` helper threads, no
    more than one per task.  Each participant claims the next unclaimed
    task until none are left.  ``work`` is the participant's own
    ``scratch`` float64 entries, a row of one array made here on the
    calling thread, so no two running tasks share it.  With one
    participant every task runs in the caller and no thread is started.
    A helper's exception is raised here once every running helper is
    done.
    """
    participants = min(len(tasks), _cpu_count())
    rows = np.empty((max(participants, 1), scratch))
    if participants < 2:
        for task in tasks:
            fill(rows[0], *task)
        return

    claimed = iter(tasks)
    claim_lock = threading.Lock()
    # ``fill`` holds the caller's arrays.  A helper cancelled while queued
    # behind another caller's work stays in the executor's queue until a
    # thread takes it, so it must not keep them alive: it reaches ``fill``
    # and the scratch only through this list, emptied before returning.
    work = [fill, rows]

    def drain(slot):
        while True:
            with claim_lock:
                task = next(claimed, None)
            if task is None:
                return
            work[0](work[1][slot], *task)

    helpers = _helper_pool()
    futures = [helpers.submit(drain, slot) for slot in range(1, participants)]
    try:
        drain(0)
    finally:
        # A helper still queued behind another caller has nothing left to
        # claim: drop it rather than wait for it.
        started = [f for f in futures if not f.cancel()]
        wait(started)
        work.clear()
    for future in started:
        future.result()


# The extension module through which numpy's matrix products and
# scipy's ``cython_blas`` routines call BLAS, and the names of the
# thread-count functions of the OpenBLAS that each links in the
# scipy-openblas wheels of numpy 2 (with 64-bit integers) and of scipy,
# %s for get or set.
_OPENBLAS = {
    "numpy": ("numpy._core._multiarray_umath", "scipy_openblas_%s_num_threads64_"),
    "scipy": ("scipy.linalg.cython_blas", "scipy_openblas_%s_num_threads"),
}

# {"numpy" or "scipy": (get, set)} for the libraries found, or None until
# the first probe.
_libraries = None


def _find_openblas(objects):
    """The thread-count functions of the OpenBLAS that each shared object
    in ``objects`` ({owner: path}) links, as {owner: (get, set)}, for the
    owners whose object exports ``_OPENBLAS[owner]``'s names itself or
    through the libraries it links.  Opening an object that is already
    loaded only takes another reference to it."""
    found = {}
    for owner, path in objects.items():
        symbol = _OPENBLAS[owner][1]
        try:
            library = ctypes.CDLL(path)
            get, set_ = library[symbol % "get"], library[symbol % "set"]
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        found[owner] = (get, set_)
    return found


def _openblas():
    # Two threads probing at once find the same libraries, so either
    # result may stand.
    global _libraries
    if _libraries is None:
        objects = {}
        for owner, (module, _) in _OPENBLAS.items():
            try:
                objects[owner] = importlib.import_module(module).__file__
            except ImportError:
                continue
        _libraries = _find_openblas(objects)
    return _libraries


def _blas_threads(owner):
    """The live thread count of ``owner``'s OpenBLAS ("numpy" or
    "scipy"), or None if that library was not found."""
    functions = _openblas().get(owner)
    return None if functions is None else functions[0]()


@contextmanager
def _one_blas_thread():
    """Set every OpenBLAS found to one thread for the body, and put back
    the counts they had on exit, whether the body returns or raises.

    Entries may overlap, on one thread or several: the first saves the
    counts and the last restores them.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(set_, get()) for get, set_ in _openblas().values()]
            for set_, _ in _pin_saved:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)
