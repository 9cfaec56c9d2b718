"""Frequency pools, the Halton sequence, and the paired cos/sin map."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from rffkrr import (
    FeatureMatrix,
    FrequencyPool,
    KernelSpec,
    approx_kernel_entry,
    eval_kernel,
    feature_map,
    features,
    halton,
    sample_mc,
    sample_qmc,
    spectral_density,
    surrogate_pipeline,
)
from rffkrr import _threads

DENSITY = spectral_density(KernelSpec(1.0), 2)


def test_sample_mc_is_deterministic():
    a = sample_mc(DENSITY, 3, 42)
    b = sample_mc(DENSITY, 3, 42)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert a.frequencies.shape == (3, 2)
    np.testing.assert_array_equal(a.weights, np.ones(3))


def test_sample_mc_rejects_empty():
    with pytest.raises(ValueError):
        sample_mc(DENSITY, 0, 0)


def test_halton_base2_prefix():
    points = halton(3, 1)
    np.testing.assert_allclose(points[:, 0], [0.5, 0.25, 0.75])


def test_halton_base3_prefix():
    points = halton(4, 2)
    np.testing.assert_allclose(points[:, 1], [1 / 3, 2 / 3, 1 / 9, 4 / 9])


def test_halton_range_and_dim_limit():
    points = halton(500, 5)
    assert points.min() > 0.0 and points.max() < 1.0
    with pytest.raises(ValueError):
        halton(10, 65)
    with pytest.raises(ValueError):
        halton(0, 1)


def test_sample_qmc_deterministic_without_seed():
    a = sample_qmc(DENSITY, 16)
    b = sample_qmc(DENSITY, 16)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert np.all(np.isfinite(a.frequencies))


def test_qmc_beats_mc_median_error():
    # Paired comparison on a fixed dataset: the low-discrepancy pool should
    # approximate at least as well as the median Monte Carlo pool.
    from rffkrr import kernel_matrix, relative_approx_error

    X = np.random.default_rng(12).uniform(size=(200, 2))
    K = kernel_matrix(X, KernelSpec(1.0))
    s = 4096
    qmc_err = relative_approx_error(K, feature_map(X, sample_qmc(DENSITY, s)).entries)
    mc_errs = [
        relative_approx_error(K, feature_map(X, sample_mc(DENSITY, s, seed)).entries)
        for seed in range(20)
    ]
    assert qmc_err <= np.median(mc_errs)


def test_pool_validation():
    with pytest.raises(ValueError):
        FrequencyPool(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError):
        FrequencyPool(np.ones((2, 1)), np.ones(3))
    with pytest.raises(ValueError):
        FrequencyPool(np.ones((1, 1)), np.array([-0.5]))
    # any finite nonnegative weights are accepted
    pool = FrequencyPool(np.ones((2, 1)), np.array([0.0, 2.5]))
    assert pool.size == 2 and pool.dim == 1


def test_feature_matrix_width_check():
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones((4, 3)))
    with pytest.raises(ValueError):
        FeatureMatrix(np.ones(4))


def test_zero_frequency_gives_constant_features():
    pool = FrequencyPool(np.zeros((1, 2)), np.ones(1))
    Z = feature_map(np.random.default_rng(0).uniform(size=(5, 2)), pool)
    np.testing.assert_allclose(Z.entries, np.tile([1.0, 0.0], (5, 1)))
    np.testing.assert_allclose(Z.entries @ Z.entries.T, np.ones((5, 5)))


def test_unweighted_rows_have_unit_norm():
    X = np.random.default_rng(1).uniform(size=(10, 2))
    Z = feature_map(X, sample_mc(DENSITY, 17, 3)).entries
    np.testing.assert_allclose((Z * Z).sum(axis=1), np.ones(10), atol=1e-12)


def test_feature_map_matches_scalar_loop():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(10, 2))
    pool = FrequencyPool(rng.standard_normal((3, 2)), np.array([0.5, 1.0, 2.0]))
    Z = feature_map(X, pool).entries
    gram = Z @ Z.T
    for j in range(10):
        for k in range(10):
            expected = sum(
                pool.weights[i] * np.cos(pool.frequencies[i] @ (X[j] - X[k]))
                for i in range(3)
            ) / 3
            assert gram[j, k] == pytest.approx(expected, abs=1e-12)


def test_feature_map_row_equivariance():
    X = np.random.default_rng(4).uniform(size=(8, 2))
    pool = sample_mc(DENSITY, 5, 9)
    perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
    np.testing.assert_array_equal(
        feature_map(X[perm], pool).entries, feature_map(X, pool).entries[perm]
    )


def _one_shot_map(X, pool):
    # The whole n x s projection at once, with 0.5 W padded to a multiple
    # of 8 columns (a one-point map projects its point twice, as the map
    # does), then cos = (1 - t^2) f and sin = 2t f with
    # f = sqrt(w/s) / (1 + t^2) for t = tan(w.x / 2), one operation at a
    # time: the reference the blocked map must reproduce.
    n, s = X.shape[0], pool.size
    half = np.zeros((pool.dim, -(-s // 8) * 8))
    half[:, :s] = 0.5 * pool.frequencies.T
    rows = np.vstack([X, X]) if n == 1 else X
    t = np.tan((rows @ half)[:n, :s])
    t2 = t * t
    f = np.sqrt(pool.weights / s) / (1.0 + t2)
    Z = np.empty((n, 2 * s))
    Z[:, 0::2] = (1.0 - t2) * f
    Z[:, 1::2] = (t + t) * f
    return Z


def _block_case(n, s, kind):
    density = spectral_density(KernelSpec(1.0), 14)
    X = np.random.default_rng(n).uniform(size=(n, 14))
    if kind == "qmc":
        return X, sample_qmc(density, s)
    pool = sample_mc(density, s, s)
    if kind == "resampled":
        weights = np.random.default_rng(s).uniform(0.0, 3.0, s)
        pool = FrequencyPool(pool.frequencies, weights)
    return X, pool


_ROWS_64 = features._BLOCK_ENTRIES // 64


@pytest.mark.parametrize(
    "n, s, kind",
    [
        (1, 64, "mc"),
        (_ROWS_64, 64, "mc"),
        (_ROWS_64 + 1, 64, "mc"),
        (3 * _ROWS_64 + 777, 64, "mc"),
        (7490, 896, "mc"),
        (5, features._BLOCK_ENTRIES + 8, "mc"),
        (3 * _ROWS_64 + 777, 64, "resampled"),
        (3 * _ROWS_64 + 777, 64, "qmc"),
    ],
)
def test_feature_map_block_boundaries_are_exact(n, s, kind):
    # Widths are multiples of 8: there OpenBLAS computes each row of the
    # projection the same whatever the number of rows in the product.
    X, pool = _block_case(n, s, kind)
    np.testing.assert_array_equal(feature_map(X, pool).entries, _one_shot_map(X, pool))


@pytest.mark.parametrize("s", [255, 951])
def test_feature_map_ragged_width_within_rounding(s):
    # Other widths are exact too: the map pads the projection matrix with
    # zero columns to a multiple of 8.
    X, pool = _block_case(3000, s, "resampled")
    np.testing.assert_array_equal(feature_map(X, pool).entries, _one_shot_map(X, pool))


@pytest.mark.parametrize("s", [1, 7, 14, 255, 951])
def test_rows_of_a_subset_map_equal_the_full_map(s):
    # A row's features do not depend on the rows mapped with it, one-point
    # maps included, at widths that are not multiples of 8.
    X, pool = _block_case(3000, s, "resampled")
    Z = feature_map(X, pool).entries
    for start, count in ((0, 1), (1234, 1), (2999, 1), (5, 2), (701, 514)):
        rows = slice(start, start + count)
        np.testing.assert_array_equal(feature_map(X[rows], pool).entries, Z[rows])


def _accuracy_case():
    """One-feature points whose angles w.x run from 1e-6 to 1e8 in size,
    and sit within a few ulps of odd multiples of pi, for frequencies of
    several sizes with zero and nonzero weights.  With d = 1 each angle is
    one rounded product, and the half angle is exactly half of it."""
    rng = np.random.default_rng(19)
    sizes = 10.0 ** np.linspace(-6, 8, 3000)
    k = np.concatenate([np.arange(10), np.arange(10, 1.5e7, 5e4)])
    odd_pi = np.pi * (2 * k + 1)
    steps = np.arange(-3, 4)
    near = (odd_pi[:, None] + steps * np.spacing(odd_pi)[:, None]).ravel()
    x = np.concatenate([sizes, -sizes * rng.uniform(0.5, 1.0, sizes.size), near, -near])
    frequencies = np.array([[1.0], [-1.0], [0.5], [3.0], [1e-3], [7.25], [-0.3], [1.0]])
    weights = np.array([1.0, 0.0, 2.5, 0.3, 1.0, 0.0, 4.0, 0.7])
    return x[:, None], FrequencyPool(frequencies, weights)


def _accuracy_excess():
    """Largest |Z - ref| / (2^-53 sqrt(w/s)) over the nonzero-weight
    columns of the accuracy case, ref from ``np.cos``/``np.sin``, and the
    zero-weight columns' largest entry."""
    X, pool = _accuracy_case()
    Z = feature_map(X, pool).entries
    angles = X @ pool.frequencies.T
    scale = np.sqrt(pool.weights / pool.size)
    ref = np.empty_like(Z)
    ref[:, 0::2] = np.cos(angles) * scale
    ref[:, 1::2] = np.sin(angles) * scale
    live = np.repeat(pool.weights > 0, 2)
    units = np.abs(Z - ref)[:, live] / (2.0**-53 * np.repeat(scale, 2)[live])
    return float(units.max()), float(np.abs(Z[:, ~live]).max())


def test_half_angle_map_is_within_4_units_of_cos_and_sin():
    worst, dead = _accuracy_excess()
    assert worst <= 4.0
    assert dead == 0.0


def test_half_angle_map_accuracy_without_avx512():
    # numpy's vector tan needs AVX-512; with those CPU features disabled
    # float64 tan falls back to libm, and the bound must still hold.
    code = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "assert not __cpu_features__['X86_V4'], 'AVX-512 dispatch still on'\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_features import _accuracy_excess\n"
        "print(*_accuracy_excess())\n"
    )
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    src = Path(features.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    worst, dead = map(float, result.stdout.split())
    assert worst <= 4.0
    assert dead == 0.0


def test_feature_map_memory_is_output_plus_blocks(traced_peak):
    X = np.random.default_rng(5).uniform(size=(20000, 14))
    pool = sample_mc(spectral_density(KernelSpec(1.0), 14), 256, 5)
    peak, Z = traced_peak(lambda: feature_map(X, pool).entries)
    block_bytes = features._BLOCK_ENTRIES * Z.itemsize
    assert peak <= Z.nbytes + 4 * block_bytes


def _inline_blocks(X, pool):
    # The single-participant fill, block by block: the reference that the
    # threaded map must equal bit for bit.  Yielding blocks keeps only one
    # Z in memory at the widest shapes.
    s, n = pool.size, X.shape[0]
    rows = max(2, features._BLOCK_ENTRIES // s)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield start, stop, _one_shot_map(X[start:stop], pool)


@pytest.fixture
def four_participants(monkeypatch):
    """Maps run on a fresh pool of three helpers plus the caller, more
    participants than this machine may have cores, with a short switch
    interval so that a block claimed twice or not at all would show."""
    monkeypatch.setattr(_threads, "_cpu_count", lambda: 4)
    monkeypatch.setattr(_threads, "_helpers", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
        if _threads._helpers is not None:
            _threads._helpers.shutdown()


def _row_counts(s):
    rows = max(2, features._BLOCK_ENTRIES // s)
    # 1 and 2 rows, exactly one block, one block + 1 (a one-row last
    # block, projected as a two-row product), a ragged last block, and a
    # training half of EEG
    # (1000 rows at the widest pool, where 7490 would make Z 430 MB).
    return [1, 2, rows, rows + 1, 3 * rows + rows // 2 + 1, 7490 if s <= 1792 else 1000]


@pytest.mark.parametrize(
    "s, n",
    [(s, n) for s in (1, 7, 14, 255, 951, 1792, 3584) for n in _row_counts(s)],
)
def test_threaded_map_equals_inline_fill(four_participants, s, n):
    X, pool = _block_case(n, s, "resampled")
    Z = feature_map(X, pool).entries
    for start, stop, block in _inline_blocks(X, pool):
        np.testing.assert_array_equal(Z[start:stop], block)


def test_single_participant_path_equals_inline_fill(monkeypatch):
    monkeypatch.setattr(_threads, "_cpu_count", lambda: 1)
    X, pool = _block_case(3 * _ROWS_64 + 777, 64, "resampled")
    Z = feature_map(X, pool).entries
    for start, stop, block in _inline_blocks(X, pool):
        np.testing.assert_array_equal(Z[start:stop], block)


def test_helper_exception_reaches_caller(four_participants):
    caller = threading.get_ident()

    def fill(_work, start, stop):
        time.sleep(0.01)  # lets every helper claim a block
        if threading.get_ident() != caller:
            raise MemoryError("helper failed")

    with pytest.raises(MemoryError, match="helper failed"):
        _threads._run_blocks(fill, [(i, i + 1) for i in range(20)])


def test_each_running_task_holds_its_own_slot(four_participants):
    # Each participant's slot is a row of scratch of its own: a task
    # running at once with another in the same slot would find its scratch
    # overwritten.
    lock = threading.Lock()
    clashes, seen = [], []

    def fill(work, k):
        work[0] = k
        with lock:
            seen.append((work.ctypes.data, threading.get_ident()))
        time.sleep(0.001)
        if work[0] != k:
            clashes.append(k)

    _threads._run_blocks(fill, [(k,) for k in range(200)], scratch=1)
    assert clashes == []
    assert len(seen) == 200
    threads = {}
    for row, ident in seen:
        threads.setdefault(row, set()).add(ident)
    assert len(threads) <= 4
    assert {threading.get_ident()} in threads.values()
    assert all(len(idents) == 1 for idents in threads.values())
    assert len({ident for idents in threads.values() for ident in idents}) == len(threads)


def test_one_block_map_starts_no_thread(monkeypatch):
    monkeypatch.setattr(_threads, "_helpers", None)
    before = threading.active_count()
    X, pool = _block_case(_ROWS_64, 64, "mc")
    feature_map(X, pool)
    assert _threads._helpers is None
    assert threading.active_count() == before


def test_cancelled_helper_does_not_hold_the_map(monkeypatch):
    # The one helper is busy with another caller's task, so this map's
    # helper task is still queued when the caller has filled every block
    # itself, and is cancelled.  A cancelled task stays in the executor's
    # queue until a thread takes it; it must not keep the map's Z alive:
    # a caller that drops Z expects its memory back at once (the leverage
    # baseline drops its pool map before mapping its draws, and
    # cross-validation each pair's features once its Gram is formed).
    monkeypatch.setattr(_threads, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_threads, "_helpers", None)
    release = threading.Event()
    busy = _threads._helper_pool().submit(release.wait)
    try:
        X = np.random.default_rng(2).uniform(size=(3000, 14))
        y = np.where(X[:, 0] > 0.5, 1.0, -1.0)
        _, Z = surrogate_pipeline(X, y, KernelSpec(1.0), 64, 0.1, pool_size=256, seed=4)
        assert not busy.done()
        assert sys.getrefcount(Z) <= 2
    finally:
        release.set()
        busy.result()
        _threads._helpers.shutdown()


@pytest.mark.parametrize(
    "n, s", [(1, 7), (3 * _ROWS_64 + 777, 64), (3000, 255), (7490, 896)]
)
def test_label_correlations_equal_on_any_core_count(participants, n, s):
    # y^T Z streamed block by block: the same bits on 1, 2 and 4
    # participants, and y @ Z up to the rounding of an n-term sum.
    X, pool = _block_case(n, s, "mc")
    y = np.where(np.random.default_rng(n).uniform(size=n) > 0.5, 1.0, -1.0)
    results = []
    for count in (1, 2, 4):
        participants(count)
        results.append(features.label_correlations(X, pool, y))
    for result in results[1:]:
        np.testing.assert_array_equal(result, results[0])
    Z = feature_map(X, pool).entries
    bound = n * np.finfo(float).eps * np.abs(Z).max()
    np.testing.assert_allclose(results[0], y @ Z, rtol=0, atol=bound)
    with pytest.raises(ValueError):
        features.label_correlations(X, pool, np.append(y, 1.0))


def test_label_correlations_of_zero_points_are_zero():
    X, pool = _block_case(0, 7, "resampled")
    correlations = features.label_correlations(X, pool, np.empty(0))
    np.testing.assert_array_equal(correlations, np.zeros(14))


def _digest(Z):
    return hashlib.sha256(np.ascontiguousarray(Z).tobytes()).hexdigest()


def _filling_threads(blocks):
    # Threads that took part in a run of ``blocks`` slow blocks.
    seen = set()

    def fill(_work, start, stop):
        seen.add(threading.get_ident())
        time.sleep(0.01)

    _threads._run_blocks(fill, [(i, i + 1) for i in range(blocks)])
    return len(seen)


def _map_in_child(conn, n, s):
    X, pool = _block_case(n, s, "resampled")
    conn.send((_digest(feature_map(X, pool).entries), _filling_threads(20)))
    conn.close()


def test_map_in_forked_child_after_parent_map(monkeypatch):
    # The parent's helper threads do not exist in a forked child.  A pool
    # inherited as it stands queues the child's blocks where no thread
    # runs them: waiting for them hangs, and dropping them leaves the
    # caller filling every block alone.
    monkeypatch.setattr(_threads, "_cpu_count", lambda: 2)
    X, pool = _block_case(3 * _ROWS_64 + 777, 64, "resampled")
    expected = _digest(feature_map(X, pool).entries)
    assert _threads._helpers is not None
    receiver, sender = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_map_in_child, args=(sender, 3 * _ROWS_64 + 777, 64)
    )
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "feature_map hung in a forked child"
        assert receiver.recv() == (expected, 2)
    finally:
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert child.exitcode == 0


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask"
)
def test_single_cpu_affinity_map_runs_inline():
    n, s = 3 * _ROWS_64 + 777, 64
    code = (
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from test_features import _block_case, _digest\n"
        "from rffkrr import _threads, feature_map\n"
        f"X, pool = _block_case({n}, {s}, 'resampled')\n"
        "Z = feature_map(X, pool).entries\n"
        "assert _threads._helpers is None\n"
        "assert threading.active_count() == 1\n"
        "print(_digest(Z))\n"
    )
    X, pool = _block_case(n, s, "resampled")
    assert _child_stdout(code).strip() == _digest(feature_map(X, pool).entries)


def test_map_rows_equal_under_one_and_two_blas_threads():
    # The row blocks are of one size but the last, and nothing merges a
    # short last block into the one before it: that leans on OpenBLAS
    # computing each row of a product with a multiple-of-8 width the same
    # however many rows, and BLAS threads, the product has.  A one-row
    # last block is projected as a two-row product.  Widths 7, 255 and
    # 951 are padded; each has a last block of one row and of several.
    cases = []
    for s in (7, 255, 951):
        rows = max(2, features._BLOCK_ENTRIES // s)
        cases += [(2 * rows + 1, s), (2 * rows + rows // 2, s)]
    code = (
        "from test_features import _block_case, _digest\n"
        "from rffkrr import feature_map\n"
        f"for n, s in {cases!r}:\n"
        "    X, pool = _block_case(n, s, 'resampled')\n"
        "    print(_digest(feature_map(X, pool).entries))\n"
    )
    one, two = (_child_stdout(code, OPENBLAS_NUM_THREADS=t).split() for t in "12")
    assert len(one) == len(cases)
    assert one == two


def _child_stdout(code, **env):
    # The standard output of ``code`` run in a fresh interpreter that
    # imports this checkout's package and this file's helpers.
    env = dict(os.environ, **env)
    src = Path(features.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n" + code
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_feature_map_dimension_mismatch():
    with pytest.raises(ValueError):
        feature_map(np.ones((4, 3)), sample_mc(DENSITY, 2, 0))


def test_approx_kernel_entry_trivials():
    pool = sample_mc(DENSITY, 6, 11)
    x = np.array([0.2, 0.9])
    assert approx_kernel_entry(x, x, pool) == pytest.approx(1.0, abs=1e-12)
    dead = FrequencyPool(pool.frequencies, np.zeros(6))
    assert approx_kernel_entry(x, np.zeros(2), dead) == 0.0


@pytest.mark.parametrize("s", [8, 16, 64, 256, 896])
@pytest.mark.parametrize("d", [2, 3, 14])
def test_approx_kernel_entry_equals_rows_of_a_larger_map(s, d):
    # The two points are mapped as one two-row product.  At widths that
    # are multiples of 8 OpenBLAS computes its rows as the same rows of a
    # 600-row product, so the entry is exact; one-row maps go to gemv and
    # round differently.  A failure on another BLAS is a platform finding.
    X = np.random.default_rng(s + d).uniform(size=(600, d))
    pool = sample_mc(spectral_density(KernelSpec(1.0), d), s, d)
    Z = feature_map(X, pool).entries
    for i, j in ((0, 0), (3, 417), (599, 1), (250, 250)):
        assert approx_kernel_entry(X[i], X[j], pool) == float(Z[i] @ Z[j])


def test_mc_estimate_concentrates():
    # distance-1 pair: estimates should land within 0.05 of exp(-1) for at
    # least 19 of 20 seeds at s = 10^4
    density = spectral_density(KernelSpec(1.0), 3)
    x, x_prime = np.zeros(3), np.array([1.0, 0.0, 0.0])
    hits = sum(
        abs(approx_kernel_entry(x, x_prime, sample_mc(density, 10_000, seed)) - np.exp(-1))
        < 0.05
        for seed in range(20)
    )
    assert hits >= 19


def test_mc_estimate_unbiased_over_pools():
    x, x_prime = np.array([0.1, 0.4]), np.array([0.7, 0.2])
    target = eval_kernel(x, x_prime, KernelSpec(1.0))
    estimates = [
        approx_kernel_entry(x, x_prime, sample_mc(DENSITY, 64, seed))
        for seed in range(200)
    ]
    assert abs(np.mean(estimates) - target) < 4 / np.sqrt(200 * 64)


def test_weighted_map_enumeration_identity():
    # For a finite frequency set under proposal q with ratios r = p/q, the
    # q-expectation of r * cos(w.delta) enumerates exactly to the p-mean.
    freqs = np.array([[0.3], [1.1], [-2.0], [0.5]])
    q = np.array([0.4, 0.1, 0.2, 0.3])
    ratios = (1.0 / 4.0) / q
    delta = 0.7
    lhs = float((q * ratios * np.cos(freqs.ravel() * delta)).sum())
    rhs = float(np.cos(freqs.ravel() * delta).mean())
    assert lhs == pytest.approx(rhs, abs=1e-12)
