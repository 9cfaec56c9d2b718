import dataclasses
import math
import time
import types
import weakref

import numpy as np
import pytest

import rffkrr._threads as _threads
import rffkrr.experiments as experiments
import rffkrr.linalg as linalg
from rffkrr import (
    Dataset,
    ExperimentConfig,
    KernelSpec,
    emit_report,
    erls_baseline_grid,
    feature_map,
    fit,
    generate_features,
    make_sampler,
    read_report,
    render_report,
    run_experiment,
    sample_mc,
    spectral_density,
)

REPORT_HEADER = experiments.REPORT_HEADER


def _blob_dataset(seed=0, n_pos=70, n_neg=30):
    rng = np.random.default_rng(seed)
    X = np.concatenate(
        [
            rng.normal(0.25, 0.05, size=(n_pos, 2)),
            rng.normal(0.75, 0.05, size=(n_neg, 2)),
        ]
    )
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    return Dataset(X, y)


def _config(**overrides):
    base = dict(
        data="in-memory",
        methods=("RFF",),
        s_multipliers=(2,),
        trials=1,
        folds=3,
        lambda_grid=(0.05, 1.0),
        seed=1,
        err_subsample=50,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_full_run_on_separable_blob():
    records = run_experiment(_config(), dataset=_blob_dataset())
    assert len(records) == 1
    record = records[0]
    assert record.method == "RFF" and record.s == 4 and record.trial == 0
    assert record.accuracy >= 0.9
    assert 0.0 < record.rel_error < 1.0
    assert record.gen_time_s >= 0.0 and record.solve_time_s >= 0.0
    assert record.lam in (0.05, 1.0)


def test_record_grid_order():
    config = _config(methods=("RFF", "QMC"), s_multipliers=(1, 2), trials=2)
    records = run_experiment(config, dataset=_blob_dataset(), mode="error")
    keys = [(r.method, r.s, r.trial) for r in records]
    expected = [
        (method, mult * 2, trial)
        for mult in (1, 2)
        for method in ("RFF", "QMC")
        for trial in (0, 1)
    ]
    assert keys == expected


def test_results_deterministic():
    config = _config(methods=("RFF", "SurrogateRFF"), trials=2)
    ds = _blob_dataset()
    a = run_experiment(config, dataset=ds)
    b = run_experiment(config, dataset=ds)
    for ra, rb in zip(a, b):
        assert ra.accuracy == rb.accuracy
        assert ra.rel_error == rb.rel_error
        assert ra.lam == rb.lam


def test_threaded_run_matches_sequential():
    config = _config(methods=("RFF", "QMC"), trials=2)
    ds = _blob_dataset()
    seq = run_experiment(config, dataset=ds)
    par = run_experiment(_config(methods=("RFF", "QMC"), trials=2, threads=3), dataset=ds)
    assert [(r.method, r.s, r.trial) for r in seq] == [
        (r.method, r.s, r.trial) for r in par
    ]
    for rs, rp in zip(seq, par):
        assert rs.accuracy == rp.accuracy
        assert rs.rel_error == rp.rel_error


def test_threaded_resampled_run_matches_sequential():
    # Resampling methods with a wide pool: LeverageRFF's cross-validation
    # shares one pool across the grid, and worker threads must not change
    # a single record.
    methods = ("SurrogateRFF", "LeverageRFF")
    ds = _blob_dataset(seed=6)
    seq = run_experiment(
        _config(methods=methods, trials=2, pool_multiplier=4), dataset=ds
    )
    par = run_experiment(
        _config(methods=methods, trials=2, pool_multiplier=4, threads=2), dataset=ds
    )
    assert [(r.method, r.s, r.trial) for r in seq] == [
        (r.method, r.s, r.trial) for r in par
    ]
    for rs, rp in zip(seq, par):
        assert rs.accuracy == rp.accuracy
        assert rs.rel_error == rp.rel_error
        assert rs.lam == rp.lam


def _untimed(record):
    fields = dataclasses.asdict(record)
    del fields["gen_time_s"], fields["solve_time_s"]
    return fields


def _assert_threaded_runs_match(monkeypatch):
    # s = 256 frequencies from pools of 1024: the 1200-row training half,
    # the CV folds and the pool maps all span several feature-map blocks,
    # so helper threads fill blocks under both one and two trial threads.
    methods = ("SurrogateRFF", "LeverageRFF")
    ds = _blob_dataset(seed=7, n_pos=1700, n_neg=700)
    config = dict(methods=methods, s_multipliers=(128,), trials=1, pool_multiplier=4)
    seq = run_experiment(_config(**config), dataset=ds)
    par = run_experiment(_config(threads=2, **config), dataset=ds)
    monkeypatch.setattr(_threads, "_cpu_count", lambda: 1)
    inline = run_experiment(_config(**config), dataset=ds)
    assert len(seq) == 2
    assert [_untimed(r) for r in par] == [_untimed(r) for r in seq]
    assert [_untimed(r) for r in inline] == [_untimed(r) for r in seq]


def test_threaded_multi_block_maps_match_sequential_and_inline(monkeypatch):
    _assert_threaded_runs_match(monkeypatch)


def test_threaded_tiled_grams_match_sequential_and_inline(monkeypatch, blas_threads):
    # BLAS seen as running one thread and tiles narrowed to 128 columns,
    # so that the fold Grams (2u <= 512 columns) and LeverageRFF's pool
    # Gram (2048) are filled by tiles on the helper threads too.
    blas_threads(1)
    monkeypatch.setattr(linalg, "_GRAM_TILE", 128)
    widths = []
    real_gram = linalg.gram

    def recording_gram(Z):
        widths.append(Z.shape[1])
        return real_gram(Z)

    monkeypatch.setattr(linalg, "gram", recording_gram)
    _assert_threaded_runs_match(monkeypatch)
    assert 2048 in widths
    assert any(256 < m <= 512 for m in widths)


def test_timing_mode_skips_fit_and_error():
    records = run_experiment(_config(), dataset=_blob_dataset(), mode="timing")
    record = records[0]
    assert math.isnan(record.accuracy)
    assert math.isnan(record.solve_time_s)
    assert math.isnan(record.rel_error)
    assert record.gen_time_s >= 0.0
    # timing mode picks the smallest grid value instead of running CV
    assert record.lam == 0.05


def test_error_mode_skips_fit_only():
    record = run_experiment(_config(), dataset=_blob_dataset(), mode="error")[0]
    assert math.isnan(record.accuracy)
    assert math.isnan(record.solve_time_s)
    assert np.isfinite(record.rel_error)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        run_experiment(_config(), dataset=_blob_dataset(), mode="exhaustive")


def test_on_record_sees_records_incrementally():
    seen = []
    records = run_experiment(
        _config(trials=2), dataset=_blob_dataset(), mode="error", on_record=seen.append
    )
    assert seen == records


def test_gen_timer_brackets_feature_generation_only(monkeypatch):
    # Pad every stage with sleeps; only the generation pad may show up in
    # gen_time_s, and the fit pad must land in solve_time_s.
    real_generate = experiments.generate_features

    def padded_generate(*args, **kwargs):
        time.sleep(0.05)
        return real_generate(*args, **kwargs)

    def padded_cv(*args, **kwargs):
        time.sleep(0.15)
        return types.SimpleNamespace(chosen_lambda=0.05)

    def padded_fit(Z, y, lam, pool=None):
        time.sleep(0.15)
        return fit(Z, y, lam, pool)

    monkeypatch.setattr(experiments, "generate_features", padded_generate)
    monkeypatch.setattr(experiments, "cross_validate", padded_cv)
    monkeypatch.setattr(experiments, "fit", padded_fit)

    record = run_experiment(_config(), dataset=_blob_dataset())[0]
    assert 0.05 <= record.gen_time_s <= 0.12
    assert record.solve_time_s >= 0.15
    assert record.lam == 0.05


def test_generated_features_are_freed_before_predict(monkeypatch):
    # predict maps the test half; the trial's feature matrix (and every CV
    # fold's) must be dead by then, only its error-stage rows kept.
    real_generate, real_predict = experiments.generate_features, experiments.predict
    refs, alive = [], []

    def tracking_generate(*args, **kwargs):
        pool, Z = real_generate(*args, **kwargs)
        refs.append(weakref.ref(Z))
        return pool, Z

    def checking_predict(model, X):
        alive.append(sum(ref() is not None for ref in refs))
        return real_predict(model, X)

    monkeypatch.setattr(experiments, "generate_features", tracking_generate)
    monkeypatch.setattr(experiments, "predict", checking_predict)
    config = _config(methods=("RFF", "SurrogateRFF", "LeverageRFF"))
    records = run_experiment(config, dataset=_blob_dataset(), mode="full")
    assert alive == [0, 0, 0]
    assert all(0.0 < record.rel_error < 1.0 for record in records)


def test_config_validation():
    bad = [
        dict(trials=0),
        dict(s_multipliers=()),
        dict(s_multipliers=(0,)),
        dict(pool_multiplier=0),
        dict(lambda_grid=()),
        dict(lambda_grid=(-0.1,)),
        dict(folds=1),
        dict(sigma=0.0),
        dict(sigma=float("nan")),
        dict(methods=("RFF", "SVM")),
        dict(methods=()),
        dict(variant="both"),
        dict(emit="xml"),
        dict(threads=0),
        dict(err_subsample=1),
    ]
    for overrides in bad:
        with pytest.raises(ValueError):
            _config(**overrides)


def test_lambda_free_samplers_return_one_shared_pair():
    ds = _blob_dataset()
    spec = KernelSpec(1.0)
    grid = (0.05, 0.1, 1.0)
    for method in ("RFF", "QMC", "SurrogateRFF"):
        pairs = make_sampler(method, spec, 4, 8)(ds.X, ds.y, grid, 3)
        assert len(pairs) == len(grid)
        assert all(pair is pairs[0] for pair in pairs)
        pool, Z = pairs[0]
        want_pool, want_Z = generate_features(
            method, ds.X, ds.y, spec, 4, 8, "simplified", grid[0], 3
        )
        np.testing.assert_array_equal(pool.frequencies, want_pool.frequencies)
        np.testing.assert_array_equal(Z, want_Z)


@pytest.mark.parametrize("pool_size", [8, 32])
def test_leverage_sampler_pairs_equal_generation_at_each_lambda(pool_size):
    # One pool, one map and one pool Gram serve the whole grid; each
    # value's pair is still exactly what a one-value generation gives.
    ds = _blob_dataset(seed=4)
    spec = KernelSpec(1.0)
    grid = (0.001, 0.05, 0.1, 1.0)
    seed = np.random.SeedSequence(12)
    pairs = make_sampler("LeverageRFF", spec, 8, pool_size)(ds.X, ds.y, grid, seed)
    assert len(pairs) == len(grid)
    for lam, (pool, Z) in zip(grid, pairs):
        want_pool, want_Z = generate_features(
            "LeverageRFF", ds.X, ds.y, spec, 8, pool_size, "simplified", lam, seed
        )
        np.testing.assert_array_equal(pool.frequencies, want_pool.frequencies)
        np.testing.assert_array_equal(pool.weights, want_pool.weights)
        np.testing.assert_array_equal(Z, want_Z)


def test_generate_features_pool_provenance():
    ds = _blob_dataset()
    spec = KernelSpec(1.0)
    for method in experiments.METHODS:
        pool, Z = generate_features(
            method, ds.X, ds.y, spec, 4, 8, "simplified", 0.1, 3
        )
        assert pool.frequencies.shape == (4, 2)
        assert Z.shape == (ds.n, 8)
    with pytest.raises(ValueError, match="unknown method"):
        generate_features("SVM", ds.X, ds.y, spec, 4, 8, "simplified", 0.1, 3)


def test_features_after_feature_map_are_plain_arrays():
    # Only feature_map wraps its output; generation and the CV grid hand
    # back plain arrays, and a resampled one owns its (n, 2u) buffer.
    ds = _blob_dataset()
    spec = KernelSpec(1.0)
    for method in experiments.METHODS:
        pool, Z = generate_features(method, ds.X, ds.y, spec, 4, 8, "full", 0.1, 3)
        assert type(Z) is np.ndarray
        if method in ("SurrogateRFF", "LeverageRFF"):
            assert Z.base is None
    for pool, Z in erls_baseline_grid(ds.X, spec, 4, (0.01, 0.1, 1.0), 8, seed=3):
        assert type(Z) is np.ndarray and Z.base is None
    mapped = feature_map(ds.X, sample_mc(spectral_density(spec, ds.dim), 4, 3))
    assert type(mapped.entries) is np.ndarray
    _, Z = generate_features("RFF", ds.X, ds.y, spec, 4, 8, "full", 0.1, 3)
    np.testing.assert_array_equal(mapped.entries, Z)


def test_csv_report_layout():
    records = run_experiment(_config(), dataset=_blob_dataset())
    text = render_report(records, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "RFF" and fields[1] == "4" and fields[2] == "0"
    assert lines[-1].startswith("# summary method=RFF s=4 trials=1")
    assert "accuracy=" in lines[-1] and "±" in lines[-1]
    # rendering is a pure function of the records
    assert render_report(records, fmt="csv") == text


def test_csv_report_round_trip(tmp_path):
    records = run_experiment(_config(trials=2), dataset=_blob_dataset())
    path = emit_report(records, tmp_path / "report.csv", fmt="csv")
    parsed = read_report(path)
    assert len(parsed) == len(records)
    for orig, back in zip(records, parsed):
        assert (back.method, back.s, back.trial) == (orig.method, orig.s, orig.trial)
        assert back.accuracy == pytest.approx(orig.accuracy, rel=1e-8)
        assert back.rel_error == pytest.approx(orig.rel_error, rel=1e-8)
        assert back.lam == pytest.approx(orig.lam, rel=1e-8)


def test_jsonl_report_round_trips_nan_as_null(tmp_path):
    records = run_experiment(_config(), dataset=_blob_dataset(), mode="timing")
    text = render_report(records, fmt="jsonl")
    assert '"accuracy": null' in text
    path = emit_report(records, tmp_path / "report.jsonl", fmt="jsonl")
    back = read_report(path)[0]
    assert math.isnan(back.accuracy) and math.isnan(back.solve_time_s)
    assert back.gen_time_s == pytest.approx(records[0].gen_time_s, rel=1e-8)


def test_render_report_validation():
    with pytest.raises(ValueError, match="no records"):
        render_report([])
    records = run_experiment(_config(), dataset=_blob_dataset(), mode="timing")
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(records, fmt="tsv")


def test_read_report_rejects_foreign_files(tmp_path):
    wrong = tmp_path / "other.csv"
    wrong.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized report header"):
        read_report(wrong)
    truncated = tmp_path / "broken.csv"
    truncated.write_text(REPORT_HEADER + "\nRFF,4,0,0.5\n")
    with pytest.raises(ValueError, match="malformed row"):
        read_report(truncated)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="empty report"):
        read_report(empty)


def test_failure_context_names_the_task():
    # a 1-point dataset cannot be split, and the error says which task died
    tiny = Dataset(np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(ValueError, match=r"\[method=RFF s=4 trial=0\]"):
        run_experiment(_config(), dataset=tiny, mode="timing")
