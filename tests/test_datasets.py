import numpy as np
import pytest

from rffkrr import (
    GIVEN_PARTITION,
    RANDOM_HALF,
    DataError,
    Dataset,
    MinMaxNormalizer,
    load_dataset,
    load_dataset_pair,
    split,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_libsvm_sparse_layout(tmp_path):
    path = _write(tmp_path, "a.libsvm", "1 1:0.5 3:2.0\n-1 2:1.0\n")
    ds = load_dataset(path, fmt="libsvm", normalize=False)
    np.testing.assert_array_equal(ds.X, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])


def test_libsvm_skips_blank_and_comment_lines(tmp_path):
    path = _write(tmp_path, "a.libsvm", "# header\n\n1 1:1.0\n\n-1 1:2.0\n")
    ds = load_dataset(path, fmt="libsvm", normalize=False)
    assert ds.n == 2


def test_normalization_maps_columns_to_unit_range(tmp_path):
    path = _write(tmp_path, "a.csv", "0.0,5.0,1\n2.0,7.0,1\n1.0,6.0,2\n")
    ds = load_dataset(path)
    np.testing.assert_allclose(ds.X.min(axis=0), [0.0, 0.0])
    np.testing.assert_allclose(ds.X.max(axis=0), [1.0, 1.0])
    np.testing.assert_allclose(ds.X[2], [0.5, 0.5])


def test_constant_column_normalizes_to_zero(tmp_path):
    path = _write(tmp_path, "a.csv", "3.0,1.0,1\n3.0,2.0,2\n")
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.X[:, 0], [0.0, 0.0])


def test_label_mappings(tmp_path):
    cases = [
        ("0,1\n1,0\n1,1\n", [1.0, -1.0, 1.0]),  # {0,1}
        ("0,g\n1,h\n1,g\n", [-1.0, 1.0, -1.0]),  # strings, lexical order
        ("0,-1\n1,1\n", [-1.0, 1.0]),  # already signed
        ("0,1\n1,2\n", [-1.0, 1.0]),  # {1,2}
    ]
    for i, (text, expected) in enumerate(cases):
        ds = load_dataset(_write(tmp_path, f"label{i}.csv", text))
        np.testing.assert_array_equal(ds.y, expected)


def test_rejects_non_binary_labels(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1\n1,2\n2,3\n")
    with pytest.raises(DataError, match="2 label values"):
        load_dataset(path)
    single = _write(tmp_path, "b.csv", "0,1\n1,1\n")
    with pytest.raises(DataError, match="2 label values"):
        load_dataset(single)


def test_csv_malformed_feature_reports_line(tmp_path):
    path = _write(tmp_path, "a.csv", "0.0,1\nx,2\n")
    with pytest.raises(DataError, match=r":2: bad feature"):
        load_dataset(path)


def test_csv_short_row_rejected(tmp_path):
    path = _write(tmp_path, "a.csv", "0.0,1\n1.0\n")
    with pytest.raises(DataError, match=r":2"):
        load_dataset(path)


def test_csv_width_mismatch_reports_line(tmp_path):
    path = _write(tmp_path, "a.csv", "0.0,1.0,1\n0.0,2\n")
    with pytest.raises(DataError, match=r":2: 1 features, expected 2"):
        load_dataset(path)


def test_libsvm_malformed_lines(tmp_path):
    bad = {
        "idx.libsvm": ("1 x:1.0\n", "bad feature"),
        "dup.libsvm": ("1 1:1.0 1:2.0\n", "duplicate"),
        "low.libsvm": ("1 0:1.0\n", "< 1"),
        "lab.libsvm": ("abc 1:1.0\n", "bad label"),
    }
    for name, (text, message) in bad.items():
        with pytest.raises(DataError, match=message):
            load_dataset(_write(tmp_path, name, text), fmt="libsvm")


def test_non_finite_features_rejected(tmp_path):
    # float() parses nan and inf; left in, a NaN zeroes its whole column in
    # MinMaxNormalizer and an Inf reaches feature_map as a ValueError.
    cases = {
        "nan.csv": ("0.0,1\nnan,2\n", "csv"),
        "inf.csv": ("0.0,1\n-inf,2\n", "csv"),
        "nan.libsvm": ("1 1:0.5\n-1 1:nan\n", "libsvm"),
    }
    for name, (text, fmt) in cases.items():
        with pytest.raises(DataError, match=r":2: non-finite feature"):
            load_dataset(_write(tmp_path, name, text), fmt=fmt)


def test_csv_header_detection(tmp_path):
    with_header = _write(tmp_path, "h.csv", "f1,f2,label\n0,1,1\n1,0,2\n")
    ds = load_dataset(with_header, normalize=False)
    assert ds.n == 2
    blank_then_header = _write(tmp_path, "b.csv", "\n\nf1,f2,label\n0,1,1\n1,0,2\n")
    assert load_dataset(blank_then_header, normalize=False).n == 2
    headerless = _write(tmp_path, "p.csv", "0,1,1\n1,0,2\n")
    assert load_dataset(headerless, normalize=False).n == 2


def test_empty_file_rejected(tmp_path):
    path = _write(tmp_path, "a.csv", "\n\n")
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_dataset(tmp_path / "nope.csv")


def test_unknown_format_rejected(tmp_path):
    path = _write(tmp_path, "a.csv", "0,1\n1,2\n")
    with pytest.raises(DataError, match="unknown dataset format"):
        load_dataset(path, fmt="arff")
    with pytest.raises(DataError, match="unknown dataset format"):
        load_dataset_pair(path, path, fmt="arff")


def test_random_half_split_partitions_rows():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.uniform(size=(9, 2)), np.where(rng.uniform(size=9) > 0.5, 1.0, -1.0))
    train, test = split(ds, RANDOM_HALF, seed=5)
    assert train.n == 4 and test.n == 5
    combined = np.concatenate([train.X, test.X])
    # every original row appears exactly once across the two parts
    matches = (combined[:, None, :] == ds.X[None, :, :]).all(axis=2)
    assert (matches.sum(axis=0) == 1).all()


def test_random_half_split_deterministic():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(size=(8, 3)), np.where(rng.uniform(size=8) > 0.5, 1.0, -1.0))
    a_train, a_test = split(ds, RANDOM_HALF, seed=7)
    b_train, b_test = split(ds, RANDOM_HALF, seed=7)
    np.testing.assert_array_equal(a_train.X, b_train.X)
    np.testing.assert_array_equal(a_test.y, b_test.y)
    c_train, _ = split(ds, RANDOM_HALF, seed=8)
    assert not np.array_equal(a_train.X, c_train.X)


def test_given_partition_round_trip(tmp_path):
    train_file = _write(tmp_path, "train.csv", "0.0,1\n2.0,2\n")
    test_file = _write(tmp_path, "test.csv", "1.0,1\n4.0,2\n")
    ds = load_dataset_pair(train_file, test_file)
    train, test = split(ds, GIVEN_PARTITION)
    np.testing.assert_array_equal(train.X, [[0.0], [1.0]])
    # test features use the training min/max, so they can exceed 1
    np.testing.assert_array_equal(test.X, [[0.5], [2.0]])
    np.testing.assert_array_equal(test.y, [-1.0, 1.0])


def test_given_partition_needs_pair():
    ds = Dataset(np.zeros((3, 1)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DataError, match="train/test pair"):
        split(ds, GIVEN_PARTITION)


def test_split_validation():
    ds = Dataset(np.zeros((3, 1)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="unknown split policy"):
        split(ds, "thirds")
    tiny = Dataset(np.zeros((1, 1)), np.array([1.0]))
    with pytest.raises(ValueError, match="fewer than 2"):
        split(tiny, RANDOM_HALF)


def test_pair_width_mismatch(tmp_path):
    train_file = _write(tmp_path, "train.csv", "0.0,1.0,1\n2.0,3.0,2\n")
    test_file = _write(tmp_path, "test.csv", "1.0,1\n4.0,2\n")
    with pytest.raises(DataError, match="features"):
        load_dataset_pair(train_file, test_file)


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4))


def test_normalizer_apply_matches_formula():
    X = np.array([[0.0, 10.0], [4.0, 10.0], [2.0, 10.0]])
    norm = MinMaxNormalizer.fit(X)
    out = norm.apply(np.array([[3.0, 10.0]]))
    np.testing.assert_allclose(out, [[0.75, 0.0]])
