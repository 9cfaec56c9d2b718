"""Dataset ingestion: LIBSVM and CSV parsing, [0,1] min-max scaling, binary
label mapping, and train/test splitting.

Loaders normalize features over the whole file at load time (the
convention of the benchmark protocol this package reproduces); when a
dataset ships as a given train/test pair, :func:`load_dataset_pair`
normalizes the test file with the training file's statistics instead.
Labels must take exactly two distinct values and are mapped to {-1, +1}
by sorted order (numerically when both parse as numbers, lexically
otherwise).
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

RANDOM_HALF = "random-half"
GIVEN_PARTITION = "given"

_SPLIT_POLICIES = (RANDOM_HALF, GIVEN_PARTITION)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with {-1,+1} labels, optionally a held-out test part."""

    X: np.ndarray
    y: np.ndarray
    given_test: "Dataset" = field(default=None, repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError(
                f"feature matrix shape {X.shape} does not match {y.shape[0]} labels"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class MinMaxNormalizer:
    """Per-coordinate affine map onto [0,1]; constant coordinates map to 0."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def fit(cls, X):
        X = np.asarray(X, dtype=float)
        return cls(lo=X.min(axis=0), hi=X.max(axis=0))

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        scaled = (X - self.lo) / safe
        return np.where(span > 0, scaled, 0.0)


def _read_lines(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return text.splitlines()


def _map_labels(raw, path):
    distinct = sorted(set(raw))
    if len(distinct) != 2:
        raise DataError(
            f"{path}: expected exactly 2 label values, found {len(distinct)}: "
            f"{distinct[:5]}"
        )
    mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
    return np.array([mapping[value] for value in raw])


def _label_key(token):
    # Numeric labels sort numerically, anything else lexically; the two
    # kinds never mix within one file in practice, but a tuple key keeps
    # sorting well-defined if they do.
    try:
        return (0, float(token), "")
    except ValueError:
        return (1, 0.0, token)


def _parse_libsvm(lines, path):
    labels, rows = [], []
    max_index = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            float(tokens[0])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad label {tokens[0]!r}") from exc
        labels.append(_label_key(tokens[0]))
        pairs = []
        for token in tokens[1:]:
            index, _, value = token.partition(":")
            try:
                index = int(index)
                value = float(value)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad feature {token!r}") from exc
            if index < 1:
                raise DataError(f"{path}:{lineno}: feature index {index} < 1")
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite feature {token!r}")
            pairs.append((index, value))
            max_index = max(max_index, index)
        if len({index for index, _ in pairs}) != len(pairs):
            raise DataError(f"{path}:{lineno}: duplicate feature index")
        rows.append(pairs)
    if not rows:
        raise DataError(f"{path}: no data rows")
    X = np.zeros((len(rows), max_index))
    for i, pairs in enumerate(rows):
        for index, value in pairs:
            X[i, index - 1] = value
    return X, _map_labels(labels, path)


def _parse_csv(lines, path):
    labels, rows = [], []
    width = None
    seen_content = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        first_content = not seen_content
        seen_content = True
        tokens = [token.strip() for token in line.split(",")]
        if len(tokens) < 2:
            raise DataError(f"{path}:{lineno}: need at least one feature and a label")
        try:
            features = [float(token) for token in tokens[:-1]]
        except ValueError as exc:
            if first_content:
                # Non-numeric feature fields on the first content line: a header.
                continue
            raise DataError(f"{path}:{lineno}: bad feature value") from exc
        if not all(map(math.isfinite, features)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        if width is None:
            width = len(features)
        elif len(features) != width:
            raise DataError(
                f"{path}:{lineno}: {len(features)} features, expected {width}"
            )
        rows.append(features)
        labels.append(_label_key(tokens[-1]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows), _map_labels(labels, path)


_PARSERS = {"libsvm": _parse_libsvm, "csv": _parse_csv}


def load_dataset(path, fmt="csv", normalize=True):
    """Load and normalize one data file.

    ``fmt`` is "csv" (features then label, comma-separated, optional
    header) or "libsvm" (label then 1-based index:value pairs).  A
    non-finite feature value (nan, inf) is a DataError naming its line.
    """
    parser = _PARSERS.get(fmt)
    if parser is None:
        raise DataError(f"unknown dataset format {fmt!r}")
    X, y = parser(_read_lines(path), Path(path))
    if normalize:
        X = MinMaxNormalizer.fit(X).apply(X)
    return Dataset(X, y)


def load_dataset_pair(train_path, test_path, fmt="csv"):
    """Load a given train/test partition as one Dataset.

    Both files are normalized with the training file's min/max statistics,
    so test features may fall outside [0,1] where the test range is wider.
    """
    parser = _PARSERS.get(fmt)
    if parser is None:
        raise DataError(f"unknown dataset format {fmt!r}")
    X_train, y_train = parser(_read_lines(train_path), Path(train_path))
    X_test, y_test = parser(_read_lines(test_path), Path(test_path))
    if X_train.shape[1] != X_test.shape[1]:
        raise DataError(
            f"train file has {X_train.shape[1]} features, "
            f"test file has {X_test.shape[1]}"
        )
    normalizer = MinMaxNormalizer.fit(X_train)
    test = Dataset(normalizer.apply(X_test), y_test)
    return Dataset(normalizer.apply(X_train), y_train, given_test=test)


def split(dataset, policy=RANDOM_HALF, seed=0):
    """Partition a dataset into (train, test).

    RandomHalf permutes with the given seed and takes the first floor(n/2)
    rows for training; GivenPartition returns the dataset's attached test
    part and ignores the seed.
    """
    if policy not in _SPLIT_POLICIES:
        raise ValueError(f"unknown split policy {policy!r}")
    if policy == GIVEN_PARTITION:
        if dataset.given_test is None:
            raise DataError(
                "split policy 'given' needs a dataset loaded as a train/test pair"
            )
        return Dataset(dataset.X, dataset.y), dataset.given_test
    if dataset.n < 2:
        raise ValueError("cannot split fewer than 2 points")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n)
    half = dataset.n // 2
    train, test = order[:half], order[half:]
    return (
        Dataset(dataset.X[train], dataset.y[train]),
        Dataset(dataset.X[test], dataset.y[test]),
    )
