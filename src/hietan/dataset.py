"""Binary instance data: loading, hierarchy-consistency checks, folds, synthesis.

The on-disk format is a plain CSV: a header row of feature names ending in a
``class`` column, then rows of ``0``/``1`` tokens. No quoting; LF or CRLF.
A dataset is hierarchy-consistent when every instance that carries value 1 for
a feature also carries value 1 for all of that feature's ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
    TooFewInstances,
)
from .hierarchy import FeatureDag, _iter_bits, read_utf8


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable instance matrix with binary features and binary labels."""

    values: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = ()
    class_names: tuple[str, str] = ("0", "1")

    def __post_init__(self):
        vals = _binary_copy(self.values, "feature values")
        labs = _binary_copy(self.labels, "class labels")
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a 2-d instance-by-feature matrix")
        if labs.shape != (vals.shape[0],):
            raise DimensionMismatch(
                f"{vals.shape[0]} instances but {labs.shape[0]} labels"
            )
        names = tuple(self.feature_names)
        if not names:
            names = tuple(f"f{i}" for i in range(vals.shape[1]))
        if len(names) != vals.shape[1]:
            raise DimensionMismatch(
                f"{len(names)} feature names for {vals.shape[1]} columns"
            )
        vals.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _class_stats(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Per class: (Gram matrix, column sums, row count) of its rows, as
        int64. The arrays are read-only, so this is computed once per dataset.

        The products run in float64, where NumPy uses BLAS (an int64 matmul
        does not), and are exact: every partial sum is an integer at most
        n_instances < 2**53."""
        X = self.values.astype(np.float64)
        stats = []
        for y in (0, 1):
            Xy = X[self.labels == y]
            gram, ones = Xy.T @ Xy, Xy.sum(axis=0)
            stats.append((gram.astype(np.int64), ones.astype(np.int64), Xy.shape[0]))
        return tuple(stats)

    def _pair_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(m, 2, 2, 2) counts over (x_i, x_j, y) for index arrays ``i``,
        ``j``; any order, and ``i == j`` gives a diagonal table."""
        tables = np.empty((len(i), 2, 2, 2), dtype=np.int64)
        for y, (gram, ones, total) in enumerate(self._class_stats):
            n11 = gram[i, j]
            n10 = ones[i] - n11
            n01 = ones[j] - n11
            tables[:, 1, 1, y] = n11
            tables[:, 1, 0, y] = n10
            tables[:, 0, 1, y] = n01
            tables[:, 0, 0, y] = total - n11 - n10 - n01
        return tables


def _binary_copy(array, what: str) -> np.ndarray:
    """A private C-contiguous ``uint8`` copy of ``array``, whose every value
    must equal 0 or 1 (so 0.7, 256 and NaN are rejected, not cast)."""
    a = np.asarray(array)
    binary = (a == 0) | (a == 1)
    if not binary.all():
        k = int(np.argmin(binary))
        bad = a.reshape(-1)[k : k + 1].tolist()[0]
        raise NonBinaryValue(f"{what} must be 0 or 1, got {bad!r}")
    return np.array(a, dtype=np.uint8, order="C")


def _read_csv(path, class_required: bool):
    """Parse a CSV file per the grammar above into (names, values, labels), with
    line numbers in errors; labels are ``None`` if an optional class column is absent."""
    text = read_utf8(path)
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}: missing header row", line=1)
    header = [t.strip() for t in lines[0].split(",")]
    labelled = header[-1] == "class"
    if class_required and not labelled:
        raise MissingClassColumn(
            f"{path}: last header column must be 'class', got {header[-1]!r}"
        )
    names = header[:-1] if labelled else header
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate feature names in header", line=1)
    n_features = len(names)
    width = n_features + labelled

    rows: list[list[int]] = []
    labels: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        tokens = [t.strip() for t in raw.split(",")]
        if len(tokens) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} values, got {len(tokens)}",
                line=lineno,
            )
        for tok in tokens:
            if tok not in ("0", "1"):
                raise NonBinaryValue(
                    f"{path}:{lineno}: value {tok!r} is not 0 or 1"
                )
        rows.append([int(t) for t in tokens[:n_features]])
        if labelled:
            labels.append(int(tokens[-1]))

    values = np.array(rows, dtype=np.uint8).reshape(len(rows), n_features)
    return tuple(names), values, np.array(labels, dtype=np.uint8) if labelled else None


def load_dataset(path) -> Dataset:
    """Load a labelled dataset; the ``class`` column is mandatory."""
    names, values, labels = _read_csv(path, class_required=True)
    return Dataset(values, labels, names)


def load_instances(path, feature_names: Sequence[str]) -> np.ndarray:
    """Load instances to classify: the ``class`` column is optional and
    ignored, and the header must list exactly ``feature_names`` in order."""
    names, values, _ = _read_csv(path, class_required=False)
    if names != tuple(feature_names):
        raise ParseError(f"{path}: header does not match the model's feature names", line=1)
    return values


def save_dataset(ds: Dataset, path) -> None:
    lines = [",".join(list(ds.feature_names) + ["class"])]
    for row, label in zip(ds.values, ds.labels):
        lines.append(",".join(str(int(v)) for v in row) + f",{int(label)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def subset(ds: Dataset, indices) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(ds.values[idx], ds.labels[idx], ds.feature_names, ds.class_names)


def validate_propagation(ds: Dataset, dag: FeatureDag) -> list[tuple[int, int, int]]:
    """Every (instance, feature, ancestor) triple where the feature is 1 but
    the ancestor is 0. An empty list means the dataset is consistent."""
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    violations: list[tuple[int, int, int]] = []
    V = ds.values
    for f in range(ds.n_features):
        for a in _iter_bits(dag.ancestor_bits[f]):
            bad = np.flatnonzero((V[:, f] == 1) & (V[:, a] == 0))
            violations.extend((int(r), f, a) for r in bad)
    violations.sort()
    return violations


def _closure_matrix(dag: FeatureDag) -> np.ndarray:
    m = np.eye(dag.n_features, dtype=np.int32)
    for f in range(dag.n_features):
        for a in _iter_bits(dag.ancestor_bits[f]):
            m[f, a] = 1
    return m


def repair_propagation(ds: Dataset, dag: FeatureDag) -> Dataset:
    """Set every ancestor of a 1-valued feature to 1, instance by instance.

    Idempotent because the ancestor sets are transitively closed.
    """
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    hit = ds.values.astype(np.int32) @ _closure_matrix(dag)
    return Dataset(
        (hit > 0).astype(np.uint8), ds.labels, ds.feature_names, ds.class_names
    )


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Per-instance fold indices for k-fold cross-validation."""

    fold_of: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified folds: shuffle each class under the seed, then
    deal instances round-robin with a fold pointer shared across classes.

    The shared pointer keeps per-class counts within 1 of each other across
    folds and leaves no fold empty whenever ``k <= n_instances``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if ds.n_instances < k:
        raise TooFewInstances(
            f"cannot split {ds.n_instances} instances into {k} folds"
        )
    counts = np.bincount(ds.labels, minlength=2)
    if int(counts.min()) == 0:
        raise TooFewInstances("each class needs at least one instance")
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(ds.n_instances, dtype=np.int64)
    pos = 0
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        for i in idx:
            fold_of[i] = pos % k
            pos += 1
    return FoldAssignment(fold_of, k)


@dataclass(frozen=True)
class PlantedRule:
    """Label rule planted by the synthetic generator: XOR of two features."""

    feature_a: int
    feature_b: int

    def labels_for(self, values: np.ndarray) -> np.ndarray:
        return (values[:, self.feature_a] ^ values[:, self.feature_b]).astype(np.uint8)


def generate_synthetic_with_rule(
    dag: FeatureDag,
    n_instances: int,
    leaf_density: float,
    class_noise: float,
    seed: int,
    feature_names: Sequence[str] = (),
) -> tuple[Dataset, PlantedRule]:
    """Sample a hierarchy-consistent dataset and return the planted label rule.

    Sink features (no descendants) are annotated independently with probability
    ``leaf_density``; the 1s then propagate to all ancestors. Labels are the
    XOR of two randomly drawn features, and each label is flipped with
    probability ``class_noise``.

    The rule must be learnable and must respect the hierarchy, so the draw
    prefers columns whose marginal is not extreme and retries a few times to
    get a hierarchically unrelated pair (a rule pitting a feature against its
    own ancestor is partly determined by the propagation constraint itself).
    """
    for name, p in (("leaf_density", leaf_density), ("class_noise", class_noise)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if dag.n_features < 2:
        raise ValueError("need at least two features to plant a label rule")
    rng = np.random.default_rng(seed)
    n_feat = dag.n_features
    values = np.zeros((n_instances, n_feat), dtype=np.uint8)
    sinks = list(dag.sink_features)
    values[:, sinks] = rng.random((n_instances, len(sinks))) < leaf_density
    consistent = repair_propagation(
        Dataset(values, np.zeros(n_instances, dtype=np.uint8), tuple(feature_names)),
        dag,
    )
    V = consistent.values

    means = V.mean(axis=0) if n_instances else np.zeros(n_feat)
    balanced = [i for i in range(n_feat) if 0.2 <= means[i] <= 0.8]
    nonconst = [i for i in range(n_feat) if 0.0 < means[i] < 1.0]
    candidates = balanced if len(balanced) >= 2 else (
        nonconst if len(nonconst) >= 2 else list(range(n_feat))
    )
    a, b = sorted(int(x) for x in rng.choice(candidates, size=2, replace=False))
    for _ in range(100):
        if not dag.hierarchically_related(a, b):
            break
        a, b = sorted(int(x) for x in rng.choice(candidates, size=2, replace=False))
    rule = PlantedRule(a, b)

    labels = rule.labels_for(V)
    flips = rng.random(n_instances) < class_noise
    labels = (labels ^ flips).astype(np.uint8)
    return Dataset(V, labels, consistent.feature_names), rule


def generate_synthetic(
    dag: FeatureDag,
    n_instances: int,
    leaf_density: float,
    class_noise: float,
    seed: int,
    feature_names: Sequence[str] = (),
) -> Dataset:
    ds, _ = generate_synthetic_with_rule(
        dag, n_instances, leaf_density, class_noise, seed, feature_names
    )
    return ds
