"""Classifier parameters and prediction on top of a learned dependency tree.

The class is a parent of every feature. Root features use P(x | y); features
with a tree parent use P(x | y, parent value). All tables are maximum
likelihood with additive smoothing per cell, and prediction accumulates in
log space (GO-style datasets have hundreds of features, so products in
probability space underflow). One kernel, ``_log_posteriors``, sums the log
terms of every prediction: eager rows gather theirs from the classifier's
cached logs, ``_lazy_predict`` builds its own from the training statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from .dataset import Dataset, _first_non_binary
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    IndexOutOfRange,
    NonBinaryValue,
    ParseError,
)
from .mutual_info import check_smoothing
from .tree import DependencyTree


@dataclass(frozen=True)
class FittedClassifier:
    tree: DependencyTree
    class_prior: np.ndarray
    cpts: dict[int, np.ndarray]  # root: (y, x); parented: (y, parent value, x)
    smoothing: float
    active_features: tuple[int, ...]
    feature_names: tuple[str, ...]

    @property
    def n_features(self) -> int:
        return self.tree.n_features

    @cached_property
    def _log_cpts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(logs, sources, features, first)``. ``logs`` is (m + 1, 2, 2, 2)
        over (x_source, x, y): row 0 the log prior, row k the log CPT of the
        k-th active feature, which reads x_source at column ``sources[k]``
        (its parent, or itself for a root) and x at ``features[k]``. A root's
        (y, x) CPT repeats over x_source and the prior over both; the prior
        reads a trailing 0 column. ``first[0, k]`` = 4k, row k's first pair in
        ``logs.reshape(-1, 2)``. Each prior and CPT cell is logged once.
        Derived from the public fields only; ``fit`` and ``model_from_dict``
        make their arrays read-only, so this is built once per classifier."""
        n = self.n_features
        active = self.active_features
        parents = [self.tree.parent_of[f] for f in active]
        flat = _logs(np.concatenate([self.class_prior] + [self.cpts[f].ravel() for f in active]))
        # Each row's strides over (x_source, x, y) in its cells of ``flat``:
        # the prior's (y), a root's (y, x), a parented feature's (y, x_parent, x).
        strides = np.array(
            [(0, 0, 1)] + [(0, 1, 2) if p is None else (2, 1, 4) for p in parents], dtype=np.intp
        )
        sizes = 2 * strides[:, 2]
        cells = (np.cumsum(sizes) - sizes)[:, None] + strides @ np.indices((2, 2, 2)).reshape(3, 8)
        sources = [n] + [f if p is None else p for f, p in zip(active, parents)]
        return (
            flat[cells].reshape(-1, 2, 2, 2),
            np.array(sources, dtype=np.intp),
            np.array((n,) + active, dtype=np.intp),
            np.arange(0, 4 * len(sources), 4)[None, :],
        )

    def _log_terms(self, X: np.ndarray) -> np.ndarray:
        """(rows, m + 1, 2) log terms of the 0/1 rows of ``X``: the log prior,
        then each active feature's CPT log in ``active_features`` order."""
        logs, sources, features, first = self._log_cpts
        columns = np.zeros((X.shape[0], X.shape[1] + 1), dtype=np.intp)
        columns[:, :-1] = X  # the features, then the prior's 0
        pair = columns.take(sources, axis=1)
        pair += pair
        pair += columns.take(features, axis=1)
        pair += first  # row k's pair at (x_source, x) is 4k + 2 x_source + x
        return logs.reshape(-1, 2).take(pair, axis=0)


@dataclass(frozen=True)
class Prediction:
    label: int
    log_posterior: tuple[float, float]


def _smoothed(counts: np.ndarray, rows, smoothing: float) -> np.ndarray:
    """The smoothed estimate ``(count + s) / (row + 2s)`` of every cell, as
    float64; a cell whose row has zero mass under zero smoothing is 0 rather
    than NaN. ``rows`` broadcasts against ``counts``."""
    num = counts + smoothing
    den = rows + 2.0 * smoothing
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _safe_rows(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Per-row (last axis) additive-smoothing normalisation."""
    return _smoothed(counts, counts.sum(axis=-1, keepdims=True), smoothing)


def _class_prior(ds: Dataset, smoothing: float) -> np.ndarray:
    """P(y) for y = 0, 1, smoothed like every CPT cell."""
    totals = np.array([total for _, _, total in ds._class_stats], dtype=np.float64)
    return _smoothed(totals, ds.n_instances, smoothing)


def _logs(cells: np.ndarray) -> np.ndarray:
    """Scalar ``math.log`` of every cell (``np.log`` differs in the last
    bit); log 0 is -inf."""
    out = np.full(cells.shape, -np.inf)
    live = cells > 0.0
    out[live] = list(map(math.log, cells[live].tolist()))
    return out


def fit(
    ds: Dataset,
    tree: DependencyTree,
    active_features: Optional[Iterable[int]] = None,
    smoothing: float = 1.0,
) -> FittedClassifier:
    """Estimate the prior and one CPT per active feature."""
    smoothing = check_smoothing(smoothing)
    if ds.n_instances == 0:
        raise EmptyTrainingSet("cannot fit on zero instances")
    if tree.n_features != ds.n_features:
        raise DimensionMismatch(
            f"tree covers {tree.n_features} features, dataset has {ds.n_features}"
        )
    if active_features is None:
        active = tuple(range(ds.n_features))
    else:
        active = tuple(sorted(set(int(f) for f in active_features)))
    for f in active:
        if not 0 <= f < ds.n_features:
            raise IndexOutOfRange(f"active feature {f} outside [0, {ds.n_features})")
    parents = [tree.parent_of[f] for f in active]
    active_set = set(active)
    for f, parent in zip(active, parents):
        if parent is not None and parent not in active_set:
            raise ValueError(f"feature {f} depends on inactive feature {parent}")

    prior = _class_prior(ds, smoothing)
    prior.setflags(write=False)

    # One gather from the dataset's cached statistics: (parent, f) tables, and
    # for a root the diagonal (f, f) table, whose copy axis sums out to (y, x).
    sources = [f if parent is None else parent for f, parent in zip(active, parents)]
    tables = ds._pair_counts(np.array(sources, dtype=np.intp), np.array(active, dtype=np.intp))
    counts = np.moveaxis(tables, 3, 1).astype(np.float64, order="C")  # (m, y, x_parent, x)
    parented = _safe_rows(counts, smoothing)
    roots = _safe_rows(counts.sum(axis=2), smoothing)
    parented.setflags(write=False)  # the CPTs below are views and inherit this
    roots.setflags(write=False)
    cpts = {
        f: roots[k] if parent is None else parented[k]
        for k, (f, parent) in enumerate(zip(active, parents))
    }

    return FittedClassifier(
        tree=tree,
        class_prior=prior,
        cpts=cpts,
        smoothing=smoothing,
        active_features=active,
        feature_names=ds.feature_names,
    )


# Rows per chunk in ``_log_posteriors``. A lazy chunk peaks at about 260
# bytes per active cell (135 MB for 512 rows of 1000 active features), most of
# it count tables and scalar logs; an eager one at about 56 bytes per term.
_CHUNK_ROWS = 512


def _log_posteriors(terms: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """(rows, 2) log posteriors, ``_CHUNK_ROWS`` rows at a time: ``arrays``
    hold one row per instance, ``terms`` turns a chunk of rows of each into
    their (rows, k, 2) log terms, and each class's sum runs strictly left to
    right along k. Every prediction sums its terms here."""
    if len(arrays[0]) > _CHUNK_ROWS:
        return np.concatenate([
            _log_posteriors(terms, *(a[start : start + _CHUNK_ROWS] for a in arrays))
            for start in range(0, len(arrays[0]), _CHUNK_ROWS)
        ])
    # accumulate adds along axis 1 in order; a reduction may sum pairwise and
    # change the bits.
    return np.add.accumulate(terms(*arrays), axis=1)[:, -1]


def _lazy_predict(
    train: Dataset, X: np.ndarray, parents: np.ndarray, active: np.ndarray, smoothing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (uint8) and (rows, 2) log posteriors of the 0/1 rows of ``X``,
    each under its own tree: ``parents[r, f]`` is f's parent in row r's tree
    or -1 for a root, and ``active[r]`` masks the features row r is scored
    on; an active feature's parent must be active, as in ``hie_mst_lite``'s
    output. Row r is bit for bit ``predict(fit(train, tree_r, active_r,
    smoothing), X[r])``, but no classifier is built: per class, each active
    feature reads from ``train``'s cached statistics only the one cell that
    row r selects, smoothed as ``fit`` does and logged as ``predict`` does.
    Row r's n + 1 terms are the log prior and then one per feature in index
    order, which is ``active_features`` order; an inactive feature adds 0.0,
    which changes no value the sum can hold: every term is <= 0 or -inf, and
    none is -0.0. Ties go to class 0."""
    smoothing = check_smoothing(smoothing)
    prior = _logs(_class_prior(train, smoothing))

    def terms(X: np.ndarray, parents: np.ndarray, active: np.ndarray) -> np.ndarray:
        at, features = np.nonzero(active)  # row by row, features ascending
        source = parents[at, features]
        root = source < 0
        source[root] = features[root]  # a root reads its own diagonal table
        cell = np.arange(features.size)
        # The CPT row each cell selects, over (x_feature, y); a root's row is
        # the diagonal's, whose mass is its count rather than the class total.
        rows = train._pair_counts(source, features)[cell, X[at, source]]
        count = rows[cell, X[at, features]]  # (cells, y)
        mass = rows.sum(axis=1)
        mass[root] = [total for _, _, total in train._class_stats]
        out = np.zeros((X.shape[0], X.shape[1] + 1, 2))
        out[:, 0] = prior
        out[at, features + 1] = _logs(
            _smoothed(count.astype(np.float64), mass.astype(np.float64), smoothing)
        )
        return out

    log_post = _log_posteriors(terms, X, parents, active)
    return (log_post[:, 0] < log_post[:, 1]).astype(np.uint8), log_post


def predict(clf: FittedClassifier, instance) -> Prediction:
    """Log-posterior for both classes; ties break toward class 0.

    The batch kernel of ``predict_batch`` on one row."""
    x = np.asarray(instance)
    if x.shape != (clf.n_features,):
        raise DimensionMismatch(
            f"instance has shape {x.shape}, classifier expects {clf.n_features} values"
        )
    f = _first_non_binary(x)
    if f is not None:
        raise NonBinaryValue(f"feature {f} has value {x.tolist()[f]!r}, not 0 or 1")
    log_post = _log_posteriors(clf._log_terms, x[None, :])[0].tolist()
    label = 0 if log_post[0] >= log_post[1] else 1
    return Prediction(label, (log_post[0], log_post[1]))


def predict_batch(clf: FittedClassifier, X) -> tuple[np.ndarray, np.ndarray]:
    """Labels (uint8) and (rows, 2) log posteriors for the rows of ``X``;
    row r is bit for bit ``predict(clf, X[r])``, ties going to class 0.

    Rows are scored a chunk at a time, so memory stays bounded."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != clf.n_features:
        raise DimensionMismatch(
            f"instances have shape {X.shape}, classifier expects rows of {clf.n_features} values"
        )
    bad = _first_non_binary(X)
    if bad is not None:
        r, f = divmod(bad, X.shape[1])
        raise NonBinaryValue(f"row {r}, feature {f} has value {X[r, f].item()!r}, not 0 or 1")
    log_post = _log_posteriors(clf._log_terms, X)
    # Class 1 only where it is strictly more likely: ties go to class 0.
    labels = (log_post[:, 0] < log_post[:, 1]).astype(np.uint8)
    return labels, log_post


def model_to_dict(clf: FittedClassifier) -> dict:
    return {
        "format": "hietan-model",
        "version": 1,
        "feature_names": list(clf.feature_names),
        "smoothing": clf.smoothing,
        "class_prior": [float(p) for p in clf.class_prior],
        "tree": [p for p in clf.tree.parent_of],
        "active_features": list(clf.active_features),
        "cpts": {str(f): t.tolist() for f, t in clf.cpts.items()},
    }


def _read_only(values) -> np.ndarray:
    table = np.array(values, dtype=np.float64)
    table.setflags(write=False)
    return table


def model_from_dict(doc: dict) -> FittedClassifier:
    """Rebuild a classifier from ``model_to_dict`` output; anything else,
    including a table whose shape does not fit the tree, is a ParseError."""
    if not isinstance(doc, dict) or doc.get("format") != "hietan-model":
        raise ParseError("not a hietan model document")
    try:
        feature_names = tuple(doc["feature_names"])
        tree = DependencyTree(
            tuple(None if p is None else int(p) for p in doc["tree"])
        )
        prior = _read_only(doc["class_prior"])
        cpts = {int(f): _read_only(t) for f, t in doc["cpts"].items()}
        smoothing = float(doc["smoothing"])
        active = tuple(int(f) for f in doc["active_features"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed hietan model: {exc!r}") from exc

    n = tree.n_features
    if len(feature_names) != n:
        raise ParseError(f"tree covers {n} features, model names {len(feature_names)}")
    if prior.shape != (2,):
        raise ParseError(f"class prior has shape {prior.shape}, expected (2,)")
    active_set = set(active)
    if len(active_set) != len(active) or not all(0 <= f < n for f in active):
        raise ParseError(f"active features must be distinct indices in [0, {n})")
    if set(cpts) != active_set:
        raise ParseError("CPT keys differ from the active features")
    for f in active:
        parent = tree.parent_of[f]
        want = (2, 2) if parent is None else (2, 2, 2)
        if cpts[f].shape != want:
            raise ParseError(f"CPT of feature {f} has shape {cpts[f].shape}, expected {want}")
        if parent is not None and parent not in active_set:
            raise ParseError(f"feature {f} depends on inactive feature {parent}")
    for table in (prior, *cpts.values()):
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ParseError("probabilities must lie in [0, 1]")
    return FittedClassifier(
        tree=tree,
        class_prior=prior,
        cpts=cpts,
        smoothing=smoothing,
        active_features=active,
        feature_names=feature_names,
    )


def save_model(clf: FittedClassifier, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(clf), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_model(path) -> FittedClassifier:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a JSON document: {exc}") from exc
    return model_from_dict(doc)
