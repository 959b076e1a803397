"""Classifier parameters and prediction on top of a learned dependency tree.

The class is a parent of every feature. Root features use P(x | y); features
with a tree parent use P(x | y, parent value). All tables are maximum
likelihood with additive smoothing per cell, and prediction accumulates in
log space (GO-style datasets have hundreds of features, so products in
probability space underflow). ``fit`` and ``_lazy_predict`` estimate CPTs
with ``_cpts``, each over (y, x_source, x) with a root its own source and
its (y, x) table repeated over x_source. ``_log_pairs`` logs every cell of
every such table into one layout, and one kernel, ``_log_posteriors``, sums
the terms that every prediction gathers there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from .dataset import Dataset, _first_non_binary, _first_repeat
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    IndexOutOfRange,
    NonBinaryValue,
    ParseError,
)
from .hierarchy import read_utf8
from .mutual_info import _NUMBERS, _cells, check_smoothing
from .structure import DependencyTree


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
    def _tables(self) -> np.ndarray:
        """The active CPTs stacked as ``_cpts`` makes them, (m, y, x_source, x):
        ``fit`` hands over its own; any other classifier stacks ``cpts`` once."""
        tables = map(self.cpts.get, self.active_features)
        return np.reshape([t if t.ndim == 3 else t[:, None].repeat(2, 1) for t in tables],
                          (-1, 2, 2, 2))

    @cached_property
    def _log_cpts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """``(pairs, sources, features, first, n)``: the ``_log_pairs`` of the
        prior and the ``_tables`` stack, whose row k reads x_source at column
        ``sources[k]`` (its parent, or itself for a root; 0 for the prior) and
        x at ``features[k]``, from pair ``first[0, k]`` = 4k on; n is the row
        length. ``fit`` and ``model_from_dict`` make the public fields
        read-only, so this is built once per classifier."""
        active = self.active_features
        parents = [self.tree.parent_of[f] for f in active]
        sources = [0] + [f if p is None else p for f, p in zip(active, parents)]
        return (
            _log_pairs(self.class_prior, self._tables),
            np.array(sources, dtype=np.intp),
            np.array((0,) + active, dtype=np.intp),
            np.arange(0, 4 * len(sources), 4)[None, :],
            self.n_features,
        )

    def _log_terms(self, X: np.ndarray) -> np.ndarray:
        """(rows, m + 1, 2) log terms of the 0/1 rows of ``X``: the log prior,
        then each active feature's CPT log in ``active_features`` order."""
        pairs, sources, features, first, n = self._log_cpts
        if n == 0:  # no column 0 to read: the prior is every row's one term
            return np.broadcast_to(pairs[0], (X.shape[0], 1, 2))
        X = X.astype(np.uint8, copy=False)  # a bool code would add as OR
        code = X.take(sources, axis=1)
        code += code
        code += X.take(features, axis=1)  # 2 x_source + x, as uint8
        pair = code.astype(np.intp)
        pair += first  # row k's pair at (x_source, x) is 4k + 2 x_source + x
        return pairs.take(pair, axis=0)


@dataclass(frozen=True)
class Prediction:
    label: int
    log_posterior: tuple[float, float]


def _safe_rows(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """The smoothed estimate ``(count + s) / (row + 2s)`` of every cell, as
    float64, where a row is the last axis; a cell whose row has zero mass
    under zero smoothing is 0 rather than NaN."""
    num = counts + smoothing
    den = counts.sum(axis=-1, keepdims=True) + 2.0 * smoothing
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _class_prior(ds: Dataset, smoothing: float) -> np.ndarray:
    """P(y) for y = 0, 1, smoothed like every CPT cell."""
    totals = np.array([total for _, _, total in ds._class_stats], dtype=np.float64)
    return _safe_rows(totals, smoothing)


def _cpts(stats, sources: np.ndarray, features: np.ndarray, smoothing: float) -> np.ndarray:
    """(m, y, x_source, x) smoothed CPT cells of each ``features[k]`` given
    ``sources[k]``, in one gather from the per-class statistics ``stats``. A
    root's source is the feature itself: its diagonal (x_f, x_f) table, summed
    over x_source, gives its (y, x) counts, repeated over x_source."""
    counts = np.moveaxis(_cells(stats, sources, features).reshape(2, 2, 2, -1), 3, 0)
    root = sources == features
    counts[root] = counts[root].sum(axis=2, keepdims=True)
    return _safe_rows(counts.astype(np.float64, order="C"), smoothing)


def _logs(cells: np.ndarray) -> np.ndarray:
    """Scalar ``math.log`` of every cell (``np.log`` differs in the last bit),
    called once per distinct positive value and gathered back; log 0 is -inf."""
    values, at = np.unique(cells, return_inverse=True)
    logs = np.full(values.shape, -np.inf)
    live = values > 0.0
    logs[live] = list(map(math.log, values[live].tolist()))
    return logs[at].reshape(cells.shape)


def _log_pairs(prior: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """The (4(m + 1), 2) log pairs over y of the prior and the m (y,
    x_source, x) CPTs ``tables`` (a root's repeated over x_source): pair 4k +
    2 x_source + x is row k's, row 0 being the prior, repeated over both
    values. One ``_logs`` call covers them all."""
    out = np.empty((len(tables) + 1, 2, 2, 2))  # (row, x_source, x, y)
    out[0] = prior
    out[1:] = np.moveaxis(tables, 1, 3)
    return _logs(out).reshape(-1, 2)


def fit(
    ds: Dataset,
    tree: DependencyTree,
    active_features: Optional[Iterable[int]] = None,
    smoothing: float = 1.0,
) -> FittedClassifier:
    """Estimate the prior and one CPT per active feature; an active feature
    that is not an integer raises ``TypeError``, as in ``model_from_dict``."""
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
        active = tuple(sorted(set(map(_index, active_features))))
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

    sources = np.array([f if p is None else p for f, p in zip(active, parents)], np.intp)
    tables = _cpts(ds._class_stats, sources, np.array(active, np.intp), smoothing)
    tables.setflags(write=False)  # the CPTs below are views and inherit this
    # Iterating the stack makes its views in C, faster than indexing it per feature.
    cpts = {f: t[:, 0] if p is None else t for f, p, t in zip(active, parents, tables)}

    clf = FittedClassifier(
        tree=tree,
        class_prior=prior,
        cpts=cpts,
        smoothing=smoothing,
        active_features=active,
        feature_names=ds.feature_names,
    )
    clf.__dict__["_tables"] = tables  # the stack the CPTs view, as ``_tables`` would rebuild it
    return clf


# Rows per chunk in ``_log_posteriors``. An eager chunk peaks at about 56 bytes
# per term, a lazy one at about 40 when its rows share CPTs as ``hie_mst_lite``'s
# do (20.6 MB for 512 rows of 1000 features) and 450 per cell with its own CPT.
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
    smoothing), X[r])``, but no classifier is built: each chunk gathers its
    cells from the logs of its distinct (source, feature) CPTs.
    Row r's n + 1 terms are the log prior and then one per feature in index
    order, which is ``active_features`` order; an inactive feature adds 0.0,
    which changes no value the sum can hold: every term is <= 0 or -inf, and
    none is -0.0. Ties go to class 0."""
    smoothing = check_smoothing(smoothing)
    prior = _class_prior(train, smoothing)

    def terms(X: np.ndarray, parents: np.ndarray, active: np.ndarray) -> np.ndarray:
        at, features = np.nonzero(active)  # row by row, features ascending
        source = parents[at, features]
        np.copyto(source, features, where=source < 0)  # a root reads its diagonal table
        # Each distinct (source, feature) key is one CPT; cell k reads CPT cpt[k].
        key = source * X.shape[1] + features
        _, first, cpt = np.unique(key, return_index=True, return_inverse=True)
        tables = _cpts(train._class_stats, source[first], features[first], smoothing)
        pairs = _log_pairs(prior, tables)
        out = np.zeros((X.shape[0], X.shape[1] + 1, 2))
        out[:, 0] = pairs[0]
        out[at, features + 1] = pairs[4 * cpt + 4 + 2 * X[at, source] + X[at, features]]
        return out

    # A copy, so that a caller who keeps the posteriors lets the (rows, n + 1,
    # 2) sums that they are a view of go.
    log_post = _log_posteriors(terms, X, parents, active).copy()
    return (log_post[:, 0] < log_post[:, 1]).astype(np.uint8), log_post


def predict(clf: FittedClassifier, instance) -> Prediction:
    """Log-posterior for both classes; ties break toward class 0.

    The batch kernel of ``predict_batch`` on one row."""
    x = np.asarray(instance)
    n = clf._log_cpts[-1]
    if x.shape != (n,):
        raise DimensionMismatch(f"instance has shape {x.shape}, classifier expects {n} values")
    f = _first_non_binary(x)
    if f is not None:
        raise NonBinaryValue(f"feature {f} has value {x.tolist()[f]!r}, not 0 or 1")
    log0, log1 = _log_posteriors(clf._log_terms, x[None, :])[0].tolist()
    return Prediction(0 if log0 >= log1 else 1, (log0, log1))


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
    # A copy, as in ``_lazy_predict``: the posteriors of one chunk are a view
    # of its (rows, k, 2) running sums.
    log_post = _log_posteriors(clf._log_terms, X).copy()
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
    """A model document's probability table: numbers, not bools."""
    cells = np.array(values, dtype=object)
    if not all(isinstance(v, _NUMBERS) and not isinstance(v, bool) for v in cells.flat):
        raise TypeError(f"probability table {values!r} holds a value that is not a number")
    table = cells.astype(np.float64)
    table.setflags(write=False)
    return table


def _index(value) -> int:
    """A feature index, in a model document or ``fit``: an int, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"feature index {value!r} is not an integer")
    return int(value)


def model_from_dict(doc: dict) -> FittedClassifier:
    """Rebuild a classifier from ``model_to_dict`` output; anything else,
    including a table whose shape does not fit the tree, is a ParseError."""
    if not isinstance(doc, dict) or doc.get("format") != "hietan-model":
        raise ParseError("not a hietan model document")
    try:
        names = doc["feature_names"]
        tree = DependencyTree(tuple(None if p is None else _index(p) for p in doc["tree"]))
        prior = _read_only(doc["class_prior"])
        if not isinstance(doc["cpts"], dict):
            raise TypeError(f"cpts must be a JSON object, got {type(doc['cpts']).__name__}")
        tables = {key: _read_only(t) for key, t in doc["cpts"].items()}
        smoothing = check_smoothing(doc["smoothing"])
        active = tuple(_index(f) for f in doc["active_features"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed hietan model: {exc!r}") from exc

    n = tree.n_features
    if not (isinstance(names, list) and len(names) == n and all(isinstance(s, str) for s in names)):
        raise ParseError(f"feature names must be a list of {n} strings, as the tree has")
    if len(set(names)) < len(names):
        raise ParseError(f"feature name {_first_repeat(names)!r} is repeated")
    if prior.shape != (2,):
        raise ParseError(f"class prior has shape {prior.shape}, expected (2,)")
    active_set = set(active)
    if len(active_set) != len(active) or not all(0 <= f < n for f in active):
        raise ParseError(f"active features must be distinct indices in [0, {n})")
    if set(tables) != {str(f) for f in active}:
        raise ParseError("CPT keys differ from the active features")
    cpts = {f: tables[str(f)] for f in active}
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
        # A row sums to 1, or is zero at smoothing 0 (``_safe_rows``'s zero-mass rows).
        rows = table.sum(axis=-1)
        if not np.all((abs(rows - 1.0) <= 2.0**-51) | ((rows == 0.0) & (smoothing == 0.0))):
            raise ParseError("each probability row must sum to 1")
    return FittedClassifier(
        tree=tree,
        class_prior=prior,
        cpts=cpts,
        smoothing=smoothing,
        active_features=active,
        feature_names=tuple(names),
    )


def save_model(clf: FittedClassifier, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(clf), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_model(path) -> FittedClassifier:
    """The classifier of a model file written by ``save_model``. One leading
    byte-order mark is dropped, as in dataset and hierarchy files; a file
    that is not UTF-8 JSON raises ``ParseError``."""
    text = read_utf8(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not a JSON document: {exc}") from exc
    return model_from_dict(doc)
