"""Classifier parameters and prediction on top of a learned dependency tree.

The class is a parent of every feature. Root features use P(x | y); features
with a tree parent use P(x | y, parent value). All tables are maximum
likelihood with additive smoothing per cell, and prediction accumulates in
log space (GO-style datasets have hundreds of features, so products in
probability space underflow).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatch, EmptyTrainingSet, IndexOutOfRange
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


@dataclass(frozen=True)
class Prediction:
    label: int
    log_posterior: tuple[float, float]


def _safe_rows(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Per-row (last axis) additive-smoothing normalisation; rows with zero
    mass and zero smoothing become all-zero rather than NaN."""
    num = counts + smoothing
    den = counts.sum(axis=-1, keepdims=True) + 2.0 * smoothing
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
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

    class_counts = np.bincount(ds.labels, minlength=2).astype(np.float64)
    prior = (class_counts + smoothing) / (ds.n_instances + 2.0 * smoothing)

    # One gather from the dataset's cached statistics: (parent, f) tables, and
    # for a root the diagonal (f, f) table, whose copy axis sums out to (y, x).
    sources = [f if parent is None else parent for f, parent in zip(active, parents)]
    tables = ds._pair_counts(np.array(sources, dtype=np.intp), np.array(active, dtype=np.intp))
    counts = np.moveaxis(tables, 3, 1).astype(np.float64, order="C")  # (m, y, x_parent, x)
    parented = _safe_rows(counts, smoothing)
    roots = _safe_rows(counts.sum(axis=2), smoothing)
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


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def predict(clf: FittedClassifier, instance) -> Prediction:
    """Log-posterior for both classes; ties break toward class 0."""
    vals = [int(v) for v in instance]
    if len(vals) != clf.n_features:
        raise DimensionMismatch(
            f"instance has {len(vals)} values, classifier expects {clf.n_features}"
        )
    log_post = [_log(float(clf.class_prior[y])) for y in (0, 1)]
    for f in clf.active_features:
        parent = clf.tree.parent_of[f]
        table = clf.cpts[f]
        x = vals[f]
        for y in (0, 1):
            if parent is None:
                p = float(table[y, x])
            else:
                p = float(table[y, vals[parent], x])
            log_post[y] += _log(p)
    label = 0 if log_post[0] >= log_post[1] else 1
    return Prediction(label, (log_post[0], log_post[1]))


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


def model_from_dict(doc: dict) -> FittedClassifier:
    if doc.get("format") != "hietan-model":
        raise ValueError("not a hietan model document")
    tree = DependencyTree(
        tuple(None if p is None else int(p) for p in doc["tree"])
    )
    return FittedClassifier(
        tree=tree,
        class_prior=np.array(doc["class_prior"], dtype=np.float64),
        cpts={int(f): np.array(t, dtype=np.float64) for f, t in doc["cpts"].items()},
        smoothing=float(doc["smoothing"]),
        active_features=tuple(int(f) for f in doc["active_features"]),
        feature_names=tuple(doc["feature_names"]),
    )


def save_model(clf: FittedClassifier, path) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(clf), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_model(path) -> FittedClassifier:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
