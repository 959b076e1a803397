"""Reference implementations the tests compare the library against.

``cmi_reference`` and ``rank_edges_reference`` score one pair at a time with
scalar arithmetic; the block kernel in ``hietan.mutual_info`` must reproduce
them bit for bit. ``fit_reference`` counts each CPT by a per-feature scan of
the rows; ``hietan.bayes.fit`` gathers the same counts from the dataset's
per-class statistics and must reproduce it bit for bit. ``predict_reference``
sums one scalar log per feature and class; ``hietan.bayes.predict`` gathers
the same logs from a cached table and must reproduce it bit for bit.
``grow_reference`` is the greedy pass of ``hie_mst``/``hie_mst_lite``
without the early stop: it examines every candidate, and the stopped scan
must give the same tree, active mask and residual orientation.
``joint_counts`` builds a table by a direct scan and ``tree_total_score``
sums a tree's candidate scores.
"""

import math
import random

import numpy as np

from hietan.bayes import FittedClassifier, Prediction
from hietan.dataset import Dataset
from hietan.errors import DegenerateDistribution, HieTanError, IndexOutOfRange
from hietan.hie_mst import (
    EdgeSets,
    _deactivate_relatives,
    _insert_constrained,
    _note,
    _orient_residual,
    is_redundant_pair,
)
from hietan.mutual_info import JointCounts
from hietan.tree import DependencyTree


class UnknownEdge(HieTanError):
    """A tree edge has no score in the candidate edge list."""


def joint_counts(ds: Dataset, i: int, j: int) -> JointCounts:
    """Exact contingency counts for the feature pair over all instances."""
    for v in (i, j):
        if not 0 <= v < ds.n_features:
            raise IndexOutOfRange(f"feature index {v} outside [0, {ds.n_features})")
    if i == j:
        raise ValueError("joint counts need two distinct features")
    code = (
        ds.values[:, i].astype(np.int64) * 4
        + ds.values[:, j].astype(np.int64) * 2
        + ds.labels.astype(np.int64)
    )
    table = np.bincount(code, minlength=8).reshape(2, 2, 2)
    return JointCounts(table, ds.n_instances)


def cmi_reference(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Scalar conditional mutual information, one pair at a time."""
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    n = int(counts.n)
    if n == 0 and smoothing == 0:
        raise DegenerateDistribution("no instances and no smoothing")
    t = counts.table
    denom = float(n) + 8.0 * float(smoothing)
    p = [
        [
            [(float(t[xi, xj, y]) + smoothing) / denom for y in (0, 1)]
            for xj in (0, 1)
        ]
        for xi in (0, 1)
    ]
    terms = []
    for y in (0, 1):
        p_y = math.fsum(p[xi][xj][y] for xi in (0, 1) for xj in (0, 1))
        for xi in (0, 1):
            p_iy = p[xi][0][y] + p[xi][1][y]
            for xj in (0, 1):
                p_joint = p[xi][xj][y]
                if p_joint == 0.0:
                    continue
                p_jy = p[0][xj][y] + p[1][xj][y]
                terms.append(p_joint * math.log(p_joint * p_y / (p_iy * p_jy)))
    return math.fsum(terms)


def rank_edges_reference(ds: Dataset, smoothing: float = 1.0) -> list[tuple[int, int, float]]:
    """Per-pair loop: one table, one scalar score and one (i, j, score)
    triple per pair, sorted descending by score, then ascending by (i, j)."""
    n = ds.n_features
    X = ds.values.astype(np.int64)
    per_class = []
    for y in (0, 1):
        Xy = X[ds.labels == y]
        per_class.append((Xy.T @ Xy, Xy.sum(axis=0), Xy.shape[0]))

    out: list[tuple[int, int, float]] = []
    table = np.empty((2, 2, 2), dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            for y, (gram, ones, total) in enumerate(per_class):
                n11 = int(gram[i, j])
                n10 = int(ones[i]) - n11
                n01 = int(ones[j]) - n11
                table[1, 1, y] = n11
                table[1, 0, y] = n10
                table[0, 1, y] = n01
                table[0, 0, y] = total - n11 - n10 - n01
            counts = JointCounts(table.copy(), ds.n_instances)
            out.append((i, j, cmi_reference(counts, smoothing)))
    out.sort(key=lambda e: (-e[2], e[0], e[1]))
    return out


def tree_total_score(tree, edges) -> float:
    """Sum of candidate scores over the tree's edges."""
    lookup = {(i, j): s for i, j, s in edges}
    picked = []
    for p, c in tree.edges():
        key = (p, c) if p < c else (c, p)
        if key not in lookup:
            raise UnknownEdge(f"tree edge {p}->{c} is not in the scored list")
        picked.append(lookup[key])
    return math.fsum(picked)


def fit_reference(ds: Dataset, tree, active_features, smoothing: float) -> FittedClassifier:
    """``fit`` by one bincount over the rows per active feature; a row with
    zero mass and zero smoothing is all zero."""
    if active_features is None:
        active = tuple(range(ds.n_features))
    else:
        active = tuple(sorted(set(int(f) for f in active_features)))
    y = ds.labels.astype(np.int64)
    class_counts = np.bincount(y, minlength=2).astype(np.float64)
    prior = (class_counts + smoothing) / (ds.n_instances + 2.0 * smoothing)
    cpts = {}
    for f in active:
        parent = tree.parent_of[f]
        xf = ds.values[:, f].astype(np.int64)
        if parent is None:
            counts = np.bincount(y * 2 + xf, minlength=4).reshape(2, 2)
        else:
            xp = ds.values[:, parent].astype(np.int64)
            counts = np.bincount(y * 4 + xp * 2 + xf, minlength=8).reshape(2, 2, 2)
        counts = counts.astype(np.float64)
        num = counts + smoothing
        den = counts.sum(axis=-1, keepdims=True) + 2.0 * smoothing
        cpts[f] = np.zeros_like(num, dtype=np.float64)
        np.divide(num, den, out=cpts[f], where=den > 0)
    return FittedClassifier(tree, prior, cpts, smoothing, active, ds.feature_names)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def predict_reference(clf: FittedClassifier, instance) -> Prediction:
    """Log-posterior by a scalar loop: per class, the log prior plus one
    ``math.log`` per active feature in order; ties go to class 0."""
    vals = [int(v) for v in instance]
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


def grow_reference(edges, dag, n_features, seed, values, trace):
    """The full-scan greedy pass: eager with ``values=None``, lazy with an
    instance's values, returning the tree and the final active mask."""
    rng = random.Random(seed)
    sets = EdgeSets(n_features)
    active = [True] * n_features
    for i, j, _ in edges:
        if sets.connected(i, j):
            _note(trace, "rejected_cycle", i, j)
            continue
        if values is not None:
            if not (active[i] and active[j]):
                _note(trace, "rejected_unavailable", i, j)
                continue
            if is_redundant_pair(dag, values, i, j):
                _note(trace, "rejected_redundant", i, j)
                continue
        if _insert_constrained(sets, dag, i, j, trace) and values is not None:
            _deactivate_relatives(dag, values, active, (i, j), trace)
    _orient_residual(sets, rng, trace)
    tree = DependencyTree(tuple(sets.parent_of.get(f) for f in range(n_features)))
    return tree, active
