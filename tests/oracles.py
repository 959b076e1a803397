"""Reference implementations the tests compare the library against.

``cmi_reference`` and ``rank_edges_reference`` score one pair at a time with
scalar arithmetic; the block kernel in ``hietan.mutual_info`` must reproduce
them bit for bit. ``fit_reference`` counts each CPT by a per-feature scan of
the rows; ``hietan.bayes.fit`` gathers the same counts from the dataset's
per-class statistics and must reproduce it bit for bit. ``joint_counts``
builds a table by a direct scan and ``tree_total_score`` sums a tree's
candidate scores.
"""

import math

import numpy as np

from hietan.bayes import FittedClassifier
from hietan.dataset import Dataset
from hietan.errors import DegenerateDistribution, HieTanError, IndexOutOfRange
from hietan.mutual_info import JointCounts, ScoredEdge


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


def rank_edges_reference(ds: Dataset, smoothing: float = 1.0) -> list[ScoredEdge]:
    """Per-pair loop: one table, one scalar score and one edge per pair,
    sorted descending by score, then ascending by (i, j)."""
    n = ds.n_features
    X = ds.values.astype(np.int64)
    per_class = []
    for y in (0, 1):
        Xy = X[ds.labels == y]
        per_class.append((Xy.T @ Xy, Xy.sum(axis=0), Xy.shape[0]))

    out: list[ScoredEdge] = []
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
            out.append(ScoredEdge(i, j, cmi_reference(counts, smoothing)))
    out.sort(key=lambda e: (-e.score, e.i, e.j))
    return out


def tree_total_score(tree, edges) -> float:
    """Sum of candidate scores over the tree's edges."""
    lookup = {(e.i, e.j): e.score for e in edges}
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
