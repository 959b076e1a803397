"""Conditional mutual information scores and the ranked candidate edge list.

For a feature pair (X_i, X_j) and class Y the score is

    sum over (x_i, x_j, y) of  P(x_i, x_j, y) * log( P(x_i, x_j | y)
                                                     / (P(x_i | y) P(x_j | y)) )

with natural logarithms. Probabilities are plug-in estimates from the 8-cell
contingency table with additive smoothing applied per joint cell; marginals
derive from the smoothed joint, so the score is non-negative and exactly
symmetric in (i, j). Terms with zero joint probability contribute nothing.

All accumulation uses ``math.fsum`` so the result is independent of summation
order (this is what makes cmi(i, j) == cmi(j, i) bit-exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch, IndexOutOfRange
from .hierarchy import FeatureDag

@dataclass(frozen=True)
class JointCounts:
    """8-cell contingency table over (x_i, x_j, y), plus the instance total."""

    table: np.ndarray
    n: int

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (2, 2, 2):
            raise DimensionMismatch("joint count table must have shape (2, 2, 2)")
        if t.min() < 0:
            raise ValueError("counts cannot be negative")
        if int(t.sum()) != self.n:
            raise ValueError("count cells must sum to the instance total")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class ScoredEdge:
    """Candidate dependency between features ``i < j``. Which endpoint may
    become the parent is the hierarchy's call, so the learners ask the DAG."""

    i: int
    j: int
    score: float

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("edge endpoints must satisfy i < j")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


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


def cmi(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Conditional mutual information estimate from smoothed counts."""
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


def rank_edges(ds: Dataset, dag: FeatureDag, smoothing: float = 1.0) -> list[ScoredEdge]:
    """Score all n(n-1)/2 feature pairs and sort them for the tree learners.

    Descending by score; exact ties fall back to ascending (i, j) so the order
    is reproducible across runs and platforms. Contingency tables for all pairs
    come from two per-class Gram matrices rather than a per-pair scan.
    """
    n = ds.n_features
    if n < 2:
        raise ValueError("need at least two features to rank edges")
    if dag.n_features != n:
        raise DimensionMismatch(
            f"dataset has {n} features, hierarchy has {dag.n_features}"
        )
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
            out.append(ScoredEdge(i, j, cmi(counts, smoothing)))
    out.sort(key=lambda e: (-e.score, e.i, e.j))
    return out
