"""Conditional mutual information scores and the ranked candidate edge list.

For a feature pair (X_i, X_j) and class Y the score is

    sum over (x_i, x_j, y) of  P(x_i, x_j, y) * log( P(x_i, x_j | y)
                                                     / (P(x_i | y) P(x_j | y)) )

with natural logarithms. Probabilities are plug-in estimates from the 8-cell
contingency table with additive smoothing applied per joint cell; marginals
derive from the smoothed joint, so the score is non-negative and exactly
symmetric in (i, j). Terms with zero joint probability contribute nothing.

One kernel, ``_cmi_rows``, scores every table: ``rank_edges`` feeds it all
pairs in fixed-size blocks and ``cmi`` is a one-row call. The element-wise
steps (smoothed probabilities, marginals, ratios) are single IEEE operations,
so NumPy computes them exactly as scalar code would. The order-sensitive steps
stay scalar: ``math.fsum`` for P(y) and for the final sum, so the result is
independent of summation order (this is what makes cmi(i, j) == cmi(j, i)
bit-exact and keeps exact ties between different tables tied), and
``math.log`` for the logarithms, because vectorised logs differ in the last
bit between CPUs and the ranking must not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch
from .hierarchy import FeatureDag

# Pairs per kernel call in rank_edges: bounds the transient arrays to a few
# hundred kilobytes whatever the number of features.
_BLOCK = 1024


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


@dataclass(frozen=True, slots=True)
class ScoredEdge:
    """Candidate dependency between features ``i < j``. Which endpoint may
    become the parent is the hierarchy's call, so the learners ask the DAG."""

    i: int
    j: int
    score: float

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("edge endpoints must satisfy i < j")


def check_smoothing(smoothing: float) -> float:
    """Return the additive smoothing as a float, rejecting negative, NaN and
    infinite values."""
    value = float(smoothing)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"smoothing must be finite and non-negative, got {smoothing!r}")
    return value


def _cmi_rows(tables: np.ndarray, n: int, smoothing: float) -> np.ndarray:
    """CMI of each (m, 2, 2, 2) count table over (x_i, x_j, y); every table
    sums to ``n``."""
    if n == 0 and smoothing == 0:
        raise DegenerateDistribution("no instances and no smoothing")
    m = tables.shape[0]
    p = (tables + smoothing) / (float(n) + 8.0 * smoothing)
    p_y = _each(math.fsum, np.moveaxis(p, 3, 1).reshape(2 * m, 4)).reshape(m, 1, 1, 2)
    p_iy = p[:, :, :1, :] + p[:, :, 1:, :]
    p_jy = p[:, :1, :, :] + p[:, 1:, :, :]
    num, den = p * p_y, p_iy * p_jy
    live = p != 0.0
    # A tiny positive smoothing can underflow a product of a live cell to 0,
    # which would score the pair inf (or fail the log).
    if np.any(live & ((num == 0.0) | (den == 0.0))):
        raise DegenerateDistribution(f"smoothing {smoothing!r} underflows the probabilities")
    # Zero-probability cells contribute nothing: their ratio stays 1, log 0.
    ratio = np.divide(num, den, out=np.ones_like(p), where=live)
    logs = _each(math.log, ratio.ravel()).reshape(p.shape)
    return _each(math.fsum, (p * logs).reshape(m, 8))


def _each(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element (1-d) or each row (2-d) of ``a``."""
    return np.fromiter(map(fn, a.tolist()), np.float64, a.shape[0])


def cmi(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Conditional mutual information estimate from smoothed counts."""
    smoothing = check_smoothing(smoothing)
    return float(_cmi_rows(counts.table[np.newaxis], int(counts.n), smoothing)[0])


def rank_edges(ds: Dataset, dag: FeatureDag, smoothing: float = 1.0) -> list[ScoredEdge]:
    """Score all n(n-1)/2 feature pairs and sort them for the tree learners.

    Descending by score; exact ties fall back to ascending (i, j) so the order
    is reproducible across runs and platforms. Contingency tables for all pairs
    come from the dataset's cached per-class Gram matrices, not a per-pair scan.
    """
    smoothing = check_smoothing(smoothing)
    n = ds.n_features
    if n < 2:
        raise ValueError("need at least two features to rank edges")
    if dag.n_features != n:
        raise DimensionMismatch(
            f"dataset has {n} features, hierarchy has {dag.n_features}"
        )
    i, j = np.triu_indices(n, 1)
    scores = np.empty(i.shape[0])
    for start in range(0, i.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        tables = ds._pair_counts(i[block], j[block])
        scores[block] = _cmi_rows(tables, ds.n_instances, smoothing)
    order = np.lexsort((j, i, -scores))
    return list(map(
        ScoredEdge, i[order].tolist(), j[order].tolist(), scores[order].tolist()
    ))
