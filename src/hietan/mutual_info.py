"""Conditional mutual information scores and the ranked candidate edge list.

``rank_edges`` returns every feature pair as a plain ``(i, j, score)`` tuple
with ``i < j``, sorted for the tree learners; they read only the pair order.

For a feature pair (X_i, X_j) and class Y the score is

    sum over (x_i, x_j, y) of  P(x_i, x_j, y) * log( P(x_i, x_j | y)
                                                     / (P(x_i | y) P(x_j | y)) )

with natural logarithms. Probabilities are plug-in estimates from the 8-cell
contingency table with additive smoothing applied per joint cell; marginals
derive from the smoothed joint, so the score is non-negative and exactly
symmetric in (i, j). Terms with zero joint probability contribute nothing.

The score is a sum of eight terms, four per class, and the four terms of
class y depend only on that class's *slice*: its four counts over
(x_i, x_j), plus the instance total and the smoothing, which are fixed for a
call. Many pairs share a slice (a slice is fixed by the pair's n11 count and
its two column sums), so ``rank_edges`` scores each distinct slice once with
the one kernel, ``_slice_terms``, and then sums each pair's eight gathered
terms in fixed-size blocks; ``cmi`` is the same kernel on one table's two
slices. The result is bit-identical to scoring every pair on its own: the
kernel computes the same terms whichever pair a slice came from, and the
final sum is ``math.fsum``, which is exactly rounded and so independent of
the order of its terms.

Within the kernel, the element-wise steps (smoothed probabilities, marginals,
ratios) are single IEEE operations, so NumPy computes them exactly as scalar
code would. The order-sensitive steps stay scalar: ``math.fsum`` for P(y) and
for the final sum, so the result is independent of summation order (this is
what makes cmi(i, j) == cmi(j, i) bit-exact and keeps exact ties between
different tables tied), and ``math.log`` for the logarithms, because
vectorised logs differ in the last bit between CPUs and the ranking must not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch
from .hierarchy import FeatureDag

# Pairs per block of the final sum in rank_edges: bounds the gathered terms
# and their Python rows to a few hundred kilobytes whatever the number of
# features.
_BLOCK = 1024


@dataclass(frozen=True)
class JointCounts:
    """8-cell contingency table over (x_i, x_j, y), plus the instance total.
    The table is stored as a private read-only int64 copy."""

    table: np.ndarray
    n: int

    def __post_init__(self):
        a = np.asarray(self.table)
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            t = a.astype(np.int64)
        if t.shape != (2, 2, 2):
            raise DimensionMismatch("joint count table must have shape (2, 2, 2)")
        if not np.array_equal(t, a):
            raise ValueError("counts must be integers")
        if t.min() < 0:
            raise ValueError("counts cannot be negative")
        if int(t.sum()) != self.n:
            raise ValueError("count cells must sum to the instance total")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def check_smoothing(smoothing: float) -> float:
    """Return the additive smoothing as a float, rejecting negative, NaN and
    infinite values."""
    value = float(smoothing)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"smoothing must be finite and non-negative, got {smoothing!r}")
    return value


def _slice_terms(slices: np.ndarray, n: int, smoothing: float) -> np.ndarray:
    """The four CMI terms of each (d, 4) class slice: counts of one class in
    cells (x_i, x_j) = 00, 01, 10, 11 of a table that sums to ``n``."""
    if n == 0 and smoothing == 0:
        raise DegenerateDistribution("no instances and no smoothing")
    d = slices.shape[0]
    p = ((slices + smoothing) / (float(n) + 8.0 * smoothing)).reshape(d, 2, 2)
    p_y = _each(math.fsum, p.reshape(d, 4)).reshape(d, 1, 1)
    p_iy = p[:, :, :1] + p[:, :, 1:]
    p_jy = p[:, :1, :] + p[:, 1:, :]
    num, den = p * p_y, p_iy * p_jy
    live = p != 0.0
    # A tiny positive smoothing can underflow a product of a live cell to 0,
    # which would score the pair inf (or fail the log).
    if np.any(live & ((num == 0.0) | (den == 0.0))):
        raise DegenerateDistribution(f"smoothing {smoothing!r} underflows the probabilities")
    # Zero-probability cells contribute nothing: their ratio stays 1, log 0.
    ratio = np.divide(num, den, out=np.ones_like(p), where=live)
    logs = _each(math.log, ratio.ravel()).reshape(p.shape)
    return (p * logs).reshape(d, 4)


def _distinct_slices(
    gram: np.ndarray, ones: np.ndarray, total: int, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (d, 4) slices of one class over pairs (i[k], j[k]), in the
    cell order of ``_slice_terms``, and the index of each pair's slice."""
    # A pair's slice is fixed by n11 and its two column sums, so key it as
    # n11 * k**2 + r_i * k + r_j, where r ranks the column sums among their k
    # distinct values. As k <= min(n_features, n_y + 1), the key is below
    # (n_y + 1) * k**2 <= ((n_y + 1) * n_features) ** 1.5: it can wrap int64
    # only if (n_y + 1) * n_features >= 2**42, and the float copy of the
    # class's rows that its Gram matrix came from would then take 35 TB.
    sums, rank = np.unique(ones, return_inverse=True)
    k = sums.shape[0]
    key, index = np.unique(gram[i, j] * (k * k) + rank[i] * k + rank[j],
                           return_inverse=True)
    n11, ones_i, ones_j = key // (k * k), sums[key // k % k], sums[key % k]
    slices = np.stack([total - ones_i - ones_j + n11, ones_j - n11, ones_i - n11, n11], axis=1)
    return slices, index


def _each(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element (1-d) or each row (2-d) of ``a``."""
    return np.fromiter(map(fn, a.tolist()), np.float64, a.shape[0])


def cmi(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Conditional mutual information estimate from smoothed counts."""
    smoothing = check_smoothing(smoothing)
    slices = np.moveaxis(counts.table, 2, 0).reshape(2, 4)
    return math.fsum(_slice_terms(slices, int(counts.n), smoothing).ravel().tolist())


def rank_edges(
    ds: Dataset, dag: FeatureDag, smoothing: float = 1.0
) -> list[tuple[int, int, float]]:
    """Score all n(n-1)/2 feature pairs as ``(i, j, score)`` tuples with
    ``i < j`` and sort them for the tree learners.

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
    memo = []
    for gram, ones, total in ds._class_stats:
        slices, index = _distinct_slices(gram, ones, total, i, j)
        memo.append((_slice_terms(slices, ds.n_instances, smoothing), index))
    scores = np.empty(i.shape[0])
    for start in range(0, i.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = np.concatenate([terms[index[block]] for terms, index in memo], axis=1)
        scores[block] = _each(math.fsum, rows)
    del memo  # before the output list, which sets the peak memory
    order = np.lexsort((j, i, -scores))
    return list(zip(i[order].tolist(), j[order].tolist(), scores[order].tolist()))
