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
final sum is exactly rounded and so independent of the order of its terms.

Within the kernel, the element-wise steps (smoothed probabilities, marginals,
ratios) are single IEEE operations, so NumPy computes them exactly as scalar
code would. The sums for P(y) and for each pair's score are correctly
rounded: ``_exact_sums`` computes them with element-wise error-free
transformations and certifies each row's result, and any row it cannot
certify goes to ``math.fsum``. Either way a row gets the one double nearest
its exact sum, which is what ``math.fsum`` returns, so the scores are the
bits of a per-pair ``fsum``. That is what makes cmi(i, j) == cmi(j, i)
bit-exact and keeps exact ties between different tables tied (NumPy's own
summation order splits such ties in the last bit); ``cmi`` sums its one
table with ``math.fsum`` directly. The logarithms stay scalar through
``math.log``, because vectorised logs differ in the last bit between CPUs
and the ranking must not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch
from .hierarchy import FeatureDag

# Pairs per block of the final sum in rank_edges. _exact_sums holds the eight
# gathered term columns and about a dozen float64 temporaries at once, some
# 160 bytes per pair, so a block takes under a megabyte whatever the number
# of features.
_BLOCK = 4096


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
    p_y = _exact_sums(p.reshape(d, 4).T).reshape(d, 1, 1)
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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the exact error a + b - s (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _exact_sums(columns) -> np.ndarray:
    """Each row's correctly rounded sum over ``columns`` (m >= 2 equal-length
    1-d float64 arrays), bit for bit what ``math.fsum`` returns for the row.

    Two VecSum cascades (Ogita, Rump and Oishi 2005) run in lockstep: the
    first leaves the running sum sigma and the exact error of each step, the
    second folds those errors into e and second-level errors q, so a row's
    exact sum is sigma + e + sum(q). With r = fl(sigma + e) and its exact
    residual rho, that sum is r + rho + sum(q). A row is certified when every
    q is 0 (then r is the IEEE round-half-even of the exact sum, which is
    fsum's rounding), or when a bound on |rho + sum(q)| is below half the gap
    from |r| to the next double toward zero (then r is the only double that
    close, and no tie is possible). The bound sums |q| in floating point and
    inflates it by the (2m u) error of that sum and a further 2**-40 for the
    two roundings of the bound itself. Other rows fall back to ``math.fsum``,
    as do rows whose r is zero (fsum, not IEEE addition, picks the sign of a
    zero sum) or not finite (fsum decides whether to raise).
    Only element-wise IEEE operations are used, so the bits do not depend on
    the CPU or the order of the rows.
    """
    columns = list(columns)
    m = len(columns)
    sigma, e = _two_sum(columns[0], columns[1])
    q_sum = np.zeros_like(sigma)
    for x in columns[2:]:
        sigma, err = _two_sum(sigma, x)
        e, q = _two_sum(e, err)
        q_sum += np.abs(q)
    r, rho = _two_sum(sigma, e)
    magnitude = np.abs(r)
    gap = magnitude - np.nextafter(magnitude, 0.0)
    bound = (np.abs(rho) + q_sum * (1.0 + 2.0 * m * 2.0**-53)) * (1.0 + 2.0**-40)
    certified = (q_sum == 0.0) | (bound + bound < gap)
    certified &= (magnitude > 0.0) & (magnitude < math.inf)
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        r[fallback] = _each(math.fsum, np.stack([c[fallback] for c in columns], axis=1))
    return r


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
        memo.append((_slice_terms(slices, ds.n_instances, smoothing).T.copy(), index))
    scores = np.empty(i.shape[0])
    for start in range(0, i.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        scores[block] = _exact_sums(
            [column for terms, index in memo for column in terms[:, index[block]]]
        )
    del memo  # before the output list, which sets the peak memory
    # triu_indices yields the pairs in ascending (i, j) order, so a stable
    # sort breaks exact ties by (i, j).
    order = np.argsort(-scores, kind="stable")
    return list(zip(i[order].tolist(), j[order].tolist(), scores[order].tolist()))
