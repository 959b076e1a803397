"""Conditional mutual information scores and the ranked candidate edge list.

``rank_edges`` returns every feature pair as a plain ``(i, j, score)`` tuple
with ``i < j``, sorted for the tree learners; they read only the pair order,
and accept any sized sequence they can iterate more than once in that order.
The learners stop after a few n of the n(n-1)/2 pairs, so the CV loop and
``hietan train`` give them a ``_RankedPairs`` instead: the same pairs in the
same order, bit for bit, sorted one chunk at a time only as far as a learner
reads. ``rank_edges`` is that object read in full.

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
call. Many pairs share a slice: a slice is fixed by the pair's n11 count and
its two column sums, and as the score is symmetric in (i, j) the two sums are
taken unordered. So ``rank_edges`` scores each distinct slice once with the
one kernel, ``_slice_terms``, and sums each slice's four terms once into a
pair (hi, lo) whose exact sum is the slice's exact sum. Each pair's score is
then the correctly rounded sum of its two slices' (hi, lo): four gathered
columns, summed in fixed-size blocks. ``cmi`` is the same kernel on one
table's two slices. The result is bit-identical to scoring every pair on its
own: the kernel computes the same terms whichever pair a slice came from
(swapping i and j only permutes them), and the final sum is exactly rounded
and so independent of the order and grouping of its terms.

Within the kernel, the element-wise steps (smoothed probabilities, marginals,
ratios) are single IEEE operations, so NumPy computes them exactly as scalar
code would. The sums for P(y) and for each pair's score are correctly
rounded: ``_exact_sums`` computes them with element-wise error-free
transformations and certifies each row's result, and any row it cannot
certify goes to ``math.fsum``. A slice's (hi, lo) comes from the same
cascade, ``_vec_sum``, and is used only when the cascade proves hi + lo
exact; a pair that touches a slice it cannot prove takes ``math.fsum`` over
its eight terms instead. Either way a pair gets the one double nearest its
exact sum, which is what ``math.fsum`` returns, so the scores are the bits
of a per-pair ``fsum``. That is what makes cmi(i, j) == cmi(j, i) bit-exact
and keeps exact ties between different tables tied (NumPy's own summation
order splits such ties in the last bit); ``cmi`` sums its one table with
``math.fsum`` directly. The logarithms stay scalar through ``math.log``,
because vectorised logs differ in the last bit between CPUs and the ranking
must not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch, IndexOutOfRange
from .hierarchy import FeatureDag

# Pairs per block of the final sum in rank_edges. _exact_sums holds the four
# gathered (hi, lo) columns and under ten float64 temporaries at once, some
# 100 bytes per pair, so a block takes under half a megabyte whatever the
# number of features.
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
    # A pair's slice is fixed by n11 and its two column sums. Swapping i and j
    # only permutes the slice's four terms, bit for bit, and the pair sum is
    # exactly rounded, so the column sums are taken unordered: the key is
    # n11 * k**2 + min(r_i, r_j) * k + max(r_i, r_j), where r ranks the column
    # sums among their k distinct values, and a pair whose r_i > r_j gets the
    # slice of (j, i). As k <= min(n_features, n_y + 1), the key is below
    # (n_y + 1) * k**2 <= ((n_y + 1) * n_features) ** 1.5: it can wrap int64
    # only if (n_y + 1) * n_features >= 2**42, and the float copy of the
    # class's rows that its Gram matrix came from would then take 35 TB.
    sums, rank = np.unique(ones, return_inverse=True)
    k = sums.shape[0]
    # Built in place as n11 * k**2 + r_i + r_j + min(r_i, r_j) * (k - 1), and
    # only the key outlives this: np.unique's working copies set the peak.
    low, high = rank[i], rank[j]
    key = gram[i, j] * (k * k)
    key += low
    key += high
    np.minimum(low, high, out=low)
    low *= k - 1
    key += low
    del low, high
    key, index = np.unique(key, return_inverse=True)
    n11, ones_i, ones_j = key // (k * k), sums[key // k % k], sums[key % k]
    slices = np.stack([total - ones_i - ones_j + n11, ones_j - n11, ones_i - n11, n11], axis=1)
    return slices, index


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the exact error a + b - s (Knuth's TwoSum)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _vec_sum(columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's sum over ``columns`` (m >= 2 equal-length 1-d float64
    arrays) as (r, rho, q_abs): the exact sum is r + rho + sum(q), where
    r = fl(sigma + e), rho is its exact residual and q_abs = sum |q| in
    floating point, which is 0 exactly when every q is 0.

    Two VecSum cascades (Ogita, Rump and Oishi 2005) run in lockstep: the
    first leaves the running sum sigma and the exact error of each step, the
    second folds those errors into e and second-level errors q, so a row's
    exact sum is sigma + e + sum(q). This holds while no step overflows; one
    that does leaves r or q_abs infinite or NaN.
    """
    columns = iter(columns)
    sigma, e = _two_sum(next(columns), next(columns))
    q_abs = np.zeros_like(sigma)
    for x in columns:
        sigma, err = _two_sum(sigma, x)
        e, q = _two_sum(e, err)
        q_abs += np.abs(q)
    r, rho = _two_sum(sigma, e)
    return r, rho, q_abs


def _slice_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row of the (d, 4) slice ``terms`` summed once, as (hi, lo, exact).
    Where ``exact`` (every q of ``_vec_sum`` was 0, and hi is finite),
    hi + lo is the row's exact sum: hi is its correct rounding and lo the
    exact residual. Elsewhere hi and lo are not to be used."""
    hi, lo, q_abs = _vec_sum(terms.T)
    return hi, lo, (q_abs == 0.0) & (np.abs(hi) < math.inf)


def _exact_sums(columns) -> np.ndarray:
    """Each row's correctly rounded sum over ``columns`` (m >= 2 equal-length
    1-d float64 arrays), bit for bit what ``math.fsum`` returns for the row.

    ``_vec_sum`` gives the exact sum as r + rho + sum(q). A row is certified
    when every q is 0 (then r is the IEEE round-half-even of the exact sum,
    which is fsum's rounding), or when a bound on |rho + sum(q)| is below
    half the gap from |r| to the next double toward zero (then r is the only
    double that close, and no tie is possible). The bound sums |q| in
    floating point and inflates it by the (2m u) error of that sum and a
    further 2**-40 for the two roundings of the bound itself. Other rows fall
    back to ``math.fsum``, as do rows whose r is zero (fsum, not IEEE
    addition, picks the sign of a zero sum) or not finite (fsum decides
    whether to raise).
    Only element-wise IEEE operations are used, so the bits do not depend on
    the CPU or the order of the rows.
    """
    columns = list(columns)
    m = len(columns)
    r, rho, q_abs = _vec_sum(columns)
    magnitude = np.abs(r)
    gap = magnitude - np.nextafter(magnitude, 0.0)
    bound = (np.abs(rho) + q_abs * (1.0 + 2.0 * m * 2.0**-53)) * (1.0 + 2.0**-40)
    certified = (q_abs == 0.0) | (bound + bound < gap)
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


def _first_chunk(n_features: int) -> int:
    """Pairs in the first chunk of a ``_RankedPairs`` over ``n_features``.

    A learner reads on until its tree spans what it can: at least n - 1
    accepts, and in practice a few n. At seed 1 of the benchmark, TAN and
    Hie-TAN stop after 1 293-2 271 of the 79 800 pairs of a 400-feature fold
    (3-6 n), and the deepest lazy instance of a 150-feature fold after
    2 008-3 075 of 11 175 (13-21 n). Four n covers the shorter scans in one
    chunk, and doubling reaches the deepest ones in two to three more.
    """
    return 4 * n_features


class _RankedPairs:
    """The pairs of ``rank_edges`` in the same order, sorted one chunk at a
    time as far as a reader iterates.

    Each chunk takes every remaining pair whose score is at least a cut, the
    score of the ``size``-th best remaining pair (``np.partition``), so a
    group of exactly tied pairs never straddles two chunks. A stable argsort
    of minus the score over the chunk's pairs, kept in ascending (i, j)
    order, then sorts it. Every pair of a chunk scores at least its cut and
    every later pair less, so the chunks joined are the order of one stable
    sort of all pairs: descending score, ties by ascending (i, j), bit for
    bit. Chunks double in size; once the next one would reach half of what
    is left, the whole remainder is sorted at once. ``tolist`` sorts all that
    is left in one step, so ``rank_edges`` pays one sort, as a full sort did.

    Each chunk's ``(i, j, score)`` list is built once and kept, so every
    iterator, and every learner a fold shares the object with, reads the same
    lists; iteration chains them in C. ``len`` is the number of pairs.
    """

    __slots__ = ("_i", "_j", "_scores", "_rest", "_next", "_chunks")

    def __init__(self, i: np.ndarray, j: np.ndarray, scores: np.ndarray, first: int):
        self._i, self._j, self._scores = i, j, scores
        self._rest = np.arange(scores.shape[0])  # unsorted pairs, ascending
        self._next = first
        self._chunks: list[list[tuple[int, int, float]]] = []

    def __len__(self) -> int:
        return self._scores.shape[0]

    def __iter__(self):
        return itertools.chain.from_iterable(self._lists())

    def _lists(self):
        chunks = self._chunks
        k = 0
        while k < len(chunks) or self._extend():
            yield chunks[k]
            k += 1

    def _extend(self) -> bool:
        """Sort the next chunk into place; False when no pair is left."""
        rest = self._rest
        if rest.size == 0:
            return False
        scores = self._scores[rest]
        size = self._next
        if 2 * size >= rest.size:
            self._rest = rest[:0]
        else:
            cut = np.partition(scores, rest.size - size)[rest.size - size]
            taken = scores >= cut
            self._rest = rest[~taken]
            rest, scores = rest[taken], scores[taken]
        order = rest[np.argsort(-scores, kind="stable")]
        self._chunks.append(
            list(zip(self._i[order].tolist(), self._j[order].tolist(), self._scores[order].tolist()))
        )
        self._next = 2 * size
        return True

    def tolist(self) -> list[tuple[int, int, float]]:
        """Every pair in order; whatever is still unsorted is sorted at once."""
        self._next = max(self._next, len(self))
        return list(self)


def _check_endpoints(edges, n_features: int) -> None:
    """Raise ``IndexOutOfRange`` unless both endpoints of every candidate lie
    in ``[0, n_features)``. A ``_RankedPairs`` is checked from its index
    arrays, so nothing gets sorted."""
    if isinstance(edges, _RankedPairs):
        i, j = edges._i, edges._j
        if not i.size or (min(i.min(), j.min()) >= 0 and max(i.max(), j.max()) < n_features):
            return
        edges = zip(i.tolist(), j.tolist(), j)  # find the first bad pair
    for i, j, _ in edges:
        if not (0 <= i < n_features and 0 <= j < n_features):
            raise IndexOutOfRange(f"candidate edge ({i}, {j}) outside [0, {n_features})")


def _ranked_pairs(ds: Dataset, dag: FeatureDag, smoothing: float = 1.0) -> _RankedPairs:
    """Score all n(n-1)/2 feature pairs, as ``rank_edges`` does, and return
    them as a ``_RankedPairs`` that sorts them only as far as they are read."""
    smoothing = check_smoothing(smoothing)
    n = ds.n_features
    if n < 2:
        raise ValueError("need at least two features to rank edges")
    if dag.n_features != n:
        raise DimensionMismatch(
            f"dataset has {n} features, hierarchy has {dag.n_features}"
        )
    # triu_indices yields the pairs in ascending (i, j) order, which is the
    # order _RankedPairs breaks exact ties by.
    i, j = np.triu_indices(n, 1)
    classes = []
    for gram, ones, total in ds._class_stats:
        slices, index = _distinct_slices(gram, ones, total, i, j)
        terms = _slice_terms(slices, ds.n_instances, smoothing)
        classes.append((terms, *_slice_sums(terms), index))
    (terms0, hi0, lo0, exact0, index0), (terms1, hi1, lo1, exact1, index1) = classes
    # Each pair sums its two slices' (hi, lo): the same exact sum as its
    # eight terms, so the same correctly rounded score.
    scores = np.empty(i.shape[0])
    for start in range(0, i.shape[0], _BLOCK):
        a, b = index0[start : start + _BLOCK], index1[start : start + _BLOCK]
        scores[start : start + _BLOCK] = _exact_sums([hi0[a], lo0[a], hi1[b], lo1[b]])
    # A pair with a slice whose (hi, lo) is not exact takes fsum over its
    # eight terms instead.
    inexact = np.flatnonzero(~exact0[index0] | ~exact1[index1])
    if inexact.size:
        rows = np.hstack([terms0[index0[inexact]], terms1[index1[inexact]]])
        scores[inexact] = _each(math.fsum, rows)
    return _RankedPairs(i, j, scores, _first_chunk(n))


def rank_edges(
    ds: Dataset, dag: FeatureDag, smoothing: float = 1.0
) -> list[tuple[int, int, float]]:
    """Score all n(n-1)/2 feature pairs as ``(i, j, score)`` tuples with
    ``i < j`` and sort them for the tree learners.

    Descending by score; exact ties fall back to ascending (i, j) so the order
    is reproducible across runs and platforms. Contingency tables for all pairs
    come from the dataset's cached per-class Gram matrices, not a per-pair scan.
    The list is the full read of ``_ranked_pairs``, sorted in one go.
    """
    return _ranked_pairs(ds, dag, smoothing).tolist()
