"""Conditional mutual information scores and the ranked candidate edge list.

``rank_edges`` returns every feature pair as a plain ``(i, j, score)`` tuple
with ``i < j``, sorted for the tree learners; they read only the pair order,
and accept any sized sequence they can iterate more than once in that order.
The learners stop after a few n of the n(n-1)/2 pairs, so the CV loop and
``hietan train`` give them a ``_RankedPairs`` instead: the same pairs in the
same order, bit for bit, scored exactly and sorted one chunk at a time only
as far as a learner reads. ``rank_edges`` is that object read in full.

The score of a pair (X_i, X_j) given class Y is the CMI, with natural logs,

    sum over (x_i, x_j, y) of  P(x_i, x_j, y) * log( P(x_i, x_j | y)
                                                     / (P(x_i | y) P(x_j | y)) ),

of the 8-cell contingency table with additive smoothing s per joint cell;
marginals derive from the smoothed joint. Each score is this CMI computed
exactly, for the exact binary value of s, and rounded once to a double, so
it is non-negative, exactly symmetric in (i, j), and +0.0 exactly when each
class slice factorises. With N instances, N' = N + 8s and T(x) = x ln x, it
is the count form (Chow & Liu 1968; Friedman, Geiger & Goldszmidt 1997)

    N' * CMI(i, j) = sum over the 8 cells of T(c + s)
                     + sum over y of T(N_y + 4s)  -  A_i  -  A_j,
    A_i = sum over y and x of T(c_{i,y,x} + 2s),

with c_{i,y,x} the count of x_i = x in class y. ``_tables`` holds each
T(x) / N' a fold needs as 2**_BITS * T(x) / N' within one unit, from integer
log series (``_entries``; no libm, so no platform dependence). ``_scores``
sums a pair's 18 entries exactly in int64 limbs and rounds once, certified
when no other double lies within the 18 units of error. Other pairs are
settled exactly: +0.0 if every class slice factorises, (c00 + s)(c11 + s) =
(c01 + s)(c10 + s) in exact rationals, else by ``_entries`` at more bits.

A chunk is chosen on coarse keys. ``_keys`` sums only the hi limbs of a
pair's 18 entries: one gather of the 8 cells, with no carry, no float and
no certification, and no log beyond the tables'. An entry is V = hi * 2**52
+ lo with 0 <= lo < 2**52, as are the 8 cells and the class constant, while
a feature term is minus the limb-wise sum of four entries, its lo in
(-4 * 2**52, 0]; so the 11 lo limbs sum to L in (-8 * 2**52, 9 * 2**52).
The exact sum, key * 2**52 + L, lies within 18 units of 2**100 * CMI, and
the score is within 2**-54 of CMI < 1, so 2**48 * score - key lies in
(-8 - 2**-6 - 2**-47, 9 + 2**-6 + 2**-47), inside +-_KEY_ERROR = 10.
``_RankedPairs`` cuts each chunk at a key and scores exactly only the pairs
keyed within 2 * _KEY_ERROR of the cut or above it; the pairs it takes
score above every pair it leaves, so ties never straddle two chunks.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .dataset import Dataset
from .errors import DegenerateDistribution, DimensionMismatch, TooFewFeatures
from .hierarchy import FeatureDag

# Pairs per block of the pair sums: a block's cell counts, gathered limbs
# and float temporaries take some 250 bytes a pair, about a megabyte.
_BLOCK = 4096
# Fraction bits of the fixed-point entries, split as V = hi * 2**_LIMB + lo,
# 0 <= lo < 2**_LIMB. As |ln x| < 745 for any x a double smoothing makes and
# each term's weights x / N' sum to 1, a pair's 18 hi limbs sum to under
# 2**60 in absolute value and its lo limbs to under 2**57. After the carry,
# hi < 2**48 as CMI < 1, so both limbs convert to float64 exactly.
_BITS = 100
_LIMB = 52
_PAIR_ERROR = 18  # a pair's 18 entries, each within one unit
# A pair's key, its hi limbs summed, lies within this of 2**(_BITS - _LIMB)
# times its score (module docstring).
_KEY_ERROR = 10
_NUMBERS = (int, float, np.integer, np.floating)  # a bool is an int: checks exclude it


def check_smoothing(smoothing: float) -> float:
    """The additive smoothing as a float: a Python or NumPy int or float, not
    a bool (else ``TypeError``), finite and non-negative (else ``ValueError``)."""
    if isinstance(smoothing, bool) or not isinstance(smoothing, _NUMBERS):
        raise TypeError(f"smoothing must be a real number, got {smoothing!r}")
    try:
        value = float(smoothing)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"smoothing must be finite and non-negative, got {smoothing!r}")
    return value


def _atanh(p: int, q: int, bits: int) -> int:
    """2**bits * atanh(p / q) for 0 <= 3p <= q, by its series with every
    quotient rounded down: under ``bits`` units low for bits >= 12, as each of
    at most bits / log2(9) + 1 terms loses under 2.2 units and the tail 1.3."""
    p2, q2 = p * p, q * q
    power, total, k = (p << bits) // q, 0, 1
    while power:
        total += power // k
        power, k = power * p2 // q2, k + 2
    return total


def _logs(keys, den: int, bits: int) -> dict[int, int]:
    """2**bits * ln(k / den), within 2 * bits * (2**11 + len(keys)) units,
    for each positive k of ``keys``, with ``den`` a power of two. In
    ascending order, x = k / den takes ln(x - 1) + 2 atanh(1 / (2x - 1)) when
    ln(x - 1) is known and x - 1 >= 1 (adding under 2 * bits units), and else
    e ln 2 + 2 atanh((y - 1) / (y + 1)) for x = 2**e * y, y in [1, 2)
    (under 2 * bits * 2**11 units, as |e| < 1100)."""
    ln2, logs = 2 * _atanh(1, 3, bits), {}
    for k in sorted(keys):
        if k >= 2 * den and k - den in logs:
            logs[k] = logs[k - den] + 2 * _atanh(den, 2 * k - den, bits)
        else:
            e = k.bit_length() - den.bit_length()
            top, bottom = (k, den << e) if e >= 0 else (k << -e, den)
            logs[k] = e * ln2 + 2 * _atanh(top - bottom, top + bottom, bits)
    return logs


def _cells(stats, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(2, 4, pairs) int64 counts of pairs (i[k], j[k]) per class in cells
    (x_i, x_j) = 00, 01, 10, 11, from per-class (Gram, column sums, rows);
    the Gram matrix may hold its counts in any narrower unsigned type."""
    out = np.empty((2, 4, i.shape[0]), dtype=np.int64)
    flat = i * stats[0][0].shape[1] + j  # gram[i, j] of a C-ordered Gram matrix
    for (gram, ones, total), (n00, n01, n10, n11) in zip(stats, out):
        n11[...] = gram.take(flat)  # widened: ``np.take(out=)`` will not cast
        ones_i = ones[i]
        np.subtract(ones_i, n11, out=n10)
        np.subtract(ones[j], n11, out=n01)
        np.subtract(total, ones_i, out=ones_i)
        np.subtract(ones_i, n01, out=n00)
    return out


def _limbs(values) -> np.ndarray:
    """(2, len) int64 limbs (hi, lo) of fixed-point integers."""
    mask = (1 << _LIMB) - 1
    return np.array([[v >> _LIMB for v in values], [v & mask for v in values]], dtype=np.int64)


def _entries(keys, n: int, a: int, den: int, bits: int) -> dict[int, int]:
    """2**bits * T(k / den) / N', N' = n + 8a / den, for each k of ``keys``
    within one unit: rounded, with under a quarter unit of log error, as each
    weight k / (n den + 8a) is at most 1 and extra <= bits (under 2**80 keys)
    makes 2 (bits + extra)(2**11 + len(keys)) <= 2**(extra - 2)."""
    keys = set(keys) - {0}  # T(0) = 0
    extra = 4 + bits.bit_length() + (len(keys) + 2048).bit_length()
    logs, unit = _logs(keys, den, bits + extra), (n * den + 8 * a) << extra
    entries = {k: (2 * k * logs[k] + unit) // (2 * unit) for k in keys}
    entries[0] = 0
    return entries


def _tables(stats, n: int, smoothing: float, cell_counts):
    """Limbs of the ``_entries`` at _BITS: T(c + s) for the counts c of
    ``cell_counts`` (zero or T(c + s) at other counts up to the largest
    class), -A_f for each feature f, and the class terms summed."""
    a, den = smoothing.as_integer_ratio()  # s = a / den
    totals = [total for _, _, total in stats]
    margins = {int(c) for _, ones, total in stats for c in np.concatenate([ones, total - ones])}
    keys = {c * den + a for c in cell_counts} | {t * den + 4 * a for t in totals}
    entry = _entries(keys | {c * den + 2 * a for c in margins}, n, a, den, _BITS)
    cells = _limbs([entry.get(c * den + a, 0) for c in range(max(totals) + 1)])
    margin = _limbs([entry.get(c * den + 2 * a, 0) for c in range(max(totals) + 1)])
    feature = -sum(margin[:, ones] + margin[:, total - ones] for _, ones, total in stats)
    return cells, feature, _limbs([sum(entry[t * den + 4 * a] for t in totals)])


def _pair_tables(stats, n: int, smoothing: float, i: np.ndarray, j: np.ndarray):
    """The ``_tables`` that score the pairs (i[k], j[k]) over per-class
    ``stats`` of ``n`` instances, and any subset of them."""
    if n == 0 and smoothing == 0:
        raise DegenerateDistribution("no instances and no smoothing")
    # Every count up to the largest class when the pairs are many enough to
    # meet most of them, else only the counts they have.
    top = max(total for _, _, total in stats)
    needed = np.unique(_cells(stats, i, j)).tolist() if 8 * len(i) <= top else range(top + 1)
    return _tables(stats, n, smoothing, needed)


def _limb_sums(stats, tables, i: np.ndarray, j: np.ndarray, limbs):
    """Per block of _BLOCK pairs (i[k], j[k]): its start and, for each limb
    of ``limbs`` (0 hi, 1 lo), the int64 sums of that limb of the pairs' 18
    entries."""
    cells, feature, constant = tables
    for start in range(0, i.shape[0], _BLOCK):
        a, b = i[start : start + _BLOCK], j[start : start + _BLOCK]
        counts = _cells(stats, a, b).reshape(8, -1)
        yield start, [cells[k][counts].sum(axis=0) + feature[k][a] + feature[k][b] + constant[k]
                      for k in limbs]


def _keys(stats, tables, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The int64 key of each pair (i[k], j[k]): the sum of its entries' hi
    limbs, within _KEY_ERROR of 2**(_BITS - _LIMB) times its score."""
    keys = np.empty(i.shape[0], dtype=np.int64)
    for start, (hi,) in _limb_sums(stats, tables, i, j, (0,)):
        keys[start : start + _BLOCK] = hi
    return keys


def _scores(stats, n: int, smoothing: float, tables, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The correctly rounded CMI of each pair (i[k], j[k]) over per-class
    ``stats`` of ``n`` instances, as float64, from ``_pair_tables`` of these
    pairs or of a superset."""
    scores, loose = np.empty(i.shape[0], dtype=np.float64), []
    for start, (hi, lo) in _limb_sums(stats, tables, i, j, (0, 1)):
        hi += lo >> _LIMB
        lo &= (1 << _LIMB) - 1
        # hi * 2**52 + lo = whole + rest exactly, rounded to total with exact
        # error (Fast2Sum: |whole| >= 2**52 > rest, or whole = 0). Certified
        # when the exact sum, within |error| + 18 units, lies inside total's
        # rounding interval (the narrower half-gap, below; the factor covers
        # the bound's rounding).
        whole, rest = hi * 2.0**_LIMB, lo.astype(np.float64)
        total = whole + rest
        bound = (np.abs(rest - (total - whole)) + _PAIR_ERROR) * (2.0 + 2.0**-39)
        certified = (total > 0.0) & (bound < total - np.nextafter(total, 0.0))
        scores[start : start + _BLOCK] = total * 2.0**-_BITS
        loose.append(start + np.flatnonzero(~certified))
    loose = np.concatenate(loose)
    slices = np.moveaxis(_cells(stats, i[loose], j[loose]), 2, 0).tolist()
    for k, classes in zip(loose.tolist(), slices):
        scores[k] = _exact_score(classes, n, smoothing)
    return scores


def _exact_score(classes, n: int, smoothing: float) -> float:
    """The correctly rounded CMI of one pair's per-class cells (00, 01, 10,
    11): +0.0 if every class slice factorises in exact rationals, else the
    sum of its 18 signed ``_entries`` as Python ints at 2 * _BITS bits,
    doubling until the sum's error cannot change its rounding. The sum lies
    within 18 units of 2**bits * CMI, and int / int division rounds
    correctly, so equal roundings of its two ends are the CMI's. Doubling
    ends, as a nonzero linear form in logs of rationals is transcendental
    (Baker's theorem) and so no rounding boundary."""
    a, den = smoothing.as_integer_ratio()
    if all((c00 * den + a) * (c11 * den + a) == (c01 * den + a) * (c10 * den + a)
           for c00, c01, c10, c11 in classes):
        return 0.0
    plus, minus = [], []  # the keys k of the count form's terms T(k / den)
    for c00, c01, c10, c11 in classes:
        rows = c00 + c01, c10 + c11
        plus += [c * den + a for c in (c00, c01, c10, c11)] + [sum(rows) * den + 4 * a]
        minus += [c * den + 2 * a for c in rows + (c00 + c10, c01 + c11)]
    bits, low, high = _BITS, 0.0, 1.0
    while low != high:
        bits *= 2
        entry = _entries(plus + minus, n, a, den, bits)
        total = sum(map(entry.get, plus)) - sum(map(entry.get, minus))
        low, high = (total - _PAIR_ERROR) / 2**bits, (total + _PAIR_ERROR) / 2**bits
    return high


def _first_chunk(n_features: int) -> int:
    """Pairs in the first chunk of a ``_RankedPairs`` over ``n_features``.

    A learner reads on until its tree spans what it can: at least n - 1
    accepts, and in practice a few n. At seed 1 of the benchmark, TAN and
    Hie-TAN stop after 1 293-2 271 of the 79 800 pairs of a 400-feature fold
    (3-6 n), and the deepest lazy instance of a 150-feature fold after
    2 008-3 075 of 11 175 (13-21 n). Four n covers the shorter scans in one
    chunk, and doubling reaches the deepest ones in two to three more. Only
    the pairs of the chunks read, and the few whose keys tie a cut, get
    exact scores: 14 409 of the 399 000 pairs of those five 400-feature
    folds (4 n or 12 n a fold).
    """
    return 4 * n_features


@functools.lru_cache(maxsize=1)
def _pairs(n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j), i < j, of ``n_features`` in ascending (i, j) order,
    the order ``_RankedPairs`` breaks exact ties by; read-only, as every fold
    of a run shares them."""
    i, j = np.triu_indices(n_features, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


class _RankedPairs:
    """The pairs of ``rank_edges`` in the same order, sorted one chunk at a
    time as far as a reader iterates, with exact scores only for the pairs
    that a chunk might hold.

    ``coarse()`` gives every pair's key and ``score(k)`` the exact
    scores of the pairs at positions ``k``; each key lies within _KEY_ERROR
    of 2**48 times its pair's score. A chunk's cut is the key of the
    ``size``-th best remaining pair (``np.partition``). Only the pairs keyed
    at least cut - 2 _KEY_ERROR get exact scores, and the chunk takes those
    scoring above theta = (cut - _KEY_ERROR) 2**-48: that is every pair keyed
    at least the cut, so at least ``size`` pairs, and no other remaining pair
    scores above theta. So each chunk pair scores above every later one, and
    a group of exactly tied pairs never straddles two chunks. A stable
    argsort of minus the score over the chunk's pairs, kept in ascending
    (i, j) order, then sorts it, and the chunks joined are the order of one
    stable sort of all pairs: descending score, ties by ascending (i, j), bit
    for bit. Chunks double in size; once the next one would reach half of
    what is left, the whole remainder is scored and sorted at once, with no
    keys. ``tolist`` sorts all that is left in one step, so ``rank_edges``
    scores every pair once and pays one sort, as a full sort did.

    Each chunk's ``(i, j, score)`` list is built once and kept, so every
    iterator, and every learner a fold shares the object with, reads the same
    lists; iteration chains them in C. ``len`` is the number of pairs.
    """

    __slots__ = ("_i", "_j", "_coarse", "_score", "_keys", "_rest", "_next", "_chunks")

    def __init__(self, i: np.ndarray, j: np.ndarray, coarse, score, first: int):
        self._i, self._j, self._coarse, self._score = i, j, coarse, score
        self._keys = None  # made at the first cut
        self._rest = np.arange(i.shape[0])  # unsorted pairs, ascending
        self._next = first
        self._chunks: list[list[tuple[int, int, float]]] = []

    def __len__(self) -> int:
        return self._i.shape[0]

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
        size = self._next
        if 2 * size >= rest.size:
            self._rest = rest[:0]
            scores = self._score(rest)
        else:
            if self._keys is None:
                self._keys = self._coarse()
            keys = self._keys[rest]
            cut = np.partition(keys, rest.size - size)[rest.size - size]
            near = np.flatnonzero(keys >= cut - 2 * _KEY_ERROR)
            scores = self._score(rest[near])
            taken = scores > (cut - _KEY_ERROR) * 2.0 ** (_LIMB - _BITS)
            near, scores = near[taken], scores[taken]
            left = np.ones(rest.size, dtype=bool)
            left[near] = False
            self._rest, rest = rest[left], rest[near]
        order = np.argsort(-scores, kind="stable")
        rest = rest[order]
        self._chunks.append(
            list(zip(self._i[rest].tolist(), self._j[rest].tolist(), scores[order].tolist()))
        )
        self._next = 2 * size
        return True

    def tolist(self) -> list[tuple[int, int, float]]:
        """Every pair in order; whatever is still unsorted is sorted at once."""
        self._next = max(self._next, len(self))
        return list(self)


def _ranked_pairs(ds: Dataset, dag: FeatureDag, smoothing: float = 1.0) -> _RankedPairs:
    """All n(n-1)/2 feature pairs, as ``rank_edges`` ranks them, as a
    ``_RankedPairs`` that scores and sorts them only as far as they are read.
    The fold's fixed-point tables are built here, once, so errors raise
    before any read."""
    smoothing = check_smoothing(smoothing)
    n = ds.n_features
    if n < 2:
        raise TooFewFeatures("need at least two features to rank edges")
    if dag.n_features != n:
        raise DimensionMismatch(
            f"dataset has {n} features, hierarchy has {dag.n_features}"
        )
    stats, m = ds._class_stats, ds.n_instances
    i, j = _pairs(n)
    tables = _pair_tables(stats, m, smoothing, i, j)
    return _RankedPairs(
        i, j,
        lambda: _keys(stats, tables, i, j),
        lambda k: _scores(stats, m, smoothing, tables, i[k], j[k]),
        _first_chunk(n),
    )


def rank_edges(
    ds: Dataset, dag: FeatureDag, smoothing: float = 1.0
) -> list[tuple[int, int, float]]:
    """Score all n(n-1)/2 feature pairs as ``(i, j, score)`` tuples with
    ``i < j`` and sort them for the tree learners.

    Descending by score; exact ties fall back to ascending (i, j) so the order
    is reproducible across runs and platforms. Contingency tables for all pairs
    come from the dataset's cached per-class Gram matrices, not a per-pair scan.
    The list is the full read of ``_ranked_pairs``: every pair scored exactly
    in one pass and sorted in one go, with no keys.
    """
    return _ranked_pairs(ds, dag, smoothing).tolist()
