"""Cross-validated experiments, GMean, tied average ranks, Friedman + Holm.

GMean is the square root of sensitivity times specificity (class 1 counts as
positive; the product makes the choice immaterial). Methods are ranked per
block with rank 1 for the highest GMean and tied ranks averaged; the Friedman
chi-square statistic and the Holm step-down correction compare every method
against the best-ranked control.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .bayes import FittedClassifier, _lazy_predict, fit, predict_batch
from .dataset import Dataset, _binary_copy, _violates, stratified_folds, subset
from .errors import (
    DegenerateRanks,
    IncompleteTable,
    TooFewInstances,
    UndefinedClassSide,
)
from .hierarchy import FeatureDag
from .mutual_info import _ranked_pairs
from .structure import _as_tree, _grow, _tan

METHOD_TAN = "tan"
METHOD_HIE_TAN = "hie_tan"
METHOD_HIE_TAN_LITE = "hie_tan_lite"

# Each method's ``(learner, per_row)``, the one map from a method to its
# learner. A learner is ``(edges, dag, seed, values, trace) -> (parents,
# active)``, parents -1 for a root: an eager method learns one tree with
# ``values=None`` (its mask is ignored), a per-row method one tree and mask
# per test row. Each is a public learner's unchecked core, as
# ``_ranked_pairs`` yields only pairs in range.
_METHODS = {
    METHOD_TAN: (lambda edges, dag, seed, values, trace:
                 (_tan(edges, dag.n_features, seed), None), False),
    METHOD_HIE_TAN: (_grow, False),
    METHOD_HIE_TAN_LITE: (_grow, True),
}
ALL_METHODS = tuple(_METHODS)


def derive_seed(*parts: int) -> int:
    """Stable 32-bit FNV-1a mix of integer parts; keeps per-fold and
    per-instance randomness reproducible regardless of evaluation order."""
    h = 0x811C9DC5
    for part in parts:
        for b in int(part).to_bytes(8, "little", signed=True):
            h ^= b
            h = (h * 0x01000193) & 0xFFFFFFFF
    return h


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion_from_predictions(labels, predicted) -> ConfusionCounts:
    """Counts of ``predicted`` against ``labels``, class 1 positive; the two
    must have the same length (``ValueError`` otherwise) and hold only 0 or
    1 (``NonBinaryValue`` otherwise)."""
    truth, guess = _binary_copy(labels, "labels"), _binary_copy(predicted, "predictions")
    if truth.shape != guess.shape:
        raise ValueError(f"labels and predictions differ in shape: {truth.shape} and {guess.shape}")
    tn, fp, fn, tp = np.bincount(2 * truth + guess, minlength=4).tolist()
    return ConfusionCounts(tp, fp, tn, fn)


def gmean(c: ConfusionCounts) -> float:
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise UndefinedClassSide(
            "a class is absent from the test set; sensitivity or specificity "
            "is undefined"
        )
    sensitivity = c.tp / (c.tp + c.fn)
    specificity = c.tn / (c.tn + c.fp)
    return float(np.sqrt(sensitivity * specificity))


@dataclass(frozen=True)
class RankTable:
    methods: tuple[str, ...]
    gmeans: np.ndarray  # (n_blocks, n_methods)
    ranks: np.ndarray  # (n_blocks, n_methods), rank 1 = best
    average_rank: dict[str, float]
    wins: dict[str, int]


def average_ranks(gmeans_by_method: Mapping[str, Sequence[float]]) -> RankTable:
    """Tied average ranks per block (dataset), rank 1 for the highest GMean.
    Every score must be finite (``ValueError`` otherwise)."""
    from scipy import stats  # slow to import, and only the statistics need it

    methods = tuple(gmeans_by_method)
    if not methods:
        raise IncompleteTable("no methods in the table")
    columns = [np.asarray(gmeans_by_method[m], dtype=np.float64) for m in methods]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise IncompleteTable("methods cover different numbers of datasets")
    if lengths == {0}:
        raise IncompleteTable("the table has no datasets")
    table = np.column_stack(columns)
    if not np.isfinite(table).all():
        b, k = np.argwhere(~np.isfinite(table))[0].tolist()
        raise ValueError(f"method {methods[k]!r} scores {table[b, k]} on block {b}, not a finite number")
    ranks = stats.rankdata(-table, method="average", axis=1)
    best = table == table.max(axis=1, keepdims=True)
    avg = {m: float(ranks[:, k].mean()) for k, m in enumerate(methods)}
    wins = {m: int(best[:, k].sum()) for k, m in enumerate(methods)}
    return RankTable(methods, table, ranks, avg, wins)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be an integer in [0, 2**63), got {seed}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class HolmComparison:
    method: str
    z: float
    p_value: float
    adjusted_alpha: float
    significant: bool


@dataclass(frozen=True)
class FriedmanHolmResult:
    control: str
    statistic: float
    p_value: float
    comparisons: tuple[HolmComparison, ...]


def friedman_holm(table: RankTable, alpha: float = 0.05) -> FriedmanHolmResult:
    """Friedman chi-square over the rank table plus Holm step-down pairwise
    comparisons of every method against the best-ranked control.

    Comparisons are reported in ascending average-rank order, each with the
    threshold its p-value was compared against (alpha, alpha/2, ... when the
    p-values are monotone in rank distance, which they always are here).
    """
    from scipy import stats

    _check_alpha(alpha)
    k = len(table.methods)
    n_blocks = table.ranks.shape[0]
    if k < 2 or n_blocks < 2:
        raise DegenerateRanks(
            "Friedman / Holm needs at least two methods and two datasets"
        )
    # Ascending average rank, ties in table order: the control, then the rest.
    r = np.array([table.average_rank[m] for m in table.methods])
    control, *others = np.argsort(r, kind="stable").tolist()
    chi2 = (12.0 * n_blocks / (k * (k + 1))) * (
        float(np.sum(r**2)) - k * (k + 1) ** 2 / 4.0
    )
    overall_p = float(stats.chi2.sf(chi2, k - 1))

    z = (r[others] - r[control]) / np.sqrt(k * (k + 1) / (6.0 * n_blocks))
    p = 2.0 * stats.norm.sf(np.abs(z))
    # Holm's order: ascending p; equal p keep the order of ``others``, which
    # is average rank then table order. The i-th (from 0) of m is tested at
    # alpha / (m - i), and the first failure stops the step-down.
    holm, m = np.argsort(p, kind="stable"), len(others)
    threshold, passed = np.empty(m), np.empty(m, dtype=bool)
    threshold[holm] = alpha / (m - np.arange(m))
    passed[holm] = np.logical_and.accumulate(p[holm] <= threshold[holm])
    comparisons = tuple(
        HolmComparison(table.methods[i], *row)
        for i, *row in zip(others, z.tolist(), p.tolist(), threshold.tolist(), passed.tolist())
    )
    return FriedmanHolmResult(table.methods[control], float(chi2), overall_p, comparisons)


@dataclass(frozen=True)
class FeatureUsageReport:
    """Per-feature usage counts accumulated over all test-instance trees."""

    freq_of_selection: np.ndarray
    freq_in_edges: np.ndarray

    def top(self, criterion: str, n: int, feature_names: Sequence[str]):
        """The ``n`` features with the highest count under ``criterion``
        (``"freq_of_selection"`` or ``"freq_in_edges"``), ties by index."""
        if criterion not in ("freq_of_selection", "freq_in_edges"):
            raise ValueError(
                f"criterion must be 'freq_of_selection' or 'freq_in_edges', got {criterion!r}"
            )
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        counts = getattr(self, criterion)
        order = sorted(range(len(counts)), key=lambda f: (-int(counts[f]), f))
        return [(feature_names[f], int(counts[f])) for f in order[:n]]


@dataclass(frozen=True)
class MethodCvResult:
    fold_counts: tuple[ConfusionCounts, ...]
    fold_gmeans: tuple[float, ...]
    mean_gmean: float
    usage: Optional[FeatureUsageReport]


@dataclass(frozen=True)
class ExperimentResult:
    methods: dict[str, MethodCvResult]
    k: int
    seed: int
    smoothing: float
    n_instances: int
    n_features: int


def _per_row(learn, edges, dag: FeatureDag, train: Dataset, X: np.ndarray, seeds,
             smoothing: float, trace):
    """The per-row methods' one path: ``learn`` once for each 0/1 row r of
    ``X`` under ``seeds[r]``, traced through ``trace(r)`` unless ``trace`` is
    None, then one ``_lazy_predict`` pass over all rows. Returns the labels,
    the (R, 2) log posteriors and the (R, n) parents (-1 for a root) and
    active masks; row r is ``predict(fit(train, tree_r, active_r,
    smoothing), X[r])``."""
    parents = np.empty(X.shape, dtype=np.intp)
    active = np.empty(X.shape, dtype=bool)
    for r, values in enumerate(X.tolist()):
        parents[r], active[r] = learn(edges, dag, seeds[r], values,
                                      None if trace is None else trace(r))
    return (*_lazy_predict(train, X, parents, active, smoothing), parents, active)


def run_cv_experiment(
    ds: Dataset,
    dag: FeatureDag,
    methods: Sequence[str],
    k: int,
    seed: int,
    smoothing: float = 1.0,
    jobs: int = 1,
    trace_sink: Optional[Callable[[dict], None]] = None,
) -> ExperimentResult:
    """Stratified k-fold evaluation of the requested methods.

    Edges are ranked once per training fold and shared by all methods, each
    run through its learner in ``_METHODS``. An eager method builds one tree
    per fold under ``derive_seed(seed, fold)`` and classifies the fold's
    test rows with ``fit`` and ``predict_batch``. A per-row method runs the
    fold's test rows through ``_per_row``, each instance under
    ``derive_seed(seed, fold, instance_row)``, and its usage counts are
    added up from the parent and active arrays that returns. ``seed`` must
    lie in [0, 2**63), and each class needs at least ``k`` instances, so
    that every test fold holds both (``TooFewInstances`` otherwise, before
    any fold is ranked). ``jobs`` is accepted and ignored: every run is
    single-threaded, and the parameter stays only for callers that still
    pass it.
    """
    _check_seed(seed)
    if isinstance(methods, str):
        raise TypeError(f"methods must be a sequence of method names, not the string {methods!r}")
    methods = list(dict.fromkeys(methods))
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {tuple(_METHODS)}")
    if not methods:
        raise ValueError("no methods requested")
    if _violates(ds, dag):
        warnings.warn(
            "dataset violates the hierarchy propagation rule; consider repairing",
            stacklevel=2,
        )

    folds = stratified_folds(ds, k, seed)
    # The folds share one pointer, so a class with fewer than k instances
    # is missing from some test fold, whose GMean is then undefined.
    counts = np.bincount(ds.labels, minlength=2)
    cls = int(counts.argmin())
    if counts[cls] < k:
        raise TooFewInstances(f"class {cls} has {counts[cls]} instances, fewer than the {k} "
                              "folds: some test fold would not hold it")
    n = ds.n_features
    fold_counts: dict[str, list[ConfusionCounts]] = {m: [] for m in methods}
    usage = {m: (np.zeros(n, np.int64), np.zeros(n, np.int64)) for m in methods if _METHODS[m][1]}

    def tagged(method: str, fold: int, instance=None):
        """The trace callback of one tree: tags each entry and passes it on."""
        if trace_sink is None:
            return None
        tag = {"method": method, "fold": fold}
        if instance is not None:
            tag["instance"] = int(instance)
        return lambda entry: trace_sink({**tag, **entry})

    for fold in range(k):
        train_idx = folds.train_indices(fold)
        test_idx = folds.test_indices(fold)
        # The last fold's ranked pairs score from its statistics: release
        # them before this fold's are built.
        edges = None
        train = subset(ds, train_idx)
        edges = _ranked_pairs(train, dag, smoothing)
        fold_seed = derive_seed(seed, fold)
        truths, X = ds.labels[test_idx], ds.values[test_idx]

        for method in methods:
            learn, per_row = _METHODS[method]
            if not per_row:
                parents = learn(edges, dag, fold_seed, None, tagged(method, fold))[0]
                clf = fit(train, _as_tree(parents), None, smoothing)
                predicted = predict_batch(clf, X)[0]
            else:
                seeds = [derive_seed(seed, fold, r) for r in test_idx.tolist()]
                trace = None if trace_sink is None else lambda r: tagged(method, fold, test_idx[r])
                predicted, _, parents, active = _per_row(
                    learn, edges, dag, train, X, seeds, smoothing, trace)
                selection, in_edges = usage[method]
                selection += active.sum(axis=0)
                child = parents >= 0  # one per tree edge
                in_edges += child.sum(axis=0) + np.bincount(parents[child], minlength=n)
            fold_counts[method].append(confusion_from_predictions(truths, predicted))

    out: dict[str, MethodCvResult] = {}
    for method in methods:
        counts = tuple(fold_counts[method])
        gmeans = tuple(gmean(c) for c in counts)
        report = FeatureUsageReport(*usage[method]) if method in usage else None
        out[method] = MethodCvResult(counts, gmeans, float(np.mean(gmeans)), report)
    return ExperimentResult(out, k, seed, float(smoothing), ds.n_instances, n)


def _train(ds: Dataset, dag: FeatureDag, method: str, seed: int,
           smoothing: float) -> FittedClassifier:
    """The eager ``method``'s classifier on every row of ``ds``: the pairs
    ranked over all rows, the tree under ``derive_seed(seed, 0)`` (the seed
    of a CV run's first fold), then ``fit``. ``seed`` must lie in [0, 2**63)."""
    _check_seed(seed)
    learn = _METHODS[method][0]
    parents = learn(_ranked_pairs(ds, dag, smoothing), dag, derive_seed(seed, 0), None, None)[0]
    return fit(ds, _as_tree(parents), None, smoothing)


def fold_rank_summary(
    result: ExperimentResult, alpha: float = 0.05
) -> tuple[Optional[RankTable], Optional[FriedmanHolmResult]]:
    """Rank the methods fold-by-fold (folds play the role of datasets)."""
    _check_alpha(alpha)
    if len(result.methods) < 2:
        return None, None
    table = average_ranks(
        {m: r.fold_gmeans for m, r in result.methods.items()}
    )
    holm = friedman_holm(table, alpha) if result.k >= 2 else None
    return table, holm
