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

from .bayes import _lazy_predict, fit, predict_batch
from .dataset import Dataset, stratified_folds, subset, validate_propagation
from .errors import (
    DegenerateRanks,
    IncompleteTable,
    UndefinedClassSide,
)
from .hie_mst import _grow, hie_mst
from .hierarchy import FeatureDag
from .mutual_info import _ranked_pairs
from .tan import learn_tan_structure

METHOD_TAN = "tan"
METHOD_HIE_TAN = "hie_tan"
METHOD_HIE_TAN_LITE = "hie_tan_lite"
ALL_METHODS = (METHOD_TAN, METHOD_HIE_TAN, METHOD_HIE_TAN_LITE)


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
    tp = fp = tn = fn = 0
    for truth, guess in zip(labels, predicted, strict=True):
        if truth == 1:
            if guess == 1:
                tp += 1
            else:
                fn += 1
        else:
            if guess == 1:
                fp += 1
            else:
                tn += 1
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
    """Tied average ranks per block (dataset), rank 1 for the highest GMean."""
    from scipy import stats  # slow to import, and only the statistics need it

    methods = tuple(gmeans_by_method)
    if not methods:
        raise IncompleteTable("no methods in the table")
    columns = [np.asarray(gmeans_by_method[m], dtype=np.float64) for m in methods]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise IncompleteTable("methods cover different numbers of datasets")
    (n_blocks,) = lengths
    if n_blocks == 0:
        raise IncompleteTable("the table has no datasets")
    table = np.column_stack(columns)
    ranks = np.vstack(
        [stats.rankdata(-table[b], method="average") for b in range(n_blocks)]
    )
    avg = {m: float(ranks[:, idx].mean()) for idx, m in enumerate(methods)}
    row_max = table.max(axis=1)
    wins = {
        m: int(np.sum(table[:, idx] == row_max)) for idx, m in enumerate(methods)
    }
    return RankTable(methods, table, ranks, avg, wins)


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
    avg = table.average_rank
    control = min(table.methods, key=lambda m: (avg[m], table.methods.index(m)))

    r = np.array([avg[m] for m in table.methods])
    chi2 = (12.0 * n_blocks / (k * (k + 1))) * (
        float(np.sum(r**2)) - k * (k + 1) ** 2 / 4.0
    )
    overall_p = float(stats.chi2.sf(chi2, k - 1))

    se = np.sqrt(k * (k + 1) / (6.0 * n_blocks))
    others = [m for m in table.methods if m != control]
    raw = []
    for m in others:
        z = (avg[m] - avg[control]) / se
        p = float(2.0 * stats.norm.sf(abs(z)))
        raw.append((m, float(z), p))

    m_cnt = len(raw)
    by_p = sorted(range(m_cnt), key=lambda idx: (raw[idx][2], avg[raw[idx][0]]))
    adjusted = {}
    significant = {}
    alive = True
    for pos, idx in enumerate(by_p):
        method, _, p = raw[idx]
        threshold = alpha / (m_cnt - pos)
        adjusted[method] = threshold
        if alive and p <= threshold:
            significant[method] = True
        else:
            alive = False
            significant[method] = False

    ordered = sorted(raw, key=lambda t: (avg[t[0]], table.methods.index(t[0])))
    comparisons = tuple(
        HolmComparison(m, z, p, adjusted[m], significant[m]) for m, z, p in ordered
    )
    return FriedmanHolmResult(control, float(chi2), overall_p, comparisons)


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

    Edges are ranked once per training fold and shared by all methods. The
    eager learners build one tree per fold under ``derive_seed(seed, fold)``
    and classify the fold's test rows with ``fit`` and ``predict_batch``.
    The lazy learner builds one tree per test instance under
    ``derive_seed(seed, fold, instance_row)`` with the learners' shared pass,
    called directly: the ranked pairs and the dataset's rows need none of
    ``hie_mst_lite``'s checks, and each tree stays a row of parents. One pass
    over the training fold's cached statistics then classifies all of the
    fold's instances, each exactly as
    ``predict(fit(train, tree, active, smoothing), instance)`` would, and the
    usage counts are added up from the same per-fold arrays of parents and
    active features. ``jobs`` is accepted and ignored: every run is
    single-threaded, and the parameter stays only for callers that
    still pass it.
    """
    methods = list(dict.fromkeys(methods))
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {ALL_METHODS}")
    if not methods:
        raise ValueError("no methods requested")
    if validate_propagation(ds, dag):
        warnings.warn(
            "dataset violates the hierarchy propagation rule; consider repairing",
            stacklevel=2,
        )

    folds = stratified_folds(ds, k, seed)
    n = ds.n_features
    fold_counts: dict[str, list[ConfusionCounts]] = {m: [] for m in methods}
    usage_selection = np.zeros(n, dtype=np.int64)
    usage_edges = np.zeros(n, dtype=np.int64)

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
        train = subset(ds, train_idx)
        edges = _ranked_pairs(train, dag, smoothing)
        fold_seed = derive_seed(seed, fold)
        truths = ds.labels[test_idx]

        for method in methods:
            if method in (METHOD_TAN, METHOD_HIE_TAN):
                if method == METHOD_TAN:
                    tree = learn_tan_structure(edges, n, fold_seed)
                else:
                    tree = hie_mst(edges, dag, n, fold_seed, tagged(method, fold))
                clf = fit(train, tree, None, smoothing)
                predicted = predict_batch(clf, ds.values[test_idx])[0].tolist()
            else:
                # Each row of these is one test instance's tree: each feature's
                # parent (-1 for a root) and whether the feature stayed active.
                parents = np.empty((len(test_idx), n), dtype=np.intp)
                active = np.empty((len(test_idx), n), dtype=bool)
                for row, r in enumerate(test_idx):
                    parents[row], active[row] = _grow(
                        edges, dag, derive_seed(seed, fold, int(r)),
                        ds.values[r].tolist(), tagged(method, fold, r),
                    )
                predicted = _lazy_predict(
                    train, ds.values[test_idx], parents, active, smoothing
                )[0].tolist()
                usage_selection += active.sum(axis=0)
                child = parents >= 0  # one per tree edge
                usage_edges += child.sum(axis=0) + np.bincount(parents[child], minlength=n)
            fold_counts[method].append(confusion_from_predictions(truths, predicted))

    out: dict[str, MethodCvResult] = {}
    for method in methods:
        counts = tuple(fold_counts[method])
        gmeans = tuple(gmean(c) for c in counts)
        usage = None
        if method == METHOD_HIE_TAN_LITE:
            usage = FeatureUsageReport(usage_selection.copy(), usage_edges.copy())
        out[method] = MethodCvResult(
            counts, gmeans, float(np.mean(gmeans)), usage
        )
    return ExperimentResult(out, k, seed, float(smoothing), ds.n_instances, n)


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
