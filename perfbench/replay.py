"""Traced replay of a workload's job from the library's public calls.

The replay makes the same calls as ``run_cv_experiment`` (or the scoring job)
in the same order with the same seeds, times each call into a layer, and must
reproduce the job's outputs exactly; otherwise its per-layer numbers would
describe some other program. Decision counts come from a second, untimed pass
that hands the structure learners a ``trace=`` callback, so the timed pass
carries no tracing cost and the counts repeat exactly.
"""

from __future__ import annotations

import math
import statistics
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from workloads import (
    SMOOTHING,
    Inputs,
    Workload,
    derive_seed,
    score_doc,
    score_job,
)
from hietan import (
    average_ranks,
    fit,
    friedman_holm,
    gmean,
    hie_mst,
    hie_mst_lite,
    learn_tan_structure,
    predict,
    rank_edges,
    stratified_folds,
    subset,
    validate_propagation,
)
from hietan.evaluate import confusion_from_predictions

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("dataset.load_s", "s"),
    ("dataset.rows_loaded", "count"),
    ("dataset.validate_s", "s"),
    ("dataset.folds_s", "s"),
    ("hierarchy.build_s", "s"),
    ("hierarchy.related_pairs", "count"),
    ("mutual_info.rank_s", "s"),
    ("mutual_info.pairs_scored", "count"),
    ("mutual_info.pairs_per_s", "1/s"),
    ("tan.learn_s", "s"),
    ("hie_mst.learn_s", "s"),
    ("hie_mst.accepted", "count"),
    ("hie_mst.rejected_cycle", "count"),
    ("hie_mst.rejected_single_parent", "count"),
    ("hie_mst.oriented_propagation", "count"),
    ("hie_mst.oriented_random", "count"),
    ("hie_mst.dropped_edges", "count"),
    ("hie_mst_lite.learn_s", "s"),
    ("hie_mst_lite.instance_ms_p50", "ms"),
    ("hie_mst_lite.instance_ms_p95", "ms"),
    ("hie_mst_lite.candidates_scanned", "count"),
    ("hie_mst_lite.accepted", "count"),
    ("hie_mst_lite.rejected_cycle", "count"),
    ("hie_mst_lite.rejected_unavailable", "count"),
    ("hie_mst_lite.rejected_redundant", "count"),
    ("hie_mst_lite.rejected_single_parent", "count"),
    ("hie_mst_lite.relative_removed", "count"),
    ("hie_mst_lite.dropped_edges", "count"),
    ("hie_mst_lite.active_features_mean", "count"),
    ("hie_mst_lite.scan_useful_ratio", "ratio"),
    ("bayes.fit_s", "s"),
    ("bayes.fit_calls", "count"),
    ("bayes.predict_s", "s"),
    ("bayes.predict_rows", "count"),
    ("bayes.predict_us_per_row", "us"),
    ("bayes.model_io_s", "s"),
    ("evaluate.stats_s", "s"),
    ("evaluate.self_s", "s"),
    ("evaluate.pool_job_s", "s"),
    ("trace_overhead_s", "s"),
)

# Layers whose calls make up one job; the job's wall time minus their sum is
# the time spent in the job's own code (evaluate.self_s).
JOB_LAYERS = (
    "dataset.validate", "dataset.folds", "mutual_info.rank", "tan.learn",
    "hie_mst.learn", "hie_mst_lite.learn", "bayes.fit", "bayes.predict",
    "bayes.model_io",
)

# Decisions the learners note once per candidate edge they examine.
_SCAN_DECISIONS = (
    "rejected_cycle", "rejected_unavailable", "rejected_redundant",
    "accepted_directed", "accepted_undirected", "rejected_single_parent",
)


class Spans:
    """Durations of the calls into each layer, kept in memory."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def __call__(self, layer: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.durations[layer].append(perf_counter() - start)

    def total(self, layer: str) -> float:
        return math.fsum(self.durations.get(layer, ()))


@dataclass
class FoldTrace:
    fold: int
    fold_seed: int
    edges: list
    test_idx: np.ndarray


@dataclass
class Replay:
    """What the timed pass produced: the job's output document, every tree it
    learned keyed by (method, fold, instance), and what the counter pass
    needs to run the learners again."""

    doc: dict
    trees: dict = field(default_factory=dict)
    actives: list = field(default_factory=list)
    folds: list = field(default_factory=list)
    pairs_scored: int = 0
    predict_rows: int = 0
    fit_calls: int = 0
    wall_s: float = 0.0


def replay_cv(w: Workload, inputs: Inputs, seed: int, spans: Spans) -> Replay:
    """``run_cv_experiment`` with ``jobs=1``, call by call."""
    ds, dag = inputs.data, inputs.dag
    n = ds.n_features
    counts = {m: [] for m in w.methods}
    usage_selection = np.zeros(n, dtype=np.int64)
    usage_edges = np.zeros(n, dtype=np.int64)
    rep = Replay(doc={})
    start = perf_counter()
    with spans("dataset.validate"):
        validate_propagation(ds, dag)
    with spans("dataset.folds"):
        folds = stratified_folds(ds, w.folds, seed)
    for fold in range(w.folds):
        with spans("dataset.folds"):
            test_idx = folds.test_indices(fold)
            train = subset(ds, folds.train_indices(fold))
        with spans("mutual_info.rank"):
            edges = rank_edges(train, dag, SMOOTHING)
        rep.pairs_scored += len(edges)
        fold_seed = derive_seed(seed, fold)
        rep.folds.append(FoldTrace(fold, fold_seed, edges, test_idx))
        truths = ds.labels[test_idx]
        for method in w.methods:
            if method == "hie_tan_lite":
                predicted = []
                for r in test_idx:
                    row = ds.values[r]
                    with spans("hie_mst_lite.learn"):
                        tree, active = hie_mst_lite(
                            edges, dag, row, n, derive_seed(seed, fold, int(r))
                        )
                    with spans("bayes.fit"):
                        clf = fit(train, tree, active, SMOOTHING)
                    with spans("bayes.predict"):
                        predicted.append(predict(clf, row).label)
                    rep.trees[method, fold, int(r)] = tree
                    rep.actives.append(len(active))
                    for f in active:
                        usage_selection[f] += 1
                    for p, c in tree.edges():
                        usage_edges[p] += 1
                        usage_edges[c] += 1
                rep.fit_calls += len(test_idx)
            else:
                if method == "tan":
                    with spans("tan.learn"):
                        tree = learn_tan_structure(edges, n, fold_seed)
                else:
                    with spans("hie_mst.learn"):
                        tree = hie_mst(edges, dag, n, fold_seed)
                with spans("bayes.fit"):
                    clf = fit(train, tree, None, SMOOTHING)
                with spans("bayes.predict"):
                    predicted = [predict(clf, ds.values[r]).label for r in test_idx]
                rep.trees[method, fold, None] = tree
                rep.fit_calls += 1
            rep.predict_rows += len(test_idx)
            counts[method].append(confusion_from_predictions(truths, predicted))
    rep.wall_s = perf_counter() - start

    methods = {}
    with spans("evaluate.stats"):
        for m in w.methods:
            gmeans = [gmean(c) for c in counts[m]]
            methods[m] = {
                "folds": [[c.tp, c.fp, c.tn, c.fn] for c in counts[m]],
                "gmeans": gmeans,
                "mean_gmean": float(np.mean(gmeans)),
                "usage": None,
            }
        if len(w.methods) >= 2:
            friedman_holm(average_ranks({m: methods[m]["gmeans"] for m in w.methods}))
    if "hie_tan_lite" in methods:
        methods["hie_tan_lite"]["usage"] = [
            usage_selection.tolist(), usage_edges.tolist()
        ]
    rep.doc = {"methods": methods}
    return rep


def replay_score(inputs: Inputs, seed: int, spans: Spans, workdir) -> Replay:
    """The scoring job with a timer around each call into a layer."""
    start = perf_counter()
    out = score_job(inputs, seed, workdir, spans)
    rep = Replay(doc=score_doc(out, inputs.score.labels), wall_s=perf_counter() - start)
    rep.trees["hie_tan", 0, None] = out.tree
    rep.folds.append(
        FoldTrace(0, derive_seed(seed, 0), out.edges, np.zeros(0, dtype=np.int64))
    )
    rep.pairs_scored = len(out.edges)
    rep.predict_rows = len(out.predictions)
    rep.fit_calls = 1
    return rep


class _Decisions:
    """``trace=`` callback that counts the learner's decisions and remembers
    how far into the candidate list the last accepted edge sat."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.scanned = 0
        self.last_accepted = 0

    def __call__(self, entry: dict) -> None:
        decision = entry["decision"]
        self.counts[decision] += 1
        if decision in _SCAN_DECISIONS:
            self.scanned += 1
            if decision.startswith("accepted"):
                self.last_accepted = self.scanned


def _counted(learner, *args):
    """Run a learner with a decision callback, capturing the warnings it
    raises when residual orientation drops an edge. Each drop also notes a
    ``rejected_single_parent`` after the scan, so drops are moved out of that
    count and out of the scanned-candidate count."""
    decisions = _Decisions()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = learner(*args, trace=decisions)
    dropped = sum(
        1 for w in caught
        if issubclass(w.category, RuntimeWarning) and str(w.message).startswith("dropping edge")
    )
    c = decisions.counts
    c["dropped_edges"] = dropped
    c["rejected_single_parent"] -= dropped
    c["accepted"] = c["accepted_directed"] + c["accepted_undirected"]
    decisions.scanned -= dropped
    return out, decisions


def count_decisions(w: Workload, inputs: Inputs, seed: int, rep: Replay) -> tuple[dict, list[str]]:
    """The untimed counter pass. Returns the counters and any tree that came
    out differently from the timed pass."""
    dag, values, n = inputs.dag, inputs.data.values, inputs.data.n_features
    eager: Counter = Counter()
    lite: Counter = Counter()
    scanned = 0
    useful = []
    mismatches = []
    for ft in rep.folds:
        if "hie_tan" in w.methods:
            tree, d = _counted(hie_mst, ft.edges, dag, n, ft.fold_seed)
            eager.update(d.counts)
            if tree != rep.trees["hie_tan", ft.fold, None]:
                mismatches.append(f"hie_tan fold {ft.fold}: counted tree differs")
        if "hie_tan_lite" not in w.methods:
            continue
        for r in ft.test_idx:
            inst_seed = derive_seed(seed, ft.fold, int(r))
            (tree, _), d = _counted(hie_mst_lite, ft.edges, dag, values[r], n, inst_seed)
            lite.update(d.counts)
            scanned += d.scanned
            useful.append(d.last_accepted / len(ft.edges))
            if tree != rep.trees["hie_tan_lite", ft.fold, int(r)]:
                mismatches.append(f"hie_tan_lite fold {ft.fold} row {r}: counted tree differs")
    out = {
        "hie_mst.accepted": eager["accepted"],
        "hie_mst.rejected_cycle": eager["rejected_cycle"],
        "hie_mst.rejected_single_parent": eager["rejected_single_parent"],
        "hie_mst.oriented_propagation": eager["oriented_by_propagation"],
        "hie_mst.oriented_random": eager["oriented_randomly"],
        "hie_mst.dropped_edges": eager["dropped_edges"],
        "hie_mst_lite.candidates_scanned": scanned,
        "hie_mst_lite.accepted": lite["accepted"],
        "hie_mst_lite.rejected_cycle": lite["rejected_cycle"],
        "hie_mst_lite.rejected_unavailable": lite["rejected_unavailable"],
        "hie_mst_lite.rejected_redundant": lite["rejected_redundant"],
        "hie_mst_lite.rejected_single_parent": lite["rejected_single_parent"],
        "hie_mst_lite.relative_removed": lite["relative_removed"],
        "hie_mst_lite.dropped_edges": lite["dropped_edges"],
        "hie_mst_lite.scan_useful_ratio": statistics.fmean(useful) if useful else 0.0,
    }
    return out, mismatches


def layer_metrics(spans: Spans, rep: Replay, inputs: Inputs, job_wall_s: float) -> dict:
    """Per-layer timings and counts of the timed pass (decision counters are
    added by ``count_decisions``)."""
    lite_ms = [1000.0 * d for d in spans.durations.get("hie_mst_lite.learn", ())]
    rank_s = spans.total("mutual_info.rank")
    predict_s = spans.total("bayes.predict")
    rows = inputs.data.n_instances + (inputs.score.n_instances if inputs.score else 0)
    dag = inputs.dag
    return {
        "dataset.load_s": spans.total("dataset.load"),
        "dataset.rows_loaded": rows,
        "dataset.validate_s": spans.total("dataset.validate"),
        "dataset.folds_s": spans.total("dataset.folds"),
        "hierarchy.build_s": spans.total("hierarchy.build"),
        "hierarchy.related_pairs": sum(len(r) for r in dag.related_ixs) // 2,
        "mutual_info.rank_s": rank_s,
        "mutual_info.pairs_scored": rep.pairs_scored,
        "mutual_info.pairs_per_s": rep.pairs_scored / rank_s if rank_s else 0.0,
        "tan.learn_s": spans.total("tan.learn"),
        "hie_mst.learn_s": spans.total("hie_mst.learn"),
        "hie_mst_lite.learn_s": spans.total("hie_mst_lite.learn"),
        "hie_mst_lite.instance_ms_p50": statistics.median(lite_ms) if lite_ms else 0.0,
        "hie_mst_lite.instance_ms_p95": _p95(lite_ms),
        "hie_mst_lite.active_features_mean": (
            statistics.fmean(rep.actives) if rep.actives else 0.0
        ),
        "bayes.fit_s": spans.total("bayes.fit"),
        "bayes.fit_calls": rep.fit_calls,
        "bayes.predict_s": predict_s,
        "bayes.predict_rows": rep.predict_rows,
        "bayes.predict_us_per_row": (
            1e6 * predict_s / rep.predict_rows if rep.predict_rows else 0.0
        ),
        "bayes.model_io_s": spans.total("bayes.model_io"),
        "evaluate.stats_s": spans.total("evaluate.stats"),
        "evaluate.self_s": job_wall_s - math.fsum(spans.total(l) for l in JOB_LAYERS),
        "trace_overhead_s": rep.wall_s - job_wall_s,
    }


def _p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]
