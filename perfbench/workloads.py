"""Workloads of the hietan benchmark: sizes, input files, the timed job, and
the checks on its outputs.

Every input is generated from the run's seed with the library's own
``random_dag`` and ``generate_synthetic`` (leaf density 0.3, class noise
0.05) and written to CSV/TSV, so the code under test only ever sees files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hietan" / "__init__.py").is_file():
    raise SystemExit(
        f"perfbench: no hietan sources under {SRC}; run from a checkout of "
        "the repository"
    )
sys.path.insert(0, str(SRC))

import hietan  # noqa: E402
from hietan import (  # noqa: E402
    ALL_METHODS,
    Dataset,
    ExperimentResult,
    FeatureDag,
    build_dag,
    dag_from_file,
    fit,
    generate_synthetic,
    gmean,
    hie_mst,
    load_dataset,
    load_model,
    predict,
    random_dag,
    rank_edges,
    run_cv_experiment,
    save_dataset,
    save_model,
    subset,
)
from hietan.evaluate import confusion_from_predictions, derive_seed  # noqa: E402
from hietan.hierarchy import write_dag_file  # noqa: E402

if Path(hietan.__file__).resolve().parent != SRC / "hietan":
    raise SystemExit(f"perfbench: imported hietan from {hietan.__file__}, not {SRC}")

LEAF_DENSITY = 0.3
CLASS_NOISE = 0.05
SMOOTHING = 1.0
CONSTRAINED = ("hie_tan", "hie_tan_lite")
# Timed jobs run single-threaded. The traced run also times one CV job with
# the lazy learner's worker pool at POOL_JOBS (= cores of a 2-core box) but
# gates nothing on it: on a shared 2-core VM a timed jobs=2 workload read
# 6.7-14.7 s across ten seeds, a quartile spread of 0.56 of its median.
JOBS = 1
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the job run on it.

    ``kind`` is ``"cv"`` (one ``run_cv_experiment`` call per job) or
    ``"score"`` (train once on ``n_instances`` rows, save and reload the
    model, then classify ``score_rows`` separate rows). ``folds`` is 0 for
    ``"score"``.
    """

    name: str
    kind: str
    n_features: int
    n_instances: int
    hierarchy_edges: int
    folds: int
    methods: tuple[str, ...]
    score_rows: int
    why: str

    def size(self) -> dict:
        return {
            "features": self.n_features,
            "instances": self.n_instances,
            "folds": self.folds,
            "hierarchy_edges": self.hierarchy_edges,
            "score_rows": self.score_rows,
            "methods": list(self.methods),
            "jobs": JOBS,
        }

    def predictions_per_job(self) -> int:
        """(instance, method) classifications made by one job."""
        if self.kind == "cv":
            return self.n_instances * len(self.methods)
        return self.score_rows


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cv-go150",
            kind="cv",
            n_features=150,
            n_instances=300,
            hierarchy_edges=250,
            folds=5,
            methods=ALL_METHODS,
            score_rows=0,
            why="the ROADMAP baseline CV problem: one lazy tree and one fit per "
            "test instance dominate, ranking is about a fifth",
        ),
        Workload(
            name="cv-wide400",
            kind="cv",
            n_features=400,
            n_instances=200,
            hierarchy_edges=100,
            folds=5,
            methods=("tan", "hie_tan"),
                    score_rows=0,
            why="wide, sparse hierarchy, eager methods only: pairwise CMI "
            "ranking is most of the job and the lazy learner never runs",
        ),
        Workload(
            name="score-batch",
            kind="score",
            n_features=150,
            n_instances=300,
            hierarchy_edges=250,
            folds=0,
            methods=("hie_tan",),
                    score_rows=20000,
            why="train once, save/load the model, classify 20000 rows: "
            "the only workload where eager prediction dominates",
        ),
    )
}

# Smoke sizes keep every code path and check but finish in about a second.
_SMOKE = {
    "cv-go150": dict(n_features=20, n_instances=60, hierarchy_edges=30, folds=3),
    "cv-wide400": dict(n_features=40, n_instances=40, hierarchy_edges=10, folds=3),
    "score-batch": dict(n_features=20, n_instances=60, hierarchy_edges=30,
                        score_rows=400),
}


def workload(name: str, size: str = "full") -> Workload:
    w = WORKLOADS[name]
    return replace(w, **_SMOKE[name]) if size == "smoke" else w


def write_inputs(w: Workload, seed: int, workdir: Path) -> None:
    """Generate the workload's files from the seed: hierarchy.tsv, data.csv
    and, for scoring, score.csv (rows from the same distribution)."""
    names = [f"f{i}" for i in range(w.n_features)]
    dag = build_dag(w.n_features, random_dag(w.n_features, w.hierarchy_edges, seed))
    total = w.n_instances + w.score_rows
    ds = generate_synthetic(dag, total, LEAF_DENSITY, CLASS_NOISE, seed, names)
    write_dag_file(workdir / "hierarchy.tsv", sorted(dag.edges), names)
    save_dataset(subset(ds, range(w.n_instances)), workdir / "data.csv")
    if w.score_rows:
        save_dataset(subset(ds, range(w.n_instances, total)), workdir / "score.csv")


@dataclass
class Inputs:
    data: Dataset
    dag: FeatureDag
    score: Optional[Dataset]


def _untimed(layer: str):
    return nullcontext()


def load_inputs(w: Workload, workdir: Path, spans=_untimed) -> Inputs:
    """The set-up step a user pays: ``load_dataset`` + ``dag_from_file``.
    ``spans(layer)`` wraps each call into a layer; the traced run passes a
    timer."""
    with spans("dataset.load"):
        data = load_dataset(workdir / "data.csv")
    with spans("hierarchy.build"):
        dag = dag_from_file(workdir / "hierarchy.tsv", data.feature_names)
    with spans("dataset.load"):
        score = load_dataset(workdir / "score.csv") if w.score_rows else None
    return Inputs(data, dag, score)


@dataclass
class ScoreOutput:
    edges: list
    tree: object
    fitted: object
    predictions: list


def score_job(inputs: Inputs, seed: int, workdir: Path, spans=_untimed) -> ScoreOutput:
    """Train on data.csv as ``hietan train --method hie-tan`` does, save and
    reload the model, then classify every row of score.csv."""
    train, dag = inputs.data, inputs.dag
    with spans("mutual_info.rank"):
        edges = rank_edges(train, dag, SMOOTHING)
    with spans("hie_mst.learn"):
        tree = hie_mst(edges, dag, train.n_features, derive_seed(seed, 0))
    with spans("bayes.fit"):
        fitted = fit(train, tree, None, SMOOTHING)
    model_path = workdir / "model.json"
    with spans("bayes.model_io"):
        save_model(fitted, model_path)
        loaded = load_model(model_path)
    with spans("bayes.predict"):
        predictions = [predict(loaded, row) for row in inputs.score.values]
    return ScoreOutput(edges, tree, fitted, predictions)


def run_job(w: Workload, inputs: Inputs, seed: int, workdir: Path, jobs: int = JOBS):
    """One timed job. Returns an ``ExperimentResult`` or a ``ScoreOutput``."""
    if w.kind == "cv":
        return run_cv_experiment(
            inputs.data, inputs.dag, w.methods, w.folds, seed, SMOOTHING, jobs
        )
    return score_job(inputs, seed, workdir)


def cv_doc(result: ExperimentResult) -> dict:
    """Everything ``run_cv_experiment`` returns, as plain JSON values."""
    methods = {}
    for m, r in result.methods.items():
        methods[m] = {
            "folds": [[c.tp, c.fp, c.tn, c.fn] for c in r.fold_counts],
            "gmeans": list(r.fold_gmeans),
            "mean_gmean": r.mean_gmean,
            "usage": None if r.usage is None else [
                r.usage.freq_of_selection.tolist(), r.usage.freq_in_edges.tolist()
            ],
        }
    return {"methods": methods}


def score_doc(out: ScoreOutput, labels) -> dict:
    predicted = [p.label for p in out.predictions]
    g = gmean(confusion_from_predictions(labels.tolist(), predicted))
    return {
        "tree": list(out.tree.parent_of),
        "labels": predicted,
        "log_posteriors": [list(p.log_posterior) for p in out.predictions],
        "methods": {"hie_tan": {"gmeans": [g], "mean_gmean": g}},
    }


def output_doc(w: Workload, raw, inputs: Inputs) -> dict:
    return cv_doc(raw) if w.kind == "cv" else score_doc(raw, inputs.score.labels)


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mean_gmeans(doc: dict) -> dict:
    return {m: r["mean_gmean"] for m, r in doc["methods"].items()}


def gmean_problems(doc: dict) -> list[str]:
    return [
        f"{m}: GMean {g!r} outside [0, 1]"
        for m, r in doc["methods"].items()
        for g in r["gmeans"] + [r["mean_gmean"]]
        if not 0.0 <= g <= 1.0
    ]


def opposing_edges(tree, dag: FeatureDag) -> list[tuple[int, int]]:
    """Tree edges (parent, child) whose child is a hierarchy ancestor of its
    parent, i.e. edges that point against the hierarchy."""
    return [(p, c) for p, c in tree.edges() if dag.is_ancestor(c, p)]
