"""Tree-augmented naive Bayes classifiers for binary features organised in a
generalisation-specialisation DAG.

Three learners share one candidate-edge ranking (conditional mutual
information given the class):

* ``tan`` - the conventional baseline: maximum spanning tree, random root;
* ``hie_tan`` - constrained so learned directions never oppose the hierarchy;
* ``hie_tan_lite`` - additionally drops, per test instance, features that are
  hierarchically redundant with a feature already in the tree.
"""

__version__ = "0.1.0"

from .bayes import (
    FittedClassifier,
    Prediction,
    fit,
    load_model,
    predict,
    predict_batch,
    save_model,
)
from .dataset import (
    Dataset,
    FoldAssignment,
    PlantedRule,
    generate_synthetic,
    generate_synthetic_with_rule,
    load_dataset,
    repair_propagation,
    save_dataset,
    stratified_folds,
    subset,
    validate_propagation,
)
from .evaluate import (
    ALL_METHODS,
    ConfusionCounts,
    ExperimentResult,
    FeatureUsageReport,
    FriedmanHolmResult,
    RankTable,
    average_ranks,
    friedman_holm,
    gmean,
    run_cv_experiment,
)
from .hie_mst import hie_mst, hie_mst_lite
from .hierarchy import FeatureDag, build_dag, dag_from_file, random_dag
from .mutual_info import JointCounts, cmi, rank_edges
from .tan import learn_tan_structure
from .tree import DependencyTree

__all__ = [
    "__version__",
    "ALL_METHODS",
    "ConfusionCounts",
    "Dataset",
    "DependencyTree",
    "ExperimentResult",
    "FeatureDag",
    "FeatureUsageReport",
    "FittedClassifier",
    "FoldAssignment",
    "FriedmanHolmResult",
    "JointCounts",
    "PlantedRule",
    "Prediction",
    "RankTable",
    "average_ranks",
    "build_dag",
    "cmi",
    "dag_from_file",
    "fit",
    "friedman_holm",
    "generate_synthetic",
    "generate_synthetic_with_rule",
    "gmean",
    "hie_mst",
    "hie_mst_lite",
    "learn_tan_structure",
    "load_dataset",
    "load_model",
    "predict",
    "predict_batch",
    "random_dag",
    "rank_edges",
    "repair_propagation",
    "run_cv_experiment",
    "save_dataset",
    "save_model",
    "stratified_folds",
    "subset",
    "validate_propagation",
]
