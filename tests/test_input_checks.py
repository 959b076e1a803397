"""Input checks of the library that no other test reaches: each raises its
error class with its message before any work is done."""

import re

import numpy as np
import pytest

from hietan.bayes import fit
from hietan.dataset import (
    Dataset,
    generate_synthetic_with_rule,
    repair_propagation,
    stratified_folds,
)
from hietan.errors import DimensionMismatch, IncompleteTable, IndexOutOfRange
from hietan.evaluate import average_ranks, run_cv_experiment
from hietan.hierarchy import build_dag, random_dag
from hietan.structure import DependencyTree


def three_features():
    values = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    return Dataset(values, np.array([0, 1, 1, 0], dtype=np.uint8))


CHECKS = {
    "fit-tree-width": (
        lambda: fit(three_features(), DependencyTree((None, 0))),
        DimensionMismatch, "tree covers 2 features, dataset has 3",
    ),
    "fit-active-out-of-range": (
        lambda: fit(three_features(), DependencyTree((None, 0, 1)), {0, 3}),
        IndexOutOfRange, "active feature 3 outside [0, 3)",
    ),
    "fit-inactive-parent": (
        lambda: fit(three_features(), DependencyTree((None, 0, 1)), {0, 2}),
        ValueError, "feature 2 depends on inactive feature 1",
    ),
    "dataset-name-count": (
        lambda: Dataset(np.zeros((2, 3), np.uint8), np.zeros(2, np.uint8), ("a", "b")),
        DimensionMismatch, "2 feature names for 3 columns",
    ),
    "repair-width": (
        lambda: repair_propagation(three_features(), build_dag(2, [(0, 1)])),
        DimensionMismatch, "dataset has 3 features, hierarchy has 2",
    ),
    "folds-k-1": (
        lambda: stratified_folds(three_features(), 1, 0),
        ValueError, "k must be at least 2",
    ),
    "synthetic-one-feature": (
        lambda: generate_synthetic_with_rule(build_dag(1, []), 10, 0.5, 0.0, 0),
        ValueError, "need at least two features to plant a label rule",
    ),
    "ranks-empty-columns": (
        lambda: average_ranks({"a": [], "b": []}),
        IncompleteTable, "the table has no datasets",
    ),
    "cv-no-methods": (
        lambda: run_cv_experiment(three_features(), build_dag(3, []), [], 2, 0),
        ValueError, "no methods requested",
    ),
    "dag-negative-count": (
        lambda: build_dag(-1, []),
        ValueError, "n_features must be non-negative",
    ),
    "random-dag-negative-count": (
        lambda: random_dag(3, -1, 0),
        ValueError, "counts must be non-negative",
    ),
}


@pytest.mark.parametrize("call, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_refuses_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
