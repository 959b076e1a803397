import json
import math

import numpy as np
import pytest

from hietan.bayes import (
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
)
from hietan.dataset import Dataset
from hietan.errors import DimensionMismatch, EmptyTrainingSet
from hietan.tree import DependencyTree

from oracles import fit_reference


def naive_bayes_oracle(values, labels, instance, smoothing):
    """Reference naive Bayes written independently of the fit/predict path."""
    n = len(labels)
    log_post = []
    for y in (0, 1):
        ny = int(np.sum(labels == y))
        lp = math.log((ny + smoothing) / (n + 2 * smoothing))
        for f in range(values.shape[1]):
            match = int(np.sum((labels == y) & (values[:, f] == instance[f])))
            lp += math.log((match + smoothing) / (ny + 2 * smoothing))
        log_post.append(lp)
    return log_post


def empty_tree(n):
    return DependencyTree((None,) * n)


def random_forest(rng, features, n):
    """Tree over ``n`` features whose edges join only ``features``: in a random
    order, each picks an earlier one as its parent or stays a root."""
    parent_of = [None] * n
    order = [int(f) for f in rng.permutation(list(features))]
    for k, f in enumerate(order):
        if k and rng.random() < 0.7:
            parent_of[f] = order[int(rng.integers(k))]
    return DependencyTree(tuple(parent_of))


def fit_sweep_problems():
    """Seeded (dataset, tree, active) triples: random densities and trees, one
    class only every sixth trial, and every other trial a lazy-style active
    subset (possibly empty) with the inactive features as roots."""
    rng = np.random.default_rng(23)
    for trial in range(60):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        values = (rng.random((m, n)) < rng.random()).astype(np.uint8)
        labels = (rng.random(m) < 0.5).astype(np.uint8)
        if trial % 6 == 0:
            labels[:] = trial % 12 == 0
        if trial % 2:
            active, tree = None, random_forest(rng, range(n), n)
        else:
            active = frozenset(int(f) for f in np.flatnonzero(rng.random(n) < 0.6))
            tree = random_forest(rng, sorted(active), n)
        yield Dataset(values, labels), tree, active


class TestFit:
    def test_balanced_prior_no_smoothing(self):
        values = np.array([[0], [1], [0], [1]], dtype=np.uint8)
        ds = Dataset(values, np.array([0, 0, 1, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(1), smoothing=0.0)
        assert clf.class_prior.tolist() == [0.5, 0.5]

    def test_hand_computed_cpt(self):
        # Four instances, feature 1 depends on feature 0.
        #   x0: 0 1 1 0     x1: 0 1 0 1     y: 0 0 1 1
        values = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=np.uint8)
        ds = Dataset(values, np.array([0, 0, 1, 1], dtype=np.uint8))
        tree = DependencyTree((None, 0))
        clf = fit(ds, tree, smoothing=0.5)
        # P(x1=1 | y=0, x0=1): one (y=0, x0=1) row, with x1=1 -> (1+.5)/(1+1)
        assert clf.cpts[1][0, 1, 1] == pytest.approx(1.5 / 2.0)
        # P(x1=1 | y=1, x0=0): one matching row with x1=1 -> (1+.5)/(1+1)
        assert clf.cpts[1][1, 0, 1] == pytest.approx(1.5 / 2.0)
        # P(x0=1 | y=0): (1+.5)/(2+1)
        assert clf.cpts[0][0, 1] == pytest.approx(1.5 / 3.0)

    def test_unseen_cell_smoothing_formula(self):
        # No (y=1, parent=0) rows at all: cell is s / (0 + 2s) = 1/2.
        values = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        ds = Dataset(values, np.array([1, 0], dtype=np.uint8))
        tree = DependencyTree((None, 0))
        clf = fit(ds, tree, smoothing=1.0)
        assert clf.cpts[1][1, 0, 1] == pytest.approx(1.0 / 2.0)

    def test_rows_normalised(self):
        rng = np.random.default_rng(0)
        ds = Dataset(
            (rng.random((30, 4)) < 0.5).astype(np.uint8),
            (rng.random(30) < 0.5).astype(np.uint8),
        )
        tree = DependencyTree((None, 0, 1, None))
        clf = fit(ds, tree, smoothing=1.0)
        assert abs(clf.class_prior.sum() - 1.0) < 1e-12
        for table in clf.cpts.values():
            sums = table.sum(axis=-1)
            assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_empty_training_set(self):
        ds = Dataset(np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        with pytest.raises(EmptyTrainingSet):
            fit(ds, empty_tree(2))

    @pytest.mark.parametrize("smoothing", [-1.0, math.nan, math.inf])
    def test_rejects_bad_smoothing(self, smoothing):
        ds = Dataset(np.array([[0], [1]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="smoothing"):
            fit(ds, empty_tree(1), smoothing=smoothing)

    @pytest.mark.parametrize("smoothing", [0.0, 0.25, 1.0, 3.0])
    def test_matches_bincount_reference(self, smoothing):
        zero_rows = 0
        for ds, tree, active in fit_sweep_problems():
            got = fit(ds, tree, active, smoothing)
            want = fit_reference(ds, tree, active, smoothing)
            assert got.class_prior.tobytes() == want.class_prior.tobytes()
            assert got.active_features == want.active_features
            assert list(got.cpts) == list(want.cpts)
            for f, table in want.cpts.items():
                assert got.cpts[f].dtype == table.dtype and got.cpts[f].shape == table.shape
                assert got.cpts[f].tobytes() == table.tobytes()
                zero_rows += int(np.sum(~table.reshape(-1, 2).any(axis=1)))
        # Rows with zero mass occur, and only smoothing 0 leaves them all zero.
        assert (zero_rows > 0) == (smoothing == 0.0)

    def test_constant_feature_never_raises(self):
        values = np.ones((6, 3), dtype=np.uint8)
        ds = Dataset(values, np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 0)), smoothing=0.0)
        for row in ds.values:
            predict(clf, row)  # log(0) becomes -inf, not an exception


class TestPredict:
    def test_empty_active_features_uses_prior(self):
        values = np.array([[0], [0], [0]], dtype=np.uint8)
        ds = Dataset(values, np.array([1, 1, 0], dtype=np.uint8))
        clf = fit(ds, empty_tree(1), active_features=(), smoothing=0.0)
        pred = predict(clf, [1])
        assert pred.label == 1  # prior 2/3 for class 1
        assert pred.log_posterior[1] == pytest.approx(math.log(2 / 3))

    def test_matches_naive_bayes_oracle(self):
        rng = np.random.default_rng(8)
        values = (rng.random((40, 6)) < 0.4).astype(np.uint8)
        labels = (rng.random(40) < 0.5).astype(np.uint8)
        ds = Dataset(values, labels)
        clf = fit(ds, empty_tree(6), smoothing=1.0)
        for _ in range(100):
            instance = (rng.random(6) < 0.5).astype(np.uint8)
            want = naive_bayes_oracle(values, labels, instance, 1.0)
            got = predict(clf, instance)
            assert got.log_posterior[0] == pytest.approx(want[0], abs=1e-9)
            assert got.log_posterior[1] == pytest.approx(want[1], abs=1e-9)
            assert got.label == (0 if want[0] >= want[1] else 1)

    def test_log_space_equals_product_space(self):
        rng = np.random.default_rng(3)
        values = (rng.random((25, 3)) < 0.5).astype(np.uint8)
        labels = (rng.random(25) < 0.5).astype(np.uint8)
        ds = Dataset(values, labels)
        tree = DependencyTree((None, 0, 0))
        clf = fit(ds, tree, smoothing=1.0)
        for _ in range(30):
            instance = (rng.random(3) < 0.5).astype(np.uint8)
            pred = predict(clf, instance)
            for y in (0, 1):
                product = float(clf.class_prior[y])
                for f in clf.active_features:
                    p = clf.tree.parent_of[f]
                    t = clf.cpts[f]
                    product *= (
                        t[y, instance[f]] if p is None else t[y, instance[p], instance[f]]
                    )
                assert pred.log_posterior[y] == pytest.approx(
                    math.log(product), abs=1e-9
                )

    def test_argmax_shift_invariant(self):
        # Adding a constant to both log-posteriors never changes the label.
        pairs = [(-3.0, -4.0), (-4.0, -3.0), (-2.5, -2.5)]
        for lp0, lp1 in pairs:
            base = 0 if lp0 >= lp1 else 1
            for shift in (-100.0, 0.0, 55.5):
                assert base == (0 if lp0 + shift >= lp1 + shift else 1)

    def test_tie_breaks_toward_class_zero(self):
        values = np.array([[0], [1]], dtype=np.uint8)
        ds = Dataset(values, np.array([0, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(1), smoothing=1.0)
        pred = predict(clf, [0])
        if pred.log_posterior[0] == pred.log_posterior[1]:
            assert pred.label == 0

    def test_dimension_mismatch(self):
        ds = Dataset(np.zeros((2, 2), dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(2))
        with pytest.raises(DimensionMismatch):
            predict(clf, [0, 1, 0])


class TestSerialization:
    def test_round_trip_value_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = Dataset(
            (rng.random((21, 5)) < 0.5).astype(np.uint8),
            (rng.random(21) < 0.5).astype(np.uint8),
            tuple(f"go{i}" for i in range(5)),
        )
        tree = DependencyTree((None, 0, 1, None, 3))
        clf = fit(ds, tree, active_features=(0, 1, 2, 3, 4), smoothing=0.75)
        path = tmp_path / "model.json"
        save_model(clf, path)
        again = load_model(path)
        assert again.tree.parent_of == clf.tree.parent_of
        assert again.active_features == clf.active_features
        assert again.feature_names == clf.feature_names
        assert again.smoothing == clf.smoothing
        assert np.array_equal(again.class_prior, clf.class_prior)
        for f in clf.cpts:
            assert np.array_equal(again.cpts[f], clf.cpts[f])
        # Predictions are bit-identical after the round trip.
        for _ in range(20):
            inst = (rng.random(5) < 0.5).astype(np.uint8)
            assert predict(again, inst) == predict(clf, inst)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})

    def test_dict_is_json_clean(self):
        ds = Dataset(np.array([[0], [1]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(1))
        json.dumps(model_to_dict(clf))
