import codecs
import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hietan import bayes
from hietan.bayes import (
    FittedClassifier,
    Prediction,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    save_model,
)
from hietan.dataset import Dataset, generate_synthetic, stratified_folds, subset
from hietan.errors import DimensionMismatch, EmptyTrainingSet, NonBinaryValue, ParseError
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import rank_edges
from hietan.structure import DependencyTree, hie_mst_lite

from oracles import fit_reference, predict_reference


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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_int_smoothing_too_large_for_a_float(self, sign):
        # float() of such an int raises OverflowError; the smoothing rule
        # reports it as a non-finite value.
        ds = Dataset(np.array([[0], [1]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="finite and non-negative"):
            fit(ds, empty_tree(1), smoothing=sign * 10**400)
        doc = model_to_dict(fit(ds, empty_tree(1)))
        doc["smoothing"] = sign * 10**400
        with pytest.raises(ParseError, match="ValueError"):
            model_from_dict(doc)

    def test_rejects_non_numeric_smoothing(self):
        ds = Dataset(np.array([[0], [1]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        with pytest.raises(TypeError, match="smoothing"):
            fit(ds, empty_tree(1), smoothing="1")

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

    def test_tables_are_read_only(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset((rng.random((12, 3)) < 0.5).astype(np.uint8),
                     (rng.random(12) < 0.5).astype(np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 1)), smoothing=1.0)
        save_model(clf, tmp_path / "model.json")
        for model in (clf, load_model(tmp_path / "model.json")):
            with pytest.raises(ValueError, match="read-only"):
                model.class_prior[0] = 0.5
            for table in model.cpts.values():
                with pytest.raises(ValueError, match="read-only"):
                    table[0, 0] = 0.5

    def test_constant_feature_never_raises(self):
        values = np.ones((6, 3), dtype=np.uint8)
        ds = Dataset(values, np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 0)), smoothing=0.0)
        for row in ds.values:
            predict(clf, row)  # log(0) becomes -inf, not an exception


def row_forms(row):
    """The same 0/1 row as each input type ``predict`` accepts, including a
    read-only array and a strided row of a Fortran-ordered matrix."""
    read_only = np.array(row, dtype=np.uint8)
    read_only.setflags(write=False)
    return (
        np.asarray(row, dtype=np.uint8),
        np.asarray(row, dtype=np.int64),
        np.asarray(row, dtype=np.float64),
        np.where(np.asarray(row) == 1, 1.0, -0.0),
        [int(v) for v in row],
        tuple(int(v) for v in row),
        [bool(v) for v in row],
        read_only,
        np.asfortranarray(np.stack([row, row]))[0],
    )


def positive_cells(*tables):
    """The distinct positive cells of ``tables``, ascending."""
    cells = np.concatenate([np.ravel(t) for t in tables])
    return sorted(set(cells[cells > 0.0].tolist()))


def log_oracle(cells):
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in np.ravel(cells).tolist()])


@st.composite
def log_cells(draw):
    """Cells for ``_logs``: zeros, subnormals, 1.0 and its neighbours and any
    non-negative double, many repeated, as a vector or as (k, 2, 2)."""
    pool = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                             math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 0.5]),
            st.floats(0.0, 1.0),
            st.floats(min_value=0.0, allow_infinity=False),
        ),
        min_size=1, max_size=12,
    ))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=48))
    cells = np.array([pool[k] for k in picks], dtype=np.float64)
    if draw(st.booleans()):
        cells = cells[: cells.size // 4 * 4].reshape(-1, 2, 2)
    return cells


@st.composite
def fitted_problems(draw):
    """(dataset, tree, active, smoothing): up to 6 features, a random forest
    over all of them or over an active subset (empty included), and
    smoothing 0 among the values."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    bits = st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n)
    values = np.array(draw(bits), dtype=np.uint8).reshape(m, n)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    active = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = random_forest(rng, range(n) if active is None else sorted(active), n)
    return Dataset(values, labels), tree, active, draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))


def prediction_bits(pred):
    return pred.label, struct.pack("<dd", *pred.log_posterior)


class TestPredict:
    @pytest.mark.parametrize("smoothing", [0.0, 0.25, 1.0, 3.0])
    def test_matches_scalar_reference(self, smoothing, tmp_path):
        rng = np.random.default_rng(31)
        minus_inf_ties = 0
        for trial, (ds, tree, active) in enumerate(fit_sweep_problems()):
            clf = fit(ds, tree, active, smoothing)
            if trial % 2:
                save_model(clf, tmp_path / "model.json")
                clf = load_model(tmp_path / "model.json")
            rows = np.vstack((ds.values, rng.random((5, ds.n_features)) < 0.5))
            for row in rows:
                want = prediction_bits(predict_reference(clf, row))
                for form in row_forms(row):
                    assert prediction_bits(predict(clf, form)) == want
                lp = predict(clf, row).log_posterior
                minus_inf_ties += lp[0] == lp[1] == -math.inf
        # Only smoothing 0 gives zero probabilities, and with them -inf ties.
        assert (minus_inf_ties > 0) == (smoothing == 0.0)

    def test_matches_scalar_reference_on_random_tables(self):
        # About 1 uniform random cell in 300 has an np.log that differs from
        # math.log in the last bit. Sums of one to three terms keep such a
        # bit, so only scalar logs pass this. The tables are not
        # distributions, which ``model_from_dict`` would reject, so the
        # classifier is built directly.
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            tree = random_forest(rng, range(n), n)
            clf = FittedClassifier(
                tree=tree,
                class_prior=rng.random(2),
                cpts={f: rng.random((2, 2) if p is None else (2, 2, 2))
                      for f, p in enumerate(tree.parent_of)},
                smoothing=1.0,
                active_features=tuple(range(n)),
                feature_names=tuple(f"f{i}" for i in range(n)),
            )
            for code in range(2**n):
                row = [(code >> f) & 1 for f in range(n)]
                want = prediction_bits(predict_reference(clf, row))
                assert prediction_bits(predict(clf, row)) == want

    @pytest.mark.parametrize("n, active", [(0, None), (3, ())], ids=["no-features", "prior-only"])
    def test_prior_only_classifiers(self, n, active):
        # With no feature there is no column 0 for the prior to read; with no
        # active feature the prior is the only term.
        ds = Dataset(np.eye(3, n, dtype=np.uint8), np.array([0, 1, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(n), active, smoothing=1.0)
        prior = Prediction(1, (math.log(2 / 5), math.log(3 / 5)))
        rows = np.eye(2, n, dtype=np.uint8)
        for row in rows:
            assert prediction_bits(predict_reference(clf, row)) == prediction_bits(prior)
            for form in row_forms(row):
                assert prediction_bits(predict(clf, form)) == prediction_bits(prior)
        assert_batch_matches_reference(clf, rows)
        assert_batch_matches_reference(clf, rows[:0])

    @pytest.mark.parametrize("value", [-1, 2, 0.7, math.nan])
    @pytest.mark.parametrize("position", [3, 1], ids=["root", "parent"])
    def test_rejects_non_binary_values(self, position, value):
        rng = np.random.default_rng(6)
        ds = Dataset((rng.random((16, 4)) < 0.5).astype(np.uint8),
                     (rng.random(16) < 0.5).astype(np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 1, None)), smoothing=1.0)
        row = [0, 1, 1, 0]
        row[position] = value
        for form in (row, tuple(row), np.asarray(row, dtype=np.float64)):
            with pytest.raises(NonBinaryValue, match=f"feature {position}"):
                predict(clf, form)

    def test_log_table_built_once(self, monkeypatch):
        # The table is built once, and it logs each distinct positive cell of
        # the prior and the CPTs once: fewer calls than the 2 + 8 * 3 cells
        # of the prior and of 0 (a root, repeated over x_source), 2 and 3.
        logged = []
        monkeypatch.setattr(
            bayes, "math", SimpleNamespace(log=lambda p: logged.append(p) or math.log(p))
        )
        rng = np.random.default_rng(2)
        ds = Dataset((rng.random((20, 4)) < 0.5).astype(np.uint8),
                     (rng.random(20) < 0.5).astype(np.uint8))
        for smoothing in (0.0, 1.0):
            logged.clear()
            clf = fit(ds, DependencyTree((None, 0, 0, 2)), {0, 2, 3}, smoothing)
            table = clf._log_cpts
            for row in ds.values:
                predict(clf, row)
            assert clf._log_cpts is table
            assert sorted(logged) == positive_cells(clf.class_prior, *clf.cpts.values())
            assert len(logged) < 2 + 8 * 3

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(log_cells())
    @example(np.array([0.9833347065534214, 0.0, 0.9833347065534214, 1.0]))
    def test_logs_equal_scalar_log(self, cells):
        # One math.log per distinct value, gathered back, is math.log of
        # every cell, bit for bit; 0.0 (and -0.0) give -inf. The example's
        # value has an np.log one ulp off math.log's (NumPy 2.4 on x86-64).
        got = bayes._logs(cells)
        assert got.shape == cells.shape
        assert got.ravel().tobytes() == log_oracle(cells).tobytes()

    def test_active_features_must_be_integers(self):
        # The rule of model_from_dict: a bool, a float or a string is no
        # feature index, and NumPy integers are.
        rng = np.random.default_rng(2)
        ds = Dataset((rng.random((20, 4)) < 0.5).astype(np.uint8),
                     (rng.random(20) < 0.5).astype(np.uint8))
        tree = empty_tree(4)
        for bad in ([0.9, True], ["1"], [1.0], [np.True_], np.array([0.0, 2.0])):
            with pytest.raises(TypeError):
                fit(ds, tree, bad)
        got = fit(ds, tree, [np.int64(3), np.uint8(1), 1]).active_features
        assert got == (1, 3) == fit(ds, tree, np.array([3, 1])).active_features

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


def assert_batch_matches_reference(clf, rows):
    """``predict_batch`` gives, row by row, the labels and the bits of
    ``predict_reference``; returns the log posteriors."""
    labels, log_post = predict_batch(clf, rows)
    want = [predict_reference(clf, row) for row in rows]
    assert labels.dtype == np.uint8 and labels.shape == (len(rows),)
    assert log_post.dtype == np.float64 and log_post.shape == (len(rows), 2)
    assert labels.tolist() == [p.label for p in want]
    expected = np.array([p.log_posterior for p in want], dtype=np.float64).reshape(-1, 2)
    assert log_post.tobytes() == expected.tobytes()
    return log_post


class TestPredictBatch:
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_matches_scalar_reference(self, smoothing):
        # Every other problem fits a lazy-style subset of active features.
        rng = np.random.default_rng(41)
        minus_inf = 0
        for ds, tree, active in fit_sweep_problems():
            clf = fit(ds, tree, active, smoothing)
            rows = np.vstack((ds.values, rng.random((7, ds.n_features)) < 0.5))
            minus_inf += np.isneginf(assert_batch_matches_reference(clf, rows)).sum()
        # Only smoothing 0 gives zero probabilities, and with them -inf sums.
        assert (minus_inf > 0) == (smoothing == 0.0)

    def test_zero_and_one_rows(self):
        rng = np.random.default_rng(3)
        ds = Dataset((rng.random((30, 5)) < 0.5).astype(np.uint8),
                     (rng.random(30) < 0.5).astype(np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 0, 1, None)), smoothing=0.5)
        labels, log_post = predict_batch(clf, np.zeros((0, 5), dtype=np.uint8))
        assert labels.shape == (0,) and log_post.shape == (0, 2)
        row = ds.values[4]
        labels, log_post = predict_batch(clf, row[None, :])
        assert prediction_bits(predict(clf, row)) == (
            labels[0], struct.pack("<dd", *log_post[0].tolist())
        )
        assert_batch_matches_reference(clf, ds.values[4:5])

    def test_kept_posteriors_own_their_data(self):
        # Up to a chunk of rows, the posteriors come from a view of the
        # (rows, k, 2) running sums; kept, they must not pin those sums.
        rng = np.random.default_rng(5)
        ds = Dataset((rng.random((20, 6)) < 0.5).astype(np.uint8),
                     (rng.random(20) < 0.5).astype(np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 0, 1, None, 4)), smoothing=1.0)
        log_post = predict_batch(clf, ds.values[:3])[1]
        assert log_post.shape == (3, 2)
        assert log_post.base is None and log_post.flags.owndata

    def test_more_than_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(9)
        ds = Dataset((rng.random((40, 12)) < 0.4).astype(np.uint8),
                     (rng.random(40) < 0.5).astype(np.uint8))
        clf = fit(ds, random_forest(rng, range(12), 12), smoothing=1.0)
        rows = (rng.random((2 * bayes._CHUNK_ROWS + 5, 12)) < 0.5).astype(np.uint8)
        whole = assert_batch_matches_reference(clf, rows)
        monkeypatch.setattr(bayes, "_CHUNK_ROWS", 7)
        assert predict_batch(clf, rows)[1].tobytes() == whole.tobytes()
        assert_batch_matches_reference(clf, rows[:50])

    def test_input_forms_agree_bit_for_bit(self):
        # Every parent is 1 in some rows, so a code built as bool
        # (2 x_source + x as a logical OR) would read the wrong cell.
        rng = np.random.default_rng(12)
        tree = DependencyTree((None, 0, 1, 1, None, 4, 0, 6, None))
        ds = Dataset((rng.random((40, 9)) < 0.5).astype(np.uint8),
                     (rng.random(40) < 0.5).astype(np.uint8))
        clf = fit(ds, tree, smoothing=0.5)
        rows = (rng.random((24, 9)) < 0.5).astype(np.uint8)
        labels, log_post = predict_batch(clf, rows)
        assert_batch_matches_reference(clf, rows)
        read_only = rows.copy()
        read_only.setflags(write=False)
        for X in (rows.astype(bool), np.where(rows == 1, 1.0, -0.0), np.asfortranarray(rows),
                  read_only):
            other = predict_batch(clf, X)
            assert other[0].tobytes() == labels.tobytes()
            assert other[1].tobytes() == log_post.tobytes()

    @pytest.mark.parametrize("value", [-1, 2, 0.5, math.nan])
    def test_bad_value_names_row_and_feature(self, value):
        rng = np.random.default_rng(6)
        ds = Dataset((rng.random((16, 4)) < 0.5).astype(np.uint8),
                     (rng.random(16) < 0.5).astype(np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 1, None)), smoothing=1.0)
        rows = np.ones((6, 4))
        rows[3, 2] = value
        rows[5, 0] = value
        with pytest.raises(NonBinaryValue, match=r"^row 3, feature 2 has value "):
            predict_batch(clf, rows)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 5), (1, 2, 4)])
    def test_rejects_wrong_shape(self, shape):
        ds = Dataset(np.eye(4, dtype=np.uint8), np.array([0, 1, 0, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(4))
        with pytest.raises(DimensionMismatch):
            predict_batch(clf, np.zeros(shape, dtype=np.uint8))


def lazy_arrays(lazy, n):
    """``_lazy_predict``'s (parents, active) arrays for (tree, active) pairs."""
    parents = np.full((len(lazy), n), -1, dtype=np.intp)
    active = np.zeros((len(lazy), n), dtype=bool)
    for k, (tree, kept) in enumerate(lazy):
        parents[k] = [-1 if p is None else p for p in tree.parent_of]
        active[k, sorted(kept)] = True
    return parents, active


def lazy_folds(seed, smoothing):
    """Every lazy test instance of one seeded synthetic problem, fold by
    fold: the training set, the test rows and each row's (tree, active).
    The last row repeats the first with no active feature."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    dag = build_dag(n, random_dag(n, int(rng.integers(n, 2 * n)), seed))
    ds = generate_synthetic(dag, int(rng.integers(24, 49)), 0.3, 0.1, seed)
    folds = stratified_folds(ds, 3, seed)
    for fold in range(3):
        train = subset(ds, folds.train_indices(fold))
        rows = ds.values[folds.test_indices(fold)]
        edges = rank_edges(train, dag, smoothing)
        lazy = [hie_mst_lite(edges, dag, row, n, seed + k) for k, row in enumerate(rows)]
        yield train, np.concatenate([rows, rows[:1]]), lazy + [(empty_tree(n), frozenset())]


def assert_lazy_matches_fit(train, rows, lazy, smoothing):
    """Each row of ``_lazy_predict`` equals ``predict(fit(...))`` and the
    scalar oracles, bit for bit; returns the rows' predictions."""
    labels, log_post = bayes._lazy_predict(
        train, rows, *lazy_arrays(lazy, train.n_features), smoothing
    )
    got = [Prediction(int(y), tuple(lp)) for y, lp in zip(labels.tolist(), log_post.tolist())]
    for pred, row, (tree, active) in zip(got, rows, lazy):
        want = predict(fit(train, tree, active, smoothing), row)
        oracle = predict_reference(fit_reference(train, tree, active, smoothing), row)
        assert pred == want == oracle
        assert prediction_bits(pred) == prediction_bits(want) == prediction_bits(oracle)
    return got


class TestLazyPredict:
    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0, 3.0])
    def test_every_lazy_instance_matches_fit_and_predict(self, smoothing):
        instances = minus_inf = 0
        for seed in range(20):
            for train, rows, lazy in lazy_folds(seed, smoothing):
                got = assert_lazy_matches_fit(train, rows, lazy, smoothing)
                # A row with no active feature scores exactly the log prior.
                prior = fit(train, lazy[-1][0], (), smoothing).class_prior.tolist()
                log_prior = tuple(math.log(p) if p else -math.inf for p in prior)
                assert got[-1].log_posterior == log_prior
                assert assert_lazy_matches_fit(train, rows[:0], [], smoothing) == []
                instances += len(got)
                minus_inf += sum(-math.inf in pred.log_posterior for pred in got)
        assert instances > 500
        # Only smoothing 0 gives zero probabilities.
        assert (minus_inf > 0) == (smoothing == 0.0)

    def test_chunked_rows_match(self, monkeypatch):
        # Rows are scored _CHUNK_ROWS at a time; shrink the chunk so each
        # fold is split, some chunks short.
        monkeypatch.setattr(bayes, "_CHUNK_ROWS", 3)
        for seed in range(3):
            for train, rows, lazy in lazy_folds(seed, 1.0):
                assert len(rows) > 3
                assert_lazy_matches_fit(train, rows, lazy, 1.0)

    def test_each_distinct_cpt_logged_once_per_chunk(self, monkeypatch):
        # Per chunk: each distinct positive cell of the prior and of the
        # chunk's distinct root or (parent, feature) CPTs, logged once,
        # however many rows or CPTs share it.
        logged, chunks = [], []
        monkeypatch.setattr(
            bayes, "math", SimpleNamespace(log=lambda p: logged.append(p) or math.log(p))
        )
        log_pairs = bayes._log_pairs
        monkeypatch.setattr(
            bayes, "_log_pairs", lambda *args: chunks.append(len(logged)) or log_pairs(*args)
        )
        monkeypatch.setattr(bayes, "_CHUNK_ROWS", 4)

        def logged_per_chunk():
            got = [sorted(logged[a:b]) for a, b in zip(chunks, chunks[1:] + [len(logged)])]
            logged.clear()
            chunks.clear()
            return got

        for seed in range(3):
            for train, rows, lazy in lazy_folds(seed, 1.0):
                n = train.n_features
                parents, active = lazy_arrays(lazy, n)
                prior = bayes._class_prior(train, 1.0)
                want = []
                for start in range(0, len(rows), 4):
                    at, features = np.nonzero(active[start : start + 4])
                    tables = [prior]
                    for p, f in set(zip(parents[start + at, features].tolist(), features.tolist())):
                        tree = DependencyTree(tuple(p if g == f and p >= 0 else None for g in range(n)))
                        tables.append(fit_reference(train, tree, {f, p} - {-1}, 1.0).cpts[f])
                    want.append(positive_cells(*tables))
                bayes._lazy_predict(train, rows, parents, active, 1.0)
                assert logged_per_chunk() == want
                bayes._lazy_predict(train, rows[:0], parents[:0], active[:0], 1.0)
                assert logged_per_chunk() == [positive_cells(prior)]

    def test_zero_counts_and_zero_rows_at_smoothing_zero(self):
        # Class 0 never has x0 = 0, so under 0 -> 1 its row at x0 = 0 has no
        # mass (a zero denominator); class 1 never has (x0, x1) = (1, 0), a
        # zero count in a row with mass.
        values = np.array(
            [[1, 0, 0], [1, 1, 1], [1, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 0]],
            dtype=np.uint8,
        )
        train = Dataset(values, np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8))
        tree = DependencyTree((None, 0, None))
        assert fit(train, tree, None, 0.0).cpts[1][0, 0].tolist() == [0.0, 0.0]
        rows = np.array([[(k >> b) & 1 for b in range(3)] for k in range(8)], dtype=np.uint8)
        for active in ({0, 1, 2}, {0, 1}, {2}, set()):
            lazy = [(tree, frozenset(active))] * len(rows)
            got = assert_lazy_matches_fit(train, rows, lazy, 0.0)
            if 1 in active:
                # x0 = 0 rules out class 0; (x0, x1) = (1, 0) rules out class 1.
                assert got[0].log_posterior[0] == -math.inf
                assert got[1].log_posterior[1] == -math.inf


class TestOneKernel:
    @pytest.mark.parametrize(
        "n_rows", [0, 1, bayes._CHUNK_ROWS, bayes._CHUNK_ROWS + 1],
        ids=["0", "1", "chunk", "chunk+1"],
    )
    @pytest.mark.parametrize("subset", [False, True], ids=["all-active", "subset-active"])
    def test_lazy_equals_eager_on_one_tree(self, n_rows, subset):
        # One tree and one active set on every row: the lazy pass and the
        # eager batch must give the same labels and bits.
        rng = np.random.default_rng(17 + n_rows)
        n = 10
        train = Dataset((rng.random((60, n)) < 0.4).astype(np.uint8),
                        (rng.random(60) < 0.5).astype(np.uint8))
        active = sorted(rng.choice(n, 6, replace=False).tolist()) if subset else list(range(n))
        tree = random_forest(rng, active, n)
        X = (rng.random((n_rows, n)) < 0.5).astype(np.uint8)
        parents, mask = lazy_arrays([(tree, frozenset(active))] * n_rows, n)
        for smoothing in (0.0, 1.0):
            lazy_labels, lazy_post = bayes._lazy_predict(train, X, parents, mask, smoothing)
            labels, log_post = predict_batch(fit(train, tree, active, smoothing), X)
            assert lazy_labels.dtype == labels.dtype and lazy_labels.tolist() == labels.tolist()
            assert lazy_post.shape == log_post.shape == (n_rows, 2)
            assert lazy_post.tobytes() == log_post.tobytes()

    def test_active_features_sum_in_listed_order(self):
        # A model document may list its active features in any order; each
        # class's sum must follow that order, not feature index order.
        rng = np.random.default_rng(23)
        ds = Dataset((rng.random((40, 6)) < 0.5).astype(np.uint8),
                     (rng.random(40) < 0.5).astype(np.uint8))
        doc = model_to_dict(fit(ds, DependencyTree((None, 0, 0, 2, None, 4)), smoothing=0.5))
        listed = model_from_dict({**doc, "active_features": [5, 3, 0, 4, 2, 1]})
        ascending = model_from_dict(doc)
        assert listed.active_features == (5, 3, 0, 4, 2, 1)
        rows = (rng.random((200, 6)) < 0.5).astype(np.uint8)
        for row in rows:
            assert prediction_bits(predict(listed, row)) == prediction_bits(
                predict_reference(listed, row)
            )
        log_post = assert_batch_matches_reference(listed, rows)
        # The order shows in the bits, so a re-sorted sum would fail above.
        assert log_post.tobytes() != predict_batch(ascending, rows)[1].tobytes()


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

    @pytest.mark.parametrize("smoothing", [0.0, 1e-300, 1e-3, 1.0, 1e5, 1e300])
    def test_round_trip_keeps_every_fitted_table(self, smoothing):
        # Feature 1 is always 1 in class 0, so at smoothing 0 its child's
        # row for x_1 = 0 in class 0 has zero mass and is all zero.
        values = np.array([[0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 0]],
                          dtype=np.uint8)
        ds = Dataset(values, np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8))
        clf = fit(ds, DependencyTree((None, 0, 1)), smoothing=smoothing)
        zero_rows = sum(int(np.sum(~t.any(axis=-1))) for t in clf.cpts.values())
        assert (zero_rows > 0) == (smoothing == 0.0)
        again = model_from_dict(json.loads(json.dumps(model_to_dict(clf))))
        assert again.smoothing == smoothing
        assert again.class_prior.tobytes() == clf.class_prior.tobytes()
        for f, table in clf.cpts.items():
            assert again.cpts[f].tobytes() == table.tobytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(fitted_problems())
    def test_one_log_layout_however_built(self, problem):
        # fit hands its CPT stack over; a loaded or directly built classifier
        # stacks its cpts dict. Both give the same logs, bit for bit.
        ds, tree, active, smoothing = problem
        clf = fit(ds, tree, active, smoothing)
        for table in clf.cpts.values():
            assert table.base is clf._tables
        loaded = model_from_dict(model_to_dict(clf))
        direct = FittedClassifier(clf.tree, clf.class_prior, dict(clf.cpts), clf.smoothing,
                                  clf.active_features, clf.feature_names)
        for other in (loaded, direct):
            assert "_tables" not in vars(other)
            *arrays, n = other._log_cpts
            assert n == clf._log_cpts[-1]
            for got, want in zip(arrays, clf._log_cpts):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_rejects_foreign_documents(self):
        with pytest.raises(ParseError):
            model_from_dict({"format": "something-else"})

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.clear(),
            lambda d: d.pop("cpts"),
            lambda d: d["tree"].append(None),
            lambda d: d.update(tree=[1, 0, None]),
            lambda d: d.update(class_prior=[0.5, 0.25, 0.25]),
            lambda d: d.update(class_prior=[math.nan, 0.5]),
            lambda d: d["cpts"].pop("2"),
            lambda d: d.update(active_features=[0, 1, 1, 2]),
            lambda d: d["cpts"].update({"0": [[[0.5, 0.5]] * 2] * 2}),
            lambda d: d["cpts"].update({"1": [[0.5, 0.5]] * 2}),
            lambda d: d["cpts"].update({"1": [[0.5], [0.5, 0.5]]}),
            lambda d: d["cpts"].update({"2": [[[1.5, -0.5]] * 2] * 2}),
            lambda d: (d["cpts"].pop("0"), d.update(active_features=[1, 2])),
            lambda d: d.update(tree=[None, 0.7, 0.2]),
            lambda d: d.update(tree=[None, False, True]),
            lambda d: d.update(active_features=[0, 1.5, 2.9]),
            lambda d: d.update(active_features=[False, True, 2]),
            lambda d: d["cpts"].update({"01": d["cpts"].pop("1")}),
            lambda d: d.update(smoothing=-3.0),
            lambda d: d.update(smoothing=math.nan),
            lambda d: d.update(feature_names="abc"),
            lambda d: d.update(feature_names=[0, 1, 2]),
            lambda d: d.update(smoothing="1.5"),
            lambda d: d.update(smoothing=True),
            lambda d: d.update(class_prior=[0.1, 0.1]),
            lambda d: d["cpts"]["2"][1].__setitem__(0, [0.1, 0.1]),
            lambda d: d.update(class_prior=[True, False]),
            lambda d: d["cpts"]["0"].__setitem__(0, [0.0, 0.0]),
            lambda d: d.update(smoothing=10**400),
            lambda d: d.update(tree=[1, 5, None]),
            lambda d: d.update(cpts=[]),
            lambda d: d.update(cpts="cpts"),
            lambda d: d.update(cpts=None),
        ],
        ids=[
            "no-format", "no-cpts", "tree-length", "tree-cycle", "prior-shape",
            "prior-nan", "cpt-keys", "duplicate-active", "root-shape",
            "parented-shape", "ragged-cpt", "cpt-range", "inactive-parent",
            "tree-float", "tree-bool", "active-float", "active-bool",
            "cpt-key-zero-padded", "smoothing-negative",
            "smoothing-nan", "names-string", "names-not-strings",
            "smoothing-string", "smoothing-bool", "prior-not-a-distribution",
            "cpt-row-not-a-distribution", "prior-bool", "zero-row-with-smoothing",
            "smoothing-too-large-for-a-float", "tree-out-of-range-past-a-parent",
            "cpts-list", "cpts-string", "cpts-null",
        ],
    )
    def test_rejects_malformed_documents(self, corrupt):
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8),
                     np.array([0, 1, 1], dtype=np.uint8))
        doc = model_to_dict(fit(ds, DependencyTree((None, 0, 1))))
        model_from_dict(json.loads(json.dumps(doc)))
        corrupt(doc)
        with pytest.raises(ParseError):
            model_from_dict(json.loads(json.dumps(doc)))

    def test_rejects_repeated_feature_names(self):
        # Such a model would refuse every data file: a header repeats no name.
        ds = Dataset(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8),
                     np.array([0, 1, 1], dtype=np.uint8), ("a", "b", "c"))
        doc = json.loads(json.dumps(model_to_dict(fit(ds, DependencyTree((None, 0, 1))))))
        doc["feature_names"] = ["a", "b", "a"]
        with pytest.raises(ParseError, match=r"^feature name 'a' is repeated$"):
            model_from_dict(doc)

    @pytest.mark.parametrize("content", [b"not a model\n", b"\xff\xfe{}"],
                             ids=["text", "binary"])
    def test_load_rejects_non_json(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="model.json"):
            load_model(path)

    def test_load_drops_one_byte_order_mark(self, tmp_path):
        # As dataset and hierarchy files do; a second mark is not JSON.
        ds = Dataset(np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8),
                     np.array([0, 1, 1], dtype=np.uint8))
        clf = fit(ds, DependencyTree((None, 0)))
        path = tmp_path / "model.json"
        save_model(clf, path)
        text = path.read_bytes()
        path.write_bytes(codecs.BOM_UTF8 + text)
        again = load_model(path)
        assert model_to_dict(again) == model_to_dict(clf)
        path.write_bytes(2 * codecs.BOM_UTF8 + text)
        with pytest.raises(ParseError, match="model.json: not a JSON document"):
            load_model(path)

    def test_dict_is_json_clean(self):
        ds = Dataset(np.array([[0], [1]], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
        clf = fit(ds, empty_tree(1))
        json.dumps(model_to_dict(clf))
