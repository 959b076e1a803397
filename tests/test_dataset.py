import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hietan.dataset import (
    Dataset,
    generate_synthetic,
    generate_synthetic_with_rule,
    load_dataset,
    repair_propagation,
    save_dataset,
    stratified_folds,
    subset,
    validate_propagation,
)
from hietan.errors import (
    DimensionMismatch,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
    TooFewInstances,
)
from hietan.bayes import fit
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import rank_edges
from hietan.tree import DependencyTree

from conftest import A, B, C, D, E, F
from oracles import joint_counts

TINY_CSV = """A,B,C,D,E,F,class
1,1,1,1,1,1,0
0,1,0,0,0,1,1
"""


class TestLoad:
    def test_small_file_round(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(TINY_CSV)
        ds = load_dataset(path)
        assert ds.n_instances == 2 and ds.n_features == 6
        assert ds.feature_names == ("A", "B", "C", "D", "E", "F")
        assert ds.values[0].tolist() == [1, 1, 1, 1, 1, 1]
        assert ds.values[1].tolist() == [0, 1, 0, 0, 0, 1]
        assert ds.labels.tolist() == [0, 1]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,class\r\n1,0\r\n")
        ds = load_dataset(path)
        assert ds.n_instances == 1 and ds.values[0, 0] == 1

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,class\n")
        ds = load_dataset(path)
        assert ds.n_instances == 0 and ds.n_features == 2

    def test_non_binary_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,class\n2,0\n")
        with pytest.raises(NonBinaryValue, match=":2:"):
            load_dataset(path)

    def test_missing_class_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n0,1\n")
        with pytest.raises(MissingClassColumn):
            load_dataset(path)

    def test_wrong_column_count_has_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,class\n0,1,0\n0,1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == 3

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            (rng.random((17, 5)) < 0.4).astype(np.uint8),
            (rng.random(17) < 0.5).astype(np.uint8),
            tuple(f"g{i}" for i in range(5)),
        )
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert np.array_equal(again.values, ds.values)
        assert np.array_equal(again.labels, ds.labels)
        assert again.feature_names == ds.feature_names
        save_dataset(again, tmp_path / "d2.csv")
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        with pytest.raises(NonBinaryValue):
            Dataset(np.full((1, 1), 2), np.zeros(1))


class TestPropagation:
    def test_tiny_dataset_is_consistent(self, tiny_consistent_dataset, canonical_dag):
        assert validate_propagation(tiny_consistent_dataset, canonical_dag) == []

    def test_violation_reported(self, canonical_dag):
        row = np.zeros((1, 6), dtype=np.uint8)
        row[0, D] = 1
        ds = Dataset(row, np.array([0]))
        triples = validate_propagation(ds, canonical_dag)
        assert (0, D, C) in triples
        assert {(r, f, a) for r, f, a in triples} == {
            (0, D, A), (0, D, C), (0, D, E), (0, D, F)
        }

    def test_repair_propagates_to_all_ancestors(self, canonical_dag):
        row = np.zeros((1, 6), dtype=np.uint8)
        row[0, D] = 1
        repaired = repair_propagation(Dataset(row, np.array([0])), canonical_dag)
        assert repaired.values[0].tolist() == [1, 0, 1, 1, 1, 1]  # A,C,D,E,F set

    def test_repair_keeps_zero_rows(self, canonical_dag):
        ds = Dataset(np.zeros((3, 6), dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        repaired = repair_propagation(ds, canonical_dag)
        assert not repaired.values.any()

    @settings(max_examples=30, derandomize=True)
    @given(st.integers(0, 10_000))
    def test_repair_idempotent_and_valid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        dag = build_dag(n, random_dag(n, int(rng.integers(0, 2 * n)), seed))
        ds = Dataset(
            (rng.random((20, n)) < 0.3).astype(np.uint8),
            (rng.random(20) < 0.5).astype(np.uint8),
        )
        once = repair_propagation(ds, dag)
        twice = repair_propagation(once, dag)
        assert validate_propagation(once, dag) == []
        assert np.array_equal(once.values, twice.values)

    def test_dimension_mismatch(self, canonical_dag):
        ds = Dataset(np.zeros((1, 4), dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        with pytest.raises(DimensionMismatch):
            validate_propagation(ds, canonical_dag)


def _balanced_dataset(n0, n1, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n0 + n1
    labels = np.array([0] * n0 + [1] * n1, dtype=np.uint8)
    rng.shuffle(labels)
    return Dataset((rng.random((n, n_features)) < 0.5).astype(np.uint8), labels)


class TestFolds:
    def test_exact_divisibility(self):
        ds = _balanced_dataset(10, 10)
        folds = stratified_folds(ds, 10, seed=1)
        for f in range(10):
            idx = folds.test_indices(f)
            assert len(idx) == 2
            assert ds.labels[idx].sum() == 1  # one of each class

    def test_deterministic(self):
        ds = _balanced_dataset(13, 9)
        a = stratified_folds(ds, 5, seed=7)
        b = stratified_folds(ds, 5, seed=7)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_per_class_balance_61_42(self):
        ds = _balanced_dataset(61, 42, seed=3)
        folds = stratified_folds(ds, 10, seed=3)
        for cls in (0, 1):
            per_fold = [
                int(np.sum((folds.fold_of == f) & (ds.labels == cls)))
                for f in range(10)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_partition(self):
        ds = _balanced_dataset(20, 15)
        folds = stratified_folds(ds, 7, seed=0)
        all_test = np.concatenate([folds.test_indices(f) for f in range(7)])
        assert sorted(all_test.tolist()) == list(range(35))
        for f in range(7):
            assert len(folds.test_indices(f)) > 0

    def test_too_few_instances(self):
        ds = _balanced_dataset(2, 1)
        with pytest.raises(TooFewInstances):
            stratified_folds(ds, 4, seed=0)

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((6, 2), dtype=np.uint8), np.zeros(6, dtype=np.uint8))
        with pytest.raises(TooFewInstances):
            stratified_folds(ds, 2, seed=0)


class TestSynthetic:
    def test_always_consistent(self, canonical_dag):
        for seed in range(5):
            ds = generate_synthetic(canonical_dag, 30, 0.4, 0.1, seed)
            assert validate_propagation(ds, canonical_dag) == []

    def test_noise_free_labels_recomputable(self, canonical_dag):
        ds, rule = generate_synthetic_with_rule(canonical_dag, 50, 0.5, 0.0, 9)
        assert np.array_equal(ds.labels, rule.labels_for(ds.values))

    def test_zero_density_all_zero(self, canonical_dag):
        ds = generate_synthetic(canonical_dag, 25, 0.0, 0.0, 2)
        assert not ds.values.any()

    def test_deterministic(self, canonical_dag):
        a = generate_synthetic(canonical_dag, 40, 0.3, 0.2, 5)
        b = generate_synthetic(canonical_dag, 40, 0.3, 0.2, 5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_probability(self, canonical_dag):
        with pytest.raises(ValueError):
            generate_synthetic(canonical_dag, 10, 1.5, 0.0, 0)


def test_subset_keeps_metadata():
    ds = _balanced_dataset(6, 6, n_features=4, seed=1)
    sub = subset(ds, [0, 2, 4])
    assert sub.n_instances == 3
    assert sub.feature_names == ds.feature_names
    assert np.array_equal(sub.values, ds.values[[0, 2, 4]])


class TestPairCounts:
    def test_matches_direct_scan_for_every_ordered_pair(self):
        rng = np.random.default_rng(31)
        problems = [(int(rng.integers(1, 40)), int(rng.integers(1, 8))) for _ in range(8)]
        for trial, (m, n) in enumerate(problems + [(0, 3), (12, 1)]):
            values = (rng.random((m, n)) < rng.random()).astype(np.uint8)
            labels = (rng.random(m) < 0.5).astype(np.uint8)
            if trial % 4 == 0:
                labels[:] = trial % 8 == 0  # one class only
            ds = Dataset(values, labels)
            # Beside a copy of itself, feature f's diagonal table (f, f) is
            # the pair table (f, f + n).
            twin = Dataset(np.hstack([values, values]), labels)
            i, j = (a.ravel() for a in np.indices((n, n)))
            tables = ds._pair_counts(i, j)
            assert tables.shape == (n * n, 2, 2, 2)
            for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
                want = joint_counts(twin, a, b + n if a == b else b).table
                assert tables[k].tolist() == want.tolist()

    def test_statistics_computed_once(self):
        rng = np.random.default_rng(2)
        ds = Dataset((rng.random((20, 4)) < 0.5).astype(np.uint8),
                     (rng.random(20) < 0.5).astype(np.uint8))
        stats = ds._class_stats
        rank_edges(ds, build_dag(4, []))
        fit(ds, DependencyTree((None, 0, 0, 2)), {0, 2, 3})
        assert ds._class_stats is stats
