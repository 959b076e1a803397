import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hietan.dataset import Dataset
from hietan.errors import DegenerateDistribution, IndexOutOfRange
from hietan.mutual_info import (
    JointCounts,
    ScoredEdge,
    cmi,
    joint_counts,
    rank_edges,
)

from conftest import C, D, E, F
from golden import GOLDEN_ORDER_7, golden_dataset


def cmi_oracle(xi, xj, y, smoothing):
    """Direct summation over explicit conditional probabilities, written
    before the main implementation and kept independent of it."""
    n = len(y)
    joint = {}
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                count = sum(
                    1 for u, v, w in zip(xi, xj, y) if (u, v, w) == (a, b, c)
                )
                joint[(a, b, c)] = (count + smoothing) / (n + 8 * smoothing)
    total = 0.0
    for (a, b, c), p_abc in joint.items():
        if p_abc == 0:
            continue
        p_c = sum(joint[(u, v, c)] for u in (0, 1) for v in (0, 1))
        p_ab_given_c = p_abc / p_c
        p_a_given_c = sum(joint[(a, v, c)] for v in (0, 1)) / p_c
        p_b_given_c = sum(joint[(u, b, c)] for u in (0, 1)) / p_c
        total += p_abc * math.log(p_ab_given_c / (p_a_given_c * p_b_given_c))
    return total


def random_dataset(rng, n_instances, n_features):
    return Dataset(
        (rng.random((n_instances, n_features)) < rng.random()).astype(np.uint8),
        (rng.random(n_instances) < 0.5).astype(np.uint8),
    )


class TestJointCounts:
    def test_two_row_pair_counts(self, tiny_consistent_dataset):
        counts = joint_counts(tiny_consistent_dataset, E, D)
        assert counts.n == 2
        assert counts.table[1, 1, 0] == 1  # instance 1: E=1, D=1, label 0
        assert counts.table[0, 0, 1] == 1  # instance 2: E=0, D=0, label 1
        assert counts.table.sum() == 2

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 3), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        counts = joint_counts(ds, 0, 1)
        assert counts.n == 0 and not counts.table.any()

    def test_cells_partition_instances(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 37, 5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert joint_counts(ds, i, j).table.sum() == 37

    def test_bad_indices(self, tiny_consistent_dataset):
        with pytest.raises(IndexOutOfRange):
            joint_counts(tiny_consistent_dataset, 0, 9)
        with pytest.raises(ValueError):
            joint_counts(tiny_consistent_dataset, 2, 2)


class TestCmi:
    def test_constant_feature_zero(self):
        rng = np.random.default_rng(1)
        values = (rng.random((20, 2)) < 0.5).astype(np.uint8)
        values[:, 0] = 1
        ds = Dataset(values, (rng.random(20) < 0.5).astype(np.uint8))
        assert cmi(joint_counts(ds, 0, 1), smoothing=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 60, 6)
        for i in range(6):
            for j in range(i + 1, 6):
                assert cmi(joint_counts(ds, i, j)) == cmi(joint_counts(ds, j, i))

    def test_matches_oracle_on_hand_dataset(self):
        values = np.array(
            [
                [0, 0], [0, 1], [1, 0], [1, 1],
                [1, 1], [1, 0], [0, 1], [1, 1],
            ],
            dtype=np.uint8,
        )
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
        ds = Dataset(values, labels)
        for s in (0.0, 0.5, 1.0):
            got = cmi(joint_counts(ds, 0, 1), s)
            want = cmi_oracle(values[:, 0], values[:, 1], labels, s)
            assert got == pytest.approx(want, abs=1e-10)

    def test_degenerate(self):
        empty = JointCounts(np.zeros((2, 2, 2), dtype=np.int64), 0)
        with pytest.raises(DegenerateDistribution):
            cmi(empty, smoothing=0.0)
        assert cmi(empty, smoothing=1.0) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=80, derandomize=True)
    @given(st.lists(st.integers(0, 40), min_size=8, max_size=8),
           st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    def test_nonnegative(self, cells, smoothing):
        counts = JointCounts(np.array(cells).reshape(2, 2, 2), sum(cells))
        if counts.n == 0 and smoothing == 0.0:
            return
        assert cmi(counts, smoothing) >= -1e-12

    def test_exact_conditional_independence_gives_zero(self):
        # counts[a, b, c] = row_c[a] * col_c[b] is exactly product-form per class
        table = np.zeros((2, 2, 2), dtype=np.int64)
        for c, (row, col) in enumerate([((2, 3), (1, 4)), ((5, 1), (2, 2))]):
            for a in (0, 1):
                for b in (0, 1):
                    table[a, b, c] = row[a] * col[b]
        counts = JointCounts(table, int(table.sum()))
        assert abs(cmi(counts, smoothing=0.0)) < 1e-12


class TestRankEdges:
    def test_pair_count(self, canonical_dag):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 30, 6)
        assert len(rank_edges(ds, canonical_dag)) == 15

    def test_sorted_non_increasing_and_permutation(self, canonical_dag):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 50, 6)
        edges = rank_edges(ds, canonical_dag)
        scores = [e.score for e in edges]
        assert scores == sorted(scores, reverse=True)
        assert {(e.i, e.j) for e in edges} == {
            (i, j) for i in range(6) for j in range(i + 1, 6)
        }

    def test_golden_order(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        assert [e.pair for e in edges[:7]] == GOLDEN_ORDER_7
        assert edges[0].pair == (C, F)

    def test_tie_break_lexicographic(self, canonical_dag):
        # All-identical columns give identical scores for every pair.
        values = np.tile(np.array([[1], [0], [1], [0]], dtype=np.uint8), (1, 6))
        ds = Dataset(values, np.array([0, 1, 0, 1], dtype=np.uint8))
        edges = rank_edges(ds, canonical_dag)
        assert len({round(e.score, 15) for e in edges}) == 1
        assert [e.pair for e in edges] == sorted(e.pair for e in edges)

    def test_scores_match_joint_counts_route(self, canonical_dag):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 40, 6)
        for e in rank_edges(ds, canonical_dag, 0.7):
            assert e.score == cmi(joint_counts(ds, e.i, e.j), 0.7)


def test_scored_edge_requires_ordered_pair():
    with pytest.raises(ValueError):
        ScoredEdge(3, 3, 0.1)
