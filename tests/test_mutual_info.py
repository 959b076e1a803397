import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hietan.dataset import Dataset
from hietan.errors import DegenerateDistribution, IndexOutOfRange
from hietan.hierarchy import build_dag
from hietan.mutual_info import (
    JointCounts,
    ScoredEdge,
    cmi,
    rank_edges,
)

from conftest import C, D, E, F
from golden import GOLDEN_ORDER_7, golden_dataset
from oracles import cmi_reference, joint_counts, rank_edges_reference

SWEEP_SMOOTHING = [0.0, 0.25, 0.7, 1.0, 3.0]
BAD_SMOOTHING = [-1.0, math.nan, math.inf]


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


def sweep_datasets():
    """Seeded problems for the kernel-versus-reference sweep: random densities,
    constant columns, one class only, two features and zero instances."""
    rng = np.random.default_rng(17)
    out = [random_dataset(rng, int(rng.integers(8, 40)), 9) for _ in range(6)]
    constant = random_dataset(rng, 30, 7)
    values = constant.values.copy()
    values[:, 1] = 0
    values[:, 4] = 1
    out.append(Dataset(values, constant.labels))
    single = random_dataset(rng, 25, 6)
    out.append(Dataset(single.values, np.ones(25, dtype=np.uint8)))
    out.append(random_dataset(rng, 20, 2))
    out.append(Dataset(np.zeros((0, 5), dtype=np.uint8), np.zeros(0, dtype=np.uint8)))
    return out


# Class 0 never has x_i = 1 or x_j = 1: under smoothing 1e-200, p_iy * p_jy
# underflows to 0 in a live cell.
UNDERFLOW_CELLS = [[[50, 0], [0, 0]], [[0, 25], [0, 25]]]


def tied_tables_dataset():
    """Four features whose pairs (0, 1) and (2, 3) carry two different
    tables with the same score: equal class-0 parts, and class-1 parts
    [31, 15, 11, 5] and [35, 17, 7, 3] (cells x_i x_j = 00, 01, 10, 11), both
    exactly independent after +1 smoothing. Order-dependent float sums
    split this tie in the last bit."""
    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    parts = {
        0: ([45, 24, 25, 4], [45, 24, 25, 4]),
        1: ([31, 15, 11, 5], [35, 17, 7, 3]),
    }
    rows, labels = [], []
    for y, (first, second) in parts.items():
        left = [c for c, k in zip(cells, first) for _ in range(k)]
        right = [c for c, k in zip(cells, second) for _ in range(k)]
        rows += [a + b for a, b in zip(left, right)]
        labels += [y] * len(left)
    return Dataset(np.array(rows, dtype=np.uint8), np.array(labels, dtype=np.uint8))


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

    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.integers(0, 60), min_size=8, max_size=8),
           st.sampled_from(SWEEP_SMOOTHING))
    def test_matches_scalar_reference(self, cells, smoothing):
        counts = JointCounts(np.array(cells).reshape(2, 2, 2), sum(cells))
        if counts.n == 0 and smoothing == 0.0:
            return
        assert cmi(counts, smoothing) == cmi_reference(counts, smoothing)

    @pytest.mark.parametrize("smoothing", BAD_SMOOTHING)
    def test_rejects_bad_smoothing(self, smoothing):
        counts = JointCounts(np.ones((2, 2, 2), dtype=np.int64), 8)
        with pytest.raises(ValueError, match="smoothing"):
            cmi(counts, smoothing)

    @pytest.mark.parametrize("cells, smoothing", [
        (UNDERFLOW_CELLS, 1e-200),
        # Class 1 holds 2 of 100 rows: p * p_y underflows in its empty cells.
        ([[[49, 0], [0, 1]], [[0, 1], [49, 0]]], 1e-320),
    ])
    def test_underflowing_smoothing_is_degenerate(self, cells, smoothing):
        with pytest.raises(DegenerateDistribution, match="underflow"):
            cmi(JointCounts(np.array(cells), 100), smoothing)

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
        assert [(e.i, e.j) for e in edges[:7]] == GOLDEN_ORDER_7
        assert (edges[0].i, edges[0].j) == (C, F)

    def test_tie_break_lexicographic(self, canonical_dag):
        # All-identical columns give identical scores for every pair.
        values = np.tile(np.array([[1], [0], [1], [0]], dtype=np.uint8), (1, 6))
        ds = Dataset(values, np.array([0, 1, 0, 1], dtype=np.uint8))
        edges = rank_edges(ds, canonical_dag)
        assert len({round(e.score, 15) for e in edges}) == 1
        pairs = [(e.i, e.j) for e in edges]
        assert pairs == sorted(pairs)

    def test_scores_match_joint_counts_route(self, canonical_dag):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 40, 6)
        for e in rank_edges(ds, canonical_dag, 0.7):
            assert e.score == cmi(joint_counts(ds, e.i, e.j), 0.7)

    @pytest.mark.parametrize("smoothing", SWEEP_SMOOTHING)
    def test_matches_per_pair_reference(self, smoothing):
        for ds in sweep_datasets():
            dag = build_dag(ds.n_features, [])
            if ds.n_instances == 0 and smoothing == 0.0:
                with pytest.raises(DegenerateDistribution):
                    rank_edges(ds, dag, smoothing)
                continue
            assert rank_edges(ds, dag, smoothing) == rank_edges_reference(ds, smoothing)

    def test_exact_tie_between_different_tables(self):
        ds = tied_tables_dataset()
        assert not np.array_equal(joint_counts(ds, 0, 1).table, joint_counts(ds, 2, 3).table)
        edges = rank_edges(ds, build_dag(4, []))
        score = {(e.i, e.j): e.score for e in edges}
        assert score[(0, 1)] == score[(2, 3)]
        tied = [(e.i, e.j) for e in edges if e.score == score[(0, 1)]]
        assert tied == sorted(tied) and {(0, 1), (2, 3)} <= set(tied)

    def test_underflowing_smoothing_is_degenerate(self):
        code = np.arange(8).reshape(2, 2, 2)
        rows = np.repeat(code.ravel(), np.array(UNDERFLOW_CELLS).ravel())
        values = np.stack([rows // 4, rows // 2 % 2], axis=1).astype(np.uint8)
        ds = Dataset(values, (rows % 2).astype(np.uint8))
        with pytest.raises(DegenerateDistribution, match="underflow"):
            rank_edges(ds, build_dag(2, []), 1e-200)

    @pytest.mark.parametrize("smoothing", BAD_SMOOTHING)
    def test_rejects_bad_smoothing(self, canonical_dag, smoothing):
        ds = random_dataset(np.random.default_rng(3), 20, 6)
        with pytest.raises(ValueError, match="smoothing"):
            rank_edges(ds, canonical_dag, smoothing)


def test_scored_edge_requires_ordered_pair():
    with pytest.raises(ValueError):
        ScoredEdge(3, 3, 0.1)


def test_scored_edge_is_slotted_frozen_and_picklable():
    edge = ScoredEdge(1, 4, 0.25)
    assert not hasattr(edge, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        edge.score = 0.5
    assert pickle.loads(pickle.dumps(edge)) == edge
    assert edge == ScoredEdge(1, 4, 0.25) and edge != ScoredEdge(1, 4, 0.5)
