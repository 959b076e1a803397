import decimal
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hietan import mutual_info
from hietan.dataset import Dataset, generate_synthetic, stratified_folds, subset
from hietan.errors import (
    DegenerateDistribution,
    DimensionMismatch,
    IndexOutOfRange,
    TooFewFeatures,
)
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import _RankedPairs, _ranked_pairs, rank_edges
from hietan.structure import _grow, _tan

from conftest import C, D, E, F
from golden import GOLDEN_ORDER_7, GOLDEN_SCORES_12, golden_dataset, golden_scores_dataset
from oracles import JointCounts, cmi, cmi_reference, joint_counts, rank_edges_reference

SWEEP_SMOOTHING = [0.0, 0.25, 0.7, 1.0, 3.0, 1e5]
EXACT_SMOOTHING = [0.0, 1e-3, 0.5, 1.0, 3.0]
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
# underflows to 0 in a live cell of float probabilities.
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


def assert_same_scores(got, want):
    scores = np.array([s for _, _, s in got])
    assert scores.tobytes() == np.array([s for _, _, s in want]).tobytes()


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

    def test_stores_private_copy(self):
        a = np.ones((2, 2, 2), dtype=np.int64)
        counts = JointCounts(a, 8)
        assert a.flags.writeable
        a[0, 0, 0] = 5
        assert counts.table[0, 0, 0] == 1
        assert not counts.table.flags.writeable

    # Truncated to int64, two cells of 1.5 would sum to the total of 8.
    @pytest.mark.parametrize("first, last", [(1.5, 1.5), (np.nan, 1.0), (np.inf, 1.0)])
    def test_rejects_non_integral_cells(self, first, last):
        f = np.ones((2, 2, 2))
        f[0, 0, 0], f[1, 1, 1] = first, last
        with pytest.raises(ValueError, match="integers"):
            JointCounts(f, 8)

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

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.integers(0, 300), min_size=8, max_size=8),
           st.sampled_from(EXACT_SMOOTHING))
    def test_matches_decimal_reference(self, cells, smoothing):
        counts = JointCounts(np.array(cells).reshape(2, 2, 2), sum(cells))
        if counts.n == 0 and smoothing == 0.0:
            return
        got = cmi(counts, smoothing)
        assert got.hex() == cmi_reference(counts, smoothing).hex()
        # Exactly symmetric: swapping the two features transposes each slice.
        swapped = JointCounts(counts.table.transpose(1, 0, 2), counts.n)
        assert cmi(swapped, smoothing).hex() == got.hex()

    @pytest.mark.parametrize("cells, smoothing", [
        (UNDERFLOW_CELLS, 1e-200),
        # Class 1 holds 2 of 100 rows: p * p_y underflows in its empty cells.
        ([[[49, 0], [0, 1]], [[0, 1], [49, 0]]], 1e-320),
    ])
    def test_underflowing_smoothing_is_degenerate(self, cells, smoothing):
        # Degenerate only for float probabilities, which underflow here; the
        # exact score does not, and gives the reference's bits.
        counts = JointCounts(np.array(cells), 100)
        got = cmi(counts, smoothing)
        assert 0.0 < got == cmi_reference(counts, smoothing)

    def test_exact_conditional_independence_gives_zero(self):
        # counts[a, b, c] = row_c[a] * col_c[b] is exactly product-form per class
        table = np.zeros((2, 2, 2), dtype=np.int64)
        for c, (row, col) in enumerate([((2, 3), (1, 4)), ((5, 1), (2, 2))]):
            for a in (0, 1):
                for b in (0, 1):
                    table[a, b, c] = row[a] * col[b]
        counts = JointCounts(table, int(table.sum()))
        assert cmi(counts, smoothing=0.0).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("slices, smoothing", [
        # Per class, cells 00, 01, 10, 11 with (c00 + s)(c11 + s) =
        # (c01 + s)(c10 + s) exactly.
        ([[3, 7, 5, 11], [1, 5, 2, 8]], 1.0),
        ([[1, 4, 2, 7], [0, 2, 1, 7]], 0.5),
        ([[9, 0, 0, 0], [0, 0, 0, 0]], 0.0),
        ([[4, 4, 4, 4], [2, 2, 2, 2]], 1e-3),
    ])
    def test_factorising_tables_score_positive_zero(self, slices, smoothing, monkeypatch):
        table = np.array(slices).reshape(2, 2, 2).transpose(1, 2, 0)
        counts = JointCounts(table, int(table.sum()))
        assert counts.table[1, 0, 0] == slices[0][2]
        bits = record_entry_bits(monkeypatch)
        assert cmi(counts, smoothing).hex() == "0x0.0p+0"
        assert bits == [mutual_info._BITS]  # the tables, and no exact sum


class TestRankEdges:
    def test_pair_count(self, canonical_dag):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng, 30, 6)
        assert len(rank_edges(ds, canonical_dag)) == 15

    def test_sorted_non_increasing_and_permutation(self, canonical_dag):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 50, 6)
        edges = rank_edges(ds, canonical_dag)
        scores = [s for _, _, s in edges]
        assert scores == sorted(scores, reverse=True)
        assert sorted((i, j) for i, j, _ in edges) == [
            (i, j) for i in range(6) for j in range(i + 1, 6)
        ]
        assert all(
            type(i) is int and type(j) is int and type(s) is float for i, j, s in edges
        )

    def test_golden_order(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        assert [(i, j) for i, j, _ in edges[:7]] == GOLDEN_ORDER_7
        assert edges[0][:2] == (C, F)

    def test_tie_break_lexicographic(self, canonical_dag):
        # All-identical columns give identical scores for every pair.
        values = np.tile(np.array([[1], [0], [1], [0]], dtype=np.uint8), (1, 6))
        ds = Dataset(values, np.array([0, 1, 0, 1], dtype=np.uint8))
        edges = rank_edges(ds, canonical_dag)
        assert len({round(s, 15) for _, _, s in edges}) == 1
        pairs = [(i, j) for i, j, _ in edges]
        assert pairs == sorted(pairs)

    def test_scores_match_joint_counts_route(self, canonical_dag):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 40, 6)
        for i, j, s in rank_edges(ds, canonical_dag, 0.7):
            assert s == cmi(joint_counts(ds, i, j), 0.7)

    @pytest.mark.parametrize("smoothing", SWEEP_SMOOTHING)
    def test_matches_per_pair_reference(self, smoothing):
        for ds in sweep_datasets():
            dag = build_dag(ds.n_features, [])
            if ds.n_instances == 0 and smoothing == 0.0:
                with pytest.raises(DegenerateDistribution):
                    rank_edges(ds, dag, smoothing)
                continue
            assert rank_edges(ds, dag, smoothing) == rank_edges_reference(ds, smoothing)

    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    @pytest.mark.parametrize("one_class", [False, True])
    def test_memo_matches_reference_across_blocks(self, smoothing, one_class, monkeypatch):
        # With blocks of 500, the 1 770 pairs span four summing blocks, the
        # last one short, and sparse columns repeat class slices within and
        # across them.
        monkeypatch.setattr(mutual_info, "_BLOCK", 500)
        ds = generate_synthetic(build_dag(60, random_dag(60, 40, 11)), 120, 0.3, 0.05, 11)
        if one_class:
            ds = Dataset(ds.values, np.zeros(ds.n_instances, dtype=np.uint8))
        got = rank_edges(ds, build_dag(60, []), smoothing)
        want = rank_edges_reference(ds, smoothing)
        assert got == want
        assert len(got) > 3 * mutual_info._BLOCK
        assert_same_scores(got, want)

    def test_matches_reference_at_real_block_size(self):
        # 4 950 pairs: one full block of the real size and a short one.
        ds = generate_synthetic(build_dag(100, random_dag(100, 60, 12)), 150, 0.3, 0.05, 12)
        got = rank_edges(ds, build_dag(100, []))
        want = rank_edges_reference(ds, 1.0)
        assert got == want
        assert len(got) > mutual_info._BLOCK
        assert_same_scores(got, want)

    def test_exact_tie_between_different_tables(self):
        ds = tied_tables_dataset()
        assert not np.array_equal(joint_counts(ds, 0, 1).table, joint_counts(ds, 2, 3).table)
        edges = rank_edges(ds, build_dag(4, []))
        score = {(i, j): s for i, j, s in edges}
        assert score[(0, 1)] == score[(2, 3)]
        tied = [(i, j) for i, j, s in edges if s == score[(0, 1)]]
        assert tied == sorted(tied) and {(0, 1), (2, 3)} <= set(tied)

    def test_underflowing_smoothing_is_degenerate(self):
        # Float probabilities underflow on this dataset; the exact scores
        # do not, and match the reference.
        code = np.arange(8).reshape(2, 2, 2)
        rows = np.repeat(code.ravel(), np.array(UNDERFLOW_CELLS).ravel())
        values = np.stack([rows // 4, rows // 2 % 2], axis=1).astype(np.uint8)
        ds = Dataset(values, (rows % 2).astype(np.uint8))
        got = rank_edges(ds, build_dag(2, []), 1e-200)
        assert got == rank_edges_reference(ds, 1e-200) and got[0][2] > 0.0

    @pytest.mark.parametrize("smoothing", BAD_SMOOTHING)
    def test_rejects_bad_smoothing(self, canonical_dag, smoothing):
        ds = random_dataset(np.random.default_rng(3), 20, 6)
        with pytest.raises(ValueError, match="smoothing"):
            rank_edges(ds, canonical_dag, smoothing)

    def test_swapped_column_sums_share_a_slice(self):
        ds = random_dataset(np.random.default_rng(8), 14, 16)
        n = ds.n_features
        ordered, unordered, key, exact = [], [], {}, {}
        for y in (0, 1):
            X = ds.values[ds.labels == y].astype(np.int64)
            ones, gram = X.sum(axis=0), X.T @ X
            pairs = [(gram[i, j], ones[i], ones[j]) for i in range(n) for j in range(i + 1, n)]
            ordered.append(len(set(pairs)))
            unordered.append(len({(n11, frozenset((a, b))) for n11, a, b in pairs}))
            for i in range(n):
                for j in range(i + 1, n):
                    key.setdefault((i, j), []).append(
                        (int(gram[i, j]), *sorted((int(ones[i]), int(ones[j])))))
                    exact.setdefault((i, j), []).append(
                        (int(gram[i, j]), int(ones[i]), int(ones[j])))
        # Some pairs share n11 and carry each other's column sums swapped.
        assert ordered[0] > unordered[0] and ordered[1] > unordered[1]
        groups = {}
        for pair, k in key.items():
            groups.setdefault(tuple(k), []).append(pair)
        shared = [g for g in groups.values() if len(g) > 1]
        # Pairs grouped only through a swap: their slices differ as ordered.
        assert any(len({tuple(exact[p]) for p in g}) > 1 for g in shared)
        for smoothing in (0.0, 1.0):
            got = rank_edges(ds, build_dag(n, []), smoothing)
            want = rank_edges_reference(ds, smoothing)
            assert got == want
            assert_same_scores(got, want)
            # Pairs whose class slices agree up to transposition share the
            # score's bits.
            score = {(i, j): s for i, j, s in got}
            for group in shared:
                assert len({score[p].hex() for p in group}) == 1

    def test_golden_scores(self):
        # Bits of the exact scores, pinned so that every platform must give
        # them: no score depends on the C library's log.
        ds = golden_scores_dataset()
        ranked = _ranked_pairs(ds, build_dag(12, []), 1.0)
        got = ranked._score(np.arange(len(ranked)))[2]  # every pair, in (i, j) order
        assert [x.hex() for x in got.tolist()] == GOLDEN_SCORES_12
        want = [cmi_reference(joint_counts(ds, i, j), 1.0).hex()
                for i in range(12) for j in range(i + 1, 12)]
        assert want == GOLDEN_SCORES_12


def record_entry_bits(monkeypatch):
    """Wrap ``mutual_info._entries`` and return the list of the precisions
    it is called at: _BITS for the fixed-point tables, more for the exact
    path's integer sums."""
    calls, entries = [], mutual_info._entries

    def recording(keys, n, a, den, bits):
        calls.append(bits)
        return entries(keys, n, a, den, bits)

    monkeypatch.setattr(mutual_info, "_entries", recording)
    return calls


def record_exact_scores(monkeypatch):
    """Wrap ``mutual_info._exact_score``, the path of pairs the fixed-point
    sum cannot certify, and return the list its results go to."""
    results, exact_score = [], mutual_info._exact_score

    def recording(*args):
        results.append(exact_score(*args))
        return results[-1]

    monkeypatch.setattr(mutual_info, "_exact_score", recording)
    return results


def factorises(slices, smoothing):
    """Every class slice (c00, c01, c10, c11) satisfies (c00 + s)(c11 + s) =
    (c01 + s)(c10 + s) in exact rationals."""
    s = Fraction(smoothing)
    return all((a + s) * (d + s) == (b + s) * (c + s) for a, b, c, d in slices)


def slices_of(ds, i, j):
    t = joint_counts(ds, i, j).table
    return [[t[0, 0, y], t[0, 1, y], t[1, 0, y], t[1, 1, y]] for y in (0, 1)]


class TestBranches:
    """Each pair is certified from the fixed-point sum, or found exactly
    independent, or scored by an exact integer sum at doubling precision;
    every branch gives the reference's bits."""

    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_certified_unless_exactly_independent(self, smoothing, monkeypatch):
        ds = tie_heavy_dataset()
        want = rank_edges_reference(ds, smoothing)
        exact = record_exact_scores(monkeypatch)
        bits = record_entry_bits(monkeypatch)
        got = rank_edges(ds, build_dag(16, []), smoothing)
        assert bits == [mutual_info._BITS]  # factorising pairs return before any sum
        assert got == want
        assert_same_scores(got, want)
        independent = [(i, j) for i, j, _ in got if factorises(slices_of(ds, i, j), smoothing)]
        # Only the exactly independent pairs leave the certified path, and
        # they score +0.0.
        assert len(exact) == len(independent) and not any(exact)
        assert {(i, j, 0.0) for i, j in independent} <= set(got)
        assert all(math.copysign(1.0, s) == 1.0 for _, _, s in got)
        if smoothing == 0.0:
            assert len(independent) > 20
        else:
            assert not independent

    @pytest.mark.parametrize("smoothing", EXACT_SMOOTHING)
    def test_uncertified_pairs_fall_back_to_decimal(self, smoothing, monkeypatch):
        # A bound no fixed-point sum can meet (a half-gap of a double below
        # 2**_BITS is under 2**46) sends every pair to the exact path: exactly
        # independent pairs score +0.0, all others come from the integer sum.
        # The bound is an int, as a float would make total - error inexact.
        ds = tie_heavy_dataset()
        ds = Dataset(ds.values[:, 4:12], ds.labels)
        want = rank_edges_reference(ds, smoothing)
        monkeypatch.setattr(mutual_info, "_PAIR_ERROR", 2**60)
        exact = record_exact_scores(monkeypatch)
        got = rank_edges(ds, build_dag(8, []), smoothing)
        assert got == want
        assert_same_scores(got, want)
        assert len(exact) == len(want) and any(exact)

    def test_decimal_precision_grows_until_certain(self, monkeypatch):
        # The first precision of the exact sum leaves the rounding open for
        # this tiny score; the doubling loop settles it.
        counts = JointCounts(np.array(UNDERFLOW_CELLS), 100)
        want = cmi_reference(counts, 1e-200)
        bits = record_entry_bits(monkeypatch)
        assert cmi(counts, 1e-200) == want
        # The tables at _BITS, then three exact sums, each at twice the
        # previous precision: 2**-800 settles a score near 4.6e-200.
        assert bits == [mutual_info._BITS * 2**k for k in range(4)]

    @pytest.mark.parametrize("smoothing", [1e5, 1e9])
    def test_large_smoothing_matches_reference(self, smoothing, monkeypatch):
        # CMI shrinks like 1 / s**2 while the limbs' error stays 18 units of
        # 2**-_BITS, so some pairs (at 1e9 all) leave the certified path and
        # take the exact integer sum.
        ds = generate_synthetic(build_dag(12, random_dag(12, 6, 3)), 40, 0.3, 0.05, 3)
        want = rank_edges_reference(ds, smoothing)
        exact = record_exact_scores(monkeypatch)
        got = rank_edges(ds, build_dag(12, []), smoothing)
        assert got == want
        assert_same_scores(got, want)
        assert any(exact) and 0.0 < got[0][2] < 1e-8
        if smoothing == 1e9:
            assert len(exact) == len(want)

    @pytest.mark.parametrize("smoothing", [1.0, 1e9, 1e-200, 5e-324])
    @pytest.mark.parametrize("bits", [200, 400, 800])
    def test_entries_within_one_unit_at_every_precision(self, smoothing, bits):
        # The exact path's entries at its doubled precisions, against
        # Decimal at 300 digits (2**800 is under 10**241).
        a, den = smoothing.as_integer_ratio()
        n, keys = 40, [0, a, 2 * a, 4 * a, den + a, 7 * den + 2 * a, 33 * den + 4 * a]
        entries = mutual_info._entries(keys, n, a, den, bits)
        ctx = decimal.Context(prec=300)
        scale = ctx.divide(2**bits, n * den + 8 * a)
        for k in keys:
            exact = ctx.multiply(scale, ctx.multiply(k, ctx.divide(k, den).ln(ctx))) if k else 0
            assert abs(entries[k] - exact) < 1

    @pytest.mark.parametrize("smoothing", [0.0, 1e-3, 1.0, 1e-200, 1e300])
    def test_table_entries_within_one_unit(self, smoothing):
        # Every fixed-point entry is within one unit of 2**_BITS * T(x) / N',
        # computed here in Decimal at 80 digits.
        ds = random_dataset(np.random.default_rng(31), 70, 5)
        stats, n = ds._class_stats, ds.n_instances
        top = max(total for _, _, total in stats)
        (cells_hi, cells_lo), (feature_hi, feature_lo), _ = mutual_info._tables(
            stats, n, smoothing, range(top + 1)
        )
        ctx = decimal.Context(prec=80)
        s = decimal.Decimal(smoothing)
        scale = ctx.divide(2**mutual_info._BITS, ctx.add(n, ctx.multiply(8, s)))

        def exact(c, m):
            x = ctx.add(c, ctx.multiply(m, s))
            return ctx.multiply(scale, ctx.multiply(x, x.ln(ctx))) if x else 0

        limb = 2**mutual_info._LIMB
        for c in range(top + 1):
            entry = int(cells_hi[c]) * limb + int(cells_lo[c])
            assert abs(entry - exact(c, 1)) < 1
        for f in range(ds.n_features):
            entry = int(feature_hi[f]) * limb + int(feature_lo[f])
            with decimal.localcontext(ctx):
                want = -sum(exact(c, 2) for _, ones, total in stats
                            for c in (int(ones[f]), total - int(ones[f])))
                assert abs(entry - want) < 4


def tie_heavy_dataset():
    """Sixteen features with large groups of exactly tied pairs: six random
    columns, three copies of column 0, two of column 1, three all-zero and
    two all-one columns (every pair with a constant column scores exactly 0
    without smoothing)."""
    rng = np.random.default_rng(23)
    base = (rng.random((40, 6)) < 0.4).astype(np.uint8)
    zeros, ones = np.zeros((40, 3), np.uint8), np.ones((40, 2), np.uint8)
    values = np.hstack([base, base[:, [0, 0, 0, 1, 1]], zeros, ones])
    return Dataset(values, (rng.random(40) < 0.5).astype(np.uint8))


class TestRankedPairs:
    """``_ranked_pairs`` sorts chunk by chunk; whatever the chunk sizes, its
    order is ``rank_edges``'s, bit for bit."""

    @pytest.mark.parametrize("first", [1, 3])
    @pytest.mark.parametrize("smoothing", [0.0, 1.0])
    def test_tiny_chunks_match_reference(self, monkeypatch, first, smoothing):
        monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: first)
        ds = tie_heavy_dataset()
        want = rank_edges_reference(ds, smoothing)
        # Tie groups far larger than the first chunks, so chunk boundaries
        # fall inside them.
        assert max(Counter(s for _, _, s in want).values()) >= 20
        ranked = _ranked_pairs(ds, build_dag(16, []), smoothing)
        assert len(ranked) == len(want) == 120
        got = list(ranked)
        assert got == want
        assert_same_scores(got, want)
        assert len(ranked._chunks) > 3
        assert list(ranked) == want  # a second read of the cached chunks

    @pytest.mark.parametrize("first", [1, 3])
    def test_partial_then_full_read(self, monkeypatch, first):
        monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: first)
        ds = tie_heavy_dataset()
        want = rank_edges_reference(ds, 0.0)
        ranked = _ranked_pairs(ds, build_dag(16, []), 0.0)
        assert list(itertools.islice(ranked, 5)) == want[:5]
        built = sum(map(len, ranked._chunks))
        assert 5 <= built < len(want)
        assert len(ranked) == len(want)
        assert list(ranked) == want
        assert ranked.tolist() == want

    @pytest.mark.parametrize("first", [1, 3])
    def test_interleaved_iterators(self, monkeypatch, first):
        monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: first)
        ds = tie_heavy_dataset()
        want = rank_edges_reference(ds, 0.0)
        ranked = _ranked_pairs(ds, build_dag(16, []), 0.0)
        a, b = iter(ranked), iter(ranked)
        got_a, got_b = [], []
        while len(got_b) < len(want):
            got_a += itertools.islice(a, 2)
            got_b += itertools.islice(b, 3)
        got_a += a
        assert got_a == want and got_b == want
        assert_same_scores(got_a, want)

    def test_tolist_after_partial_read_sorts_the_rest_at_once(self, monkeypatch):
        monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: 3)
        ds = tie_heavy_dataset()
        ranked = _ranked_pairs(ds, build_dag(16, []), 1.0)
        next(iter(ranked))
        assert len(ranked._chunks) == 1
        got = ranked.tolist()
        assert len(ranked._chunks) == 2
        assert got == rank_edges_reference(ds, 1.0)

    def test_default_first_chunk_is_a_prefix(self):
        ds = generate_synthetic(build_dag(60, random_dag(60, 40, 11)), 120, 0.3, 0.05, 11)
        ranked = _ranked_pairs(ds, build_dag(60, []))
        want = rank_edges_reference(ds, 1.0)
        assert next(iter(ranked)) == want[0]
        assert 4 * 60 <= len(ranked._chunks[0]) < len(want) // 2
        got = list(ranked)
        assert got == want
        assert_same_scores(got, want)


KEY_SMOOTHING = [0.0, 2.0**-30, 1.0, 3.0, 1e6]


@st.composite
def key_datasets(draw):
    """Small problems with empty cells: random densities per column, and
    constant columns and one-class labels among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(0, 40)), draw(st.integers(2, 12))
    values = (rng.random((m, n)) < rng.random(n)).astype(np.uint8)
    values[:, rng.random(n) < 0.15] = draw(st.sampled_from([0, 1]))
    labels = (rng.random(m) < draw(st.sampled_from([0.0, 0.5, 1.0]))).astype(np.uint8)
    return Dataset(values, labels)


def all_pairs(ds, smoothing):
    """Every pair (i, j) of ``ds``, as two index arrays, with its key from
    the Gram row blocks and its exact score."""
    stats, m, n = ds._class_stats, ds.n_instances, ds.n_features
    i, j = mutual_info._pair_indices(n, None)
    tables = mutual_info._pair_tables(stats, m, smoothing, len(i), lambda: (i, j))
    return (i, j, np.concatenate(list(mutual_info._block_keys(stats, tables, n))),
            mutual_info._scores(stats, m, smoothing, tables, i, j))


def record_exact_pairs(monkeypatch):
    """Wrap ``mutual_info._scores`` and return the list of the number of
    pairs each call scores exactly."""
    sizes, scores = [], mutual_info._scores

    def recording(stats, n, smoothing, tables, i, j):
        sizes.append(len(i))
        return scores(stats, n, smoothing, tables, i, j)

    monkeypatch.setattr(mutual_info, "_scores", recording)
    return sizes


def record_passes(monkeypatch):
    """Wrap ``_RankedPairs._pass`` and return a ``Counter`` of the passes
    each ranking makes, keyed by the ranking."""
    passes, run = Counter(), _RankedPairs._pass

    def counting(self):
        passes[self] += 1
        return run(self)

    monkeypatch.setattr(_RankedPairs, "_pass", counting)
    return passes


class TestCoarseKeys:
    """A chunk's cut is chosen on integer keys, each within _KEY_ERROR of
    2**48 times its pair's score, and only pairs near or above the cut get
    exact scores; the order stays that of one stable sort of all exact
    scores."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(key_datasets(), st.sampled_from(KEY_SMOOTHING))
    def test_key_within_bound_of_score(self, ds, smoothing):
        assume(ds.n_instances or smoothing)
        _, _, keys, scores = all_pairs(ds, smoothing)
        assert keys.dtype == np.int64
        for key, score in zip(keys.tolist(), scores.tolist()):
            error = Fraction(score) * 2**48 - key
            # The lo limbs sum into (-8, 9) units of 2**52, plus the
            # entries' 18 units and the score's rounding (module docstring).
            assert -8 - 2**-5 < error < 9 + 2**-5
            assert abs(error) < mutual_info._KEY_ERROR

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(key_datasets(), st.sampled_from(KEY_SMOOTHING), st.sampled_from([1, 2, 3, None]),
           st.integers(0, 2**16))
    def test_partial_reads_then_full_read_are_one_stable_sort(self, ds, smoothing, first, seed):
        # None keeps the default first chunk, 4n. Each problem runs with the
        # default first pass, 64n, and with a first pass that keeps one
        # pair, so that every read crosses passes.
        assume(ds.n_instances or smoothing)
        i, j, _, scores = all_pairs(ds, smoothing)
        order = np.argsort(-scores, kind="stable")
        want = list(zip(i[order].tolist(), j[order].tolist(), scores[order].tolist()))
        n = ds.n_features
        dag = build_dag(n, [])
        chunk = mutual_info._first_chunk if first is None else (lambda n: first)
        values = ds.values[0].tolist() if ds.n_instances else [1] * n
        for keep in (mutual_info._first_keep, lambda n: 1):
            rng = random.Random(seed)
            with mock.patch.object(mutual_info, "_first_chunk", chunk), \
                    mock.patch.object(mutual_info, "_first_keep", keep):
                ranked = _ranked_pairs(ds, dag, smoothing)
            # Each learner reads its own prefix of the one shared object.
            assert _tan(ranked, n, seed) == _tan(want, n, seed)
            assert _grow(ranked, dag, seed, None, None) == _grow(want, dag, seed, None, None)
            assert _grow(ranked, dag, seed, values, None) == _grow(want, dag, seed, values, None)
            read = rng.randrange(len(want) + 1)
            assert list(itertools.islice(ranked, read)) == want[:read]
            got = list(ranked)
            assert got == want
            assert_same_scores(got, want)
            assert ranked.tolist() == want

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(-9, 9)), min_size=1, max_size=60),
           st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 2, 5, 64]), st.integers(1, 4))
    def test_any_keys_within_the_bound_give_one_stable_sort(self, units, first, keep, blocks):
        # Scores of whole units of 2**-48, many tied, and keys anywhere
        # within _KEY_ERROR of them, streamed in a few blocks: the chunk and
        # pass rules need nothing more, whatever the first pass keeps.
        scores = np.array([u for u, _ in units]) * 2.0**-48
        keys = np.array([u + off for u, off in units], dtype=np.int64)
        assert np.all(np.abs(scores * 2**48 - keys) < mutual_info._KEY_ERROR)
        i = np.arange(len(units))
        ranked = _RankedPairs(
            len(units), lambda: iter(np.array_split(keys, blocks)),
            lambda p: (i, i + 1, scores) if p is None else (p, p + 1, scores[p]), first, keep)
        order = np.argsort(-scores, kind="stable")
        assert list(ranked) == list(zip(i[order].tolist(), (i + 1)[order].tolist(),
                                        scores[order].tolist()))

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
                              st.integers(-9, 9)), min_size=1, max_size=120),
           st.sampled_from([1, 2, 3, 5]), st.sampled_from([1, 2, 5, 64]), st.integers(1, 6),
           st.integers(0, 2**16))
    def test_a_pass_keeps_the_untaken_pairs_above_dropped_in_order(self, units, first, keep,
                                                                   blocks, seed):
        # Keys as in the test above, streamed in random blocks. A pass, first
        # on a fresh object, then after random reads have taken some chunks,
        # keeps exactly the untaken pairs keyed above what it dropped, at
        # ascending positions with their own keys. It drops only keys tied
        # at or below its keep-th best, so at least min(keep, untaken) pairs
        # are keyed at or above it, and it drops none when all fit.
        rng = random.Random(seed)
        scores = np.array([u for u, _ in units]) * 2.0**-48
        keys = np.array([u + off for u, off in units], dtype=np.int64)
        cuts = sorted(rng.sample(range(1, len(units)), min(blocks - 1, len(units) - 1)))
        i = np.arange(len(units))
        ranked = _RankedPairs(
            len(units), lambda: iter(np.split(keys, cuts)),
            lambda p: (i, i + 1, scores) if p is None else (p, p + 1, scores[p]), first, keep)
        for read in sorted((0, rng.randrange(len(units) + 1), rng.randrange(len(units) + 1))):
            list(itertools.islice(ranked, read))
            if ranked._taken is None:  # the remainder was sorted whole, with no pass
                break
            taken = set(ranked._taken.tolist())
            untaken = np.array([p for p in range(len(units)) if p not in taken], dtype=np.int64)
            ranked._keep = keep  # as small as the first pass's, so that it may drop
            ranked._pass()
            kept_keys, positions = ranked._kept
            dropped = ranked._dropped
            assert np.array_equal(kept_keys, keys[positions])
            assert np.all(np.diff(positions) > 0)
            assert np.array_equal(positions, untaken[keys[untaken] > dropped])
            assert np.count_nonzero(keys[untaken] >= dropped) >= min(keep, untaken.size)
            if dropped == -(2**63):
                assert np.array_equal(positions, untaken)

    def test_tied_keys_settle_in_one_band(self, monkeypatch):
        # At smoothing 1e9 every score is under 2**-48 here, so every key
        # lies within _KEY_ERROR of 0 and the first band takes every pair
        # at once, in one exact pass.
        monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: 1)
        ds = generate_synthetic(build_dag(12, random_dag(12, 6, 3)), 40, 0.3, 0.05, 3)
        exact = record_exact_pairs(monkeypatch)
        ranked = _ranked_pairs(ds, build_dag(12, []), 1e9)
        assert 0.0 < next(iter(ranked))[2] < 2**-48
        assert exact == [66] and len(ranked._chunks) == 1
        assert ranked.tolist() == rank_edges(ds, build_dag(12, []), 1e9)

    def test_learners_read_few_exact_scores(self, monkeypatch):
        # One fold of a 60-feature problem: TAN and Hie-TAN read a prefix,
        # and fewer than a quarter of its 1 770 pairs get exact scores; the
        # full read scores them all in one pass, with no keys.
        ds = generate_synthetic(build_dag(60, random_dag(60, 40, 11)), 150, 0.3, 0.05, 11)
        dag = build_dag(60, random_dag(60, 40, 11))
        train = subset(ds, stratified_folds(ds, 5, 11).train_indices(0))
        exact = record_exact_pairs(monkeypatch)
        passes = record_passes(monkeypatch)
        ranked = _ranked_pairs(train, dag)
        trees = _tan(ranked, 60, 1), _grow(ranked, dag, 1, None, None)
        assert 60 <= sum(exact) < len(ranked) // 4 and passes[ranked] == 1
        want = rank_edges_reference(train, 1.0)
        assert (_tan(want, 60, 1), _grow(want, dag, 1, None, None)) == trees
        exact.clear()
        full = _ranked_pairs(train, dag)  # rank_edges' object
        assert full.tolist() == want and passes[full] == 0
        assert exact == [len(want)]

    def test_errors_raise_before_any_read(self):
        ds = random_dataset(np.random.default_rng(5), 0, 4)
        with pytest.raises(DegenerateDistribution):
            _ranked_pairs(ds, build_dag(4, []), 0.0)
        with pytest.raises(TooFewFeatures):
            _ranked_pairs(random_dataset(np.random.default_rng(5), 9, 1), build_dag(1, []))
        with pytest.raises(DimensionMismatch):
            _ranked_pairs(random_dataset(np.random.default_rng(5), 9, 4), build_dag(5, []))

    def test_row_blocks_cover_every_pair_once_in_order(self, monkeypatch):
        # _BLOCK itself makes one block for all these sizes; the small ones
        # cut blocks of one row and blocks inside the triangle's short rows.
        for block, n in itertools.product([1, 7, 64, mutual_info._BLOCK], range(2, 71)):
            monkeypatch.setattr(mutual_info, "_BLOCK", block)
            got, start = [], 0
            for r0, r1, above in mutual_info._row_blocks(n):
                assert r0 == start < r1 and above.shape == (r1 - r0, n - 1 - r0)
                a, c = np.nonzero(above)
                got += zip((r0 + a).tolist(), (r0 + 1 + c).tolist())
                start = r1
            want = list(itertools.combinations(range(n), 2))
            assert got == want
            i, j = mutual_info._pair_indices(n, np.arange(len(want)))
            assert list(zip(i.tolist(), j.tolist())) == want
            i, j = mutual_info._pair_indices(n, None)
            assert list(zip(i.tolist(), j.tolist())) == want

    def test_tiny_first_pass_reads_in_several_passes(self, monkeypatch):
        # A first pass that keeps n pairs, and so holds at most 1.5n, cannot
        # cut the first chunk of 4n: later passes keep four times as many,
        # and the order is the list's.
        ds = generate_synthetic(build_dag(60, random_dag(60, 40, 11)), 150, 0.3, 0.05, 11)
        dag = build_dag(60, random_dag(60, 40, 11))
        monkeypatch.setattr(mutual_info, "_first_keep", lambda n: n)
        passes = record_passes(monkeypatch)
        ranked = _ranked_pairs(ds, dag)
        want = rank_edges(ds, dag)
        assert _tan(ranked, 60, 1) == _tan(want, 60, 1)
        assert passes[ranked] >= 2
        assert list(ranked) == want

    def test_ranking_memory_grows_with_n_not_n_squared(self, monkeypatch):
        # 1 999 000 pairs: one int64 array over them takes 16 MB, and the
        # keys, cached indices and unsorted list of one read peaked at 67 MB.
        # Now a pass holds at most 96 n (key, position) entries, and what
        # grows with the read is the lists of the 29 n pairs TAN sorts here,
        # about 100 bytes a pair.
        n, rows = 2000, 60
        dag = build_dag(n, random_dag(n, 8 * n // 5, 1))
        ds = generate_synthetic(dag, rows, 0.3, 0.05, 1)
        ds._class_stats  # the dataset's cache, 2 n**2 bytes, built before
        passes = record_passes(monkeypatch)
        tracemalloc.start()
        try:
            ranked = _ranked_pairs(ds, dag)
            _tan(ranked, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passes[ranked] == 1
        assert peak < 10_000 * n
