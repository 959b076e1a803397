import random
import re

import numpy as np
import pytest

from hietan.dataset import Dataset
from hietan.hie_mst import hie_mst, hie_mst_lite
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import rank_edges
from hietan.errors import DimensionMismatch, IndexOutOfRange, NonBinaryValue

from conftest import A, B, C, D, E, F
from golden import (
    GOLDEN_INSTANCE,
    GOLDEN_LITE_ACTIVE,
    GOLDEN_LITE_PARENTS,
    GOLDEN_LITE_REMOVED,
    GOLDEN_LITE_TRACE,
    golden_dataset,
)
from oracles import (
    deactivate_relatives,
    grow_reference,
    hierarchically_related,
    is_redundant_pair,
)


def random_dataset(rng, n_instances, n_features):
    return Dataset(
        (rng.random((n_instances, n_features)) < rng.random()).astype(np.uint8),
        (rng.random(n_instances) < 0.5).astype(np.uint8),
    )


class TestRedundantPair:
    def test_parent_child_same_value_one(self, canonical_dag):
        values = [0, 0, 1, 0, 1, 1]  # C=1, F=1
        assert is_redundant_pair(canonical_dag, values, F, C)

    def test_ancestor_descendant_same_value_zero(self, canonical_dag):
        values = [0, 0, 1, 0, 1, 1]  # A=0, D=0
        assert is_redundant_pair(canonical_dag, values, A, D)

    def test_unrelated_equal_values_not_redundant(self, canonical_dag):
        values = [0, 1, 0, 0, 1, 0]  # B=E=1 but B and E are unrelated
        assert not is_redundant_pair(canonical_dag, values, B, E)

    def test_related_different_values_not_redundant(self, canonical_dag):
        values = [0, 0, 1, 0, 1, 1]  # E=1, A=0
        assert not is_redundant_pair(canonical_dag, values, E, A)

    def test_bad_index(self, canonical_dag):
        with pytest.raises(IndexOutOfRange):
            is_redundant_pair(canonical_dag, [0] * 6, 0, 7)


class TestRemoveRedundancy:
    def test_walkthrough_removals(self, canonical_dag):
        active = [True] * 6
        removed = deactivate_relatives(canonical_dag, GOLDEN_INSTANCE, active, (E, A))
        assert removed == {C, D}
        assert {f for f in range(6) if active[f]} == {A, B, E, F}
        # In the golden run, every candidate touching C or D after E--A is
        # disabled; none of them would close a cycle first. The library stops
        # scanning before most of them, so read them off the full scan ...
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        trace, full = [], []
        hie_mst_lite(edges, canonical_dag, GOLDEN_INSTANCE, 6, 0, trace.append)
        grow_reference(edges, canonical_dag, 6, 0, GOLDEN_INSTANCE, full.append)
        stop = [t["decision"] for t in trace].index("scan_stopped")
        assert trace[:stop] == full[:stop]
        assert trace[stop + 1:] == full[stop + trace[stop]["skipped"]:]
        scanned = [t for t in full if t["decision"] != "relative_removed"]
        after = scanned[[(t["i"], t["j"]) for t in scanned].index((A, E)) + 1:]
        yellow = [(A, C), (C, D), (B, D), (B, C), (C, E), (A, D), (D, F), (D, E)]
        decided = {(t["i"], t["j"]): t["decision"] for t in after}
        for a, b in yellow:
            assert decided[(min(a, b), max(a, b))] == "rejected_unavailable"
        # ... while edges among surviving features stay available.
        for pair in [(A, B), (B, F), (B, E), (E, F), (A, F)]:
            assert decided[(min(pair), max(pair))] != "rejected_unavailable"

    def test_no_shared_values_no_change(self, canonical_dag):
        # E=1 with C=0, A=1(endpoint), D=0: no relative matches its endpoint.
        values = [1, 0, 0, 0, 1, 0]
        active = [True] * 6
        assert deactivate_relatives(canonical_dag, values, active, (E, A)) == set()
        assert active == [True] * 6

    def test_matches_exhaustive_scan_oracle(self):
        rng = random.Random(5)
        for trial in range(40):
            n = rng.randrange(3, 10)
            dag = build_dag(n, random_dag(n, rng.randrange(0, 2 * n), trial))
            values = [rng.randrange(2) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            active = [True] * n
            removed = deactivate_relatives(dag, values, active, (i, j))
            expected_removed = {
                u
                for v in (i, j)
                for u in range(n)
                if u not in (i, j)
                and hierarchically_related(dag, u, v)
                and values[u] == values[v]
            }
            assert removed == expected_removed
            assert {f for f in range(n) if not active[f]} == expected_removed


class TestHieMstLite:
    def test_golden_tree(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        tree, active = hie_mst_lite(edges, canonical_dag, GOLDEN_INSTANCE, 6, seed=0)
        assert tree.parent_of == GOLDEN_LITE_PARENTS
        assert active == GOLDEN_LITE_ACTIVE
        assert frozenset(range(6)) - active == GOLDEN_LITE_REMOVED

    def test_golden_trace_decisions(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        trace = []
        hie_mst_lite(edges, canonical_dag, GOLDEN_INSTANCE, 6, 0, trace.append)
        assert trace == GOLDEN_LITE_TRACE
        first = [t for t in trace if (t["i"], t["j"]) == (C, F)][0]
        assert first["decision"] == "rejected_redundant"
        removed = {t["feature"] for t in trace if t["decision"] == "relative_removed"}
        assert removed == {C, D}

    def test_chain_dag_all_ones(self):
        # 4-node chain 0->1->2->3, every value 1: the first accepted edge
        # would join a redundant pair, so only unrelated pairs may enter;
        # a chain has none, so the tree stays empty and each accepted-edge
        # relative gets pruned. Hand trace: every pair is related and equal,
        # so every edge is rejected as redundant and all features survive.
        dag = build_dag(4, [(0, 1), (1, 2), (2, 3)])
        ds = random_dataset(np.random.default_rng(0), 10, 4)
        edges = rank_edges(ds, dag)
        tree, active = hie_mst_lite(edges, dag, [1, 1, 1, 1], 4, seed=0)
        assert tree.edges() == ()
        assert active == frozenset(range(4))

    def test_chain_dag_mixed_values(self):
        # Chain 0->1->2->3 with values 1,0,1,1: pair (2,3) is redundant,
        # pair (0,2) redundant, but (0,1), (1,2), (1,3) are usable; after
        # the first acceptance the equal-valued relatives disappear.
        dag = build_dag(4, [(0, 1), (1, 2), (2, 3)])
        values = [1, 0, 1, 1]
        ds = random_dataset(np.random.default_rng(3), 16, 4)
        edges = rank_edges(ds, dag)
        tree, active = hie_mst_lite(edges, dag, values, 4, seed=0)
        for p, c in tree.edges():
            assert not is_redundant_pair(dag, values, p, c)
        assert {v for edge in tree.edges() for v in edge} <= active

    def test_zero_edge_dag_reduces_to_hie_mst(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            n = int(rng.integers(2, 10))
            dag = build_dag(n, [])
            ds = random_dataset(rng, 20, n)
            edges = rank_edges(ds, dag)
            instance = (rng.random(n) < 0.5).astype(np.uint8)
            seed = int(rng.integers(0, 10_000))
            eager = hie_mst(edges, dag, n, seed)
            lazy, active = hie_mst_lite(edges, dag, instance, n, seed)
            assert lazy.parent_of == eager.parent_of
            assert active == frozenset(range(n))

    def test_no_removed_feature_in_tree_and_no_redundant_edge(self):
        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(3, 12))
            dag = build_dag(n, random_dag(n, int(rng.integers(0, 2 * n)), trial))
            ds = random_dataset(rng, 25, n)
            edges = rank_edges(ds, dag)
            instance = (rng.random(n) < 0.5).astype(np.uint8)
            tree, active = hie_mst_lite(edges, dag, instance, n, int(trial))
            assert {v for edge in tree.edges() for v in edge} <= active
            for p, c in tree.edges():
                assert not is_redundant_pair(dag, instance, p, c)
                if hierarchically_related(dag, p, c):
                    assert dag.is_ancestor(p, c)

    def test_shared_edges_not_mutated(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        before = list(edges)
        hie_mst_lite(edges, canonical_dag, GOLDEN_INSTANCE, 6, 0)
        assert edges == before

    def test_instance_independence(self, canonical_dag):
        # Re-running any instance after other instances gives the same output.
        ds = golden_dataset()
        edges = rank_edges(ds, canonical_dag, 1.0)
        rng = np.random.default_rng(1)
        instances = [(rng.random(6) < 0.5).astype(np.uint8) for _ in range(10)]
        solo = [hie_mst_lite(edges, canonical_dag, v, 6, k) for k, v in enumerate(instances)]
        replay = [hie_mst_lite(edges, canonical_dag, v, 6, k) for k, v in enumerate(instances)]
        for (t1, a1), (t2, a2) in zip(solo, replay):
            assert t1.parent_of == t2.parent_of and a1 == a2


class TestInstanceValues:
    @pytest.mark.parametrize("bad", [0.7, 2, float("nan")])
    def test_rejects_values_other_than_0_and_1(self, bad):
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(NonBinaryValue, match="instance values must be 0 or 1"):
            hie_mst_lite([(0, 1, 0.5), (1, 2, 0.2)], dag, [bad, 0, 1], 3, 0)

    def test_length_mismatch_names_both_sizes(self):
        dag = build_dag(3, [(0, 1)])
        with pytest.raises(DimensionMismatch, match="instance has 2 values, expected 3"):
            hie_mst_lite([(0, 1, 0.5)], dag, [1, 0], 3, 0)

    @pytest.mark.parametrize("n, instance", [(1, [[1]]), (2, [[0, 1], [0, 1]])])
    def test_rejects_a_2d_instance(self, n, instance):
        dag = build_dag(n, [])
        edges = [(0, 1, 0.5)] if n == 2 else []
        want = f"instance has shape {np.shape(instance)}, expected {n}"
        with pytest.raises(DimensionMismatch, match=re.escape(want)):
            hie_mst_lite(edges, dag, instance, n, 0)

    def test_accepts_bools_and_floats_equal_to_0_or_1(self):
        dag = build_dag(3, [(0, 1)])
        edges = [(0, 1, 0.5), (1, 2, 0.2), (0, 2, 0.1)]
        want = hie_mst_lite(edges, dag, np.array([1, 0, 1], dtype=np.uint8), 3, 0)
        assert hie_mst_lite(edges, dag, [True, False, True], 3, 0) == want
        assert hie_mst_lite(edges, dag, [1.0, 0.0, 1.0], 3, 0) == want
