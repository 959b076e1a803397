import random
from itertools import combinations

import numpy as np

from hietan.dataset import Dataset
from hietan.hie_mst import EdgeSets, _propagate, hie_mst
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import ScoredEdge, rank_edges

from conftest import A, B, C, D, E, F
from golden import GOLDEN_CHAIN_PARENTS, golden_dataset


def dfs_connected(sets, a, b):
    """Connectivity oracle over the combined skeleton, independent of the
    union-find inside EdgeSets."""
    adjacency = {}
    for c, p in sets.parent_of.items():
        adjacency.setdefault(p, set()).add(c)
        adjacency.setdefault(c, set()).add(p)
    for u, v in sets.undirected:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        for w in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return b in seen


def make_sorted(scored):
    return sorted(scored, key=lambda e: (-e.score, e.i, e.j))


class TestEdgeSetOps:
    def test_walkthrough_cycle(self):
        sets = EdgeSets(6)
        for p, c in [(F, C), (E, A), (C, D), (D, B), (B, E)]:
            sets.add_directed(p, c)
        assert sets.connected(F, B)

    def test_empty_sets_no_cycle(self):
        sets = EdgeSets(4)
        assert not sets.connected(0, 3)

    def test_cycle_agrees_with_dfs_oracle(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randrange(3, 12)
            sets = EdgeSets(n)
            for _ in range(rng.randrange(0, n)):
                a, b = rng.sample(range(n), 2)
                if sets.connected(a, b):
                    continue
                if rng.random() < 0.5 and not sets.has_parent(b):
                    sets.add_directed(a, b)
                else:
                    sets.add_undirected(a, b)
            for a in range(n):
                for b in range(a + 1, n):
                    assert sets.connected(a, b) == dfs_connected(sets, a, b)

    def test_single_parent_checks(self):
        sets = EdgeSets(6)
        assert not sets.has_parent(C)
        sets.add_directed(F, C)
        assert sets.has_parent(C)
        assert not sets.has_parent(F)
        sets.add_directed(D, B)
        assert sets.has_parent(B)


class TestPropagation:
    def test_orients_away_from_parented_endpoint(self):
        # One parented endpoint: F->C directed, then C--A orients as C->A.
        sets = EdgeSets(6)
        sets.add_directed(F, C)
        sets.add_undirected(C, A)
        trace = []
        _propagate(sets, trace.append)
        assert sets.parent_of == {C: F, A: C}
        assert sets.undirected == []
        assert trace == [{"decision": "oriented_by_propagation", "i": A, "j": C,
                          "parent": C, "child": A}]

    def test_keeps_edge_between_two_parents(self):
        # Both endpoints are parents of something, so F--E stays put.
        sets = EdgeSets(6)
        sets.add_directed(F, C)
        sets.add_directed(E, A)
        sets.add_undirected(F, E)
        _propagate(sets)
        assert sets.undirected == [(E, F)]
        assert sets.parent_of == {C: F, A: E}

    def test_no_undirected_edges_noop(self):
        sets = EdgeSets(3)
        sets.add_directed(0, 1)
        _propagate(sets)
        assert sets.parent_of == {1: 0} and sets.undirected == []

    def test_fixpoint(self):
        sets = EdgeSets(8)
        sets.add_undirected(1, 2)
        sets.add_undirected(2, 3)
        sets.add_undirected(3, 4)
        sets.add_directed(0, 1)
        _propagate(sets)
        once = (dict(sets.parent_of), list(sets.undirected))
        _propagate(sets)
        assert (sets.parent_of, sets.undirected) == once
        # The whole chain cascades into directed edges.
        assert sets.parent_of == {1: 0, 2: 1, 3: 2, 4: 3}


class TestHieMst:
    def test_golden_chain(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        tree = hie_mst(edges, canonical_dag, 6, seed=0)
        assert tree.parent_of == GOLDEN_CHAIN_PARENTS

    def test_golden_chain_seed_independent(self, canonical_dag):
        edges = rank_edges(golden_dataset(), canonical_dag, 1.0)
        for seed in (1, 17, 123456):
            assert hie_mst(edges, canonical_dag, 6, seed).parent_of == GOLDEN_CHAIN_PARENTS

    def test_both_parented_pair_rejected(self, canonical_dag):
        # Sorted: F--C, E--A, then the unrelated C--A whose endpoints both
        # have parents by then; everything else scores ~0.
        scores = {(C, F): 3.0, (A, E): 2.0, (A, C): 1.0}
        edges = make_sorted(
            [ScoredEdge(i, j, scores.get((i, j), 0.0))
             for i, j in combinations(range(6), 2)]
        )
        trace = []
        tree = hie_mst(edges, canonical_dag, 6, seed=0, trace=trace.append)
        assert tree.parent_of[C] == F and tree.parent_of[A] == E
        decisions = {(t["i"], t["j"]): t["decision"] for t in trace}
        assert decisions[(A, C)] == "rejected_single_parent"
        assert (A, C) not in {(min(p, c), max(p, c)) for p, c in tree.edges()}

    def test_single_feature(self):
        dag = build_dag(1, [])
        tree = hie_mst([], dag, 1, seed=0)
        assert tree.parent_of == (None,)

    def test_hierarchical_direction_never_opposed(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(3, 12))
            dag = build_dag(n, random_dag(n, int(rng.integers(0, 2 * n)), trial))
            ds = Dataset(
                (rng.random((25, n)) < rng.random()).astype(np.uint8),
                (rng.random(25) < 0.5).astype(np.uint8),
            )
            edges = rank_edges(ds, dag)
            tree = hie_mst(edges, dag, n, seed=trial)
            for p, c in tree.edges():
                if dag.hierarchically_related(p, c):
                    assert dag.is_ancestor(p, c)

    def test_determinism(self, canonical_dag):
        rng = np.random.default_rng(2)
        ds = Dataset(
            (rng.random((30, 6)) < 0.5).astype(np.uint8),
            (rng.random(30) < 0.5).astype(np.uint8),
        )
        edges = rank_edges(ds, canonical_dag)
        assert (
            hie_mst(edges, canonical_dag, 6, 9).parent_of
            == hie_mst(edges, canonical_dag, 6, 9).parent_of
        )

    def test_forest_allowed(self):
        # Two unrelated features and a hierarchy edge whose direction is
        # blocked: the learner may end with fewer than n-1 edges.
        dag = build_dag(3, [(0, 1), (2, 1)])
        edges = make_sorted(
            [ScoredEdge(0, 1, 3.0), ScoredEdge(1, 2, 2.0), ScoredEdge(0, 2, 1.0)]
        )
        tree = hie_mst(edges, dag, 3, seed=0)
        # 0->1 accepted; 2->1 rejected (1 already parented); 0--2 unrelated,
        # 0 is a parent but parentless, 2 parentless -> undirected, then
        # randomly oriented.
        assert tree.parent_of[1] == 0
        assert sum(p is not None for p in tree.parent_of) == 2

    def test_residual_orientation_drop_case(self):
        # Path b-a-c-d entirely undirected; orientations can trap the middle
        # edge so that neither direction is legal and it gets dropped.
        import warnings

        dag = build_dag(4, [])
        edges = make_sorted(
            [
                ScoredEdge(0, 1, 4.0),  # a-b
                ScoredEdge(2, 3, 3.0),  # c-d
                ScoredEdge(0, 2, 2.0),  # a-c
                ScoredEdge(1, 3, 1.0),
                ScoredEdge(0, 3, 0.5),
                ScoredEdge(1, 2, 0.25),
            ]
        )
        dropped = 0
        for seed in range(40):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tree = hie_mst(edges, dag, 4, seed)
            if any("no orientation is legal" in str(c.message) for c in caught):
                dropped += 1
                assert len(tree.edges()) == 2
            else:
                assert len(tree.edges()) == 3
        assert dropped > 0  # the drop path is exercised
