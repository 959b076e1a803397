import math
import random
from itertools import combinations

import pytest

from hietan import learn_tan_structure
from hietan.errors import EmptyFeatureSet
from hietan.structure import DependencyTree

from conftest import A, B, C, D, E, F
from oracles import UnionFind, UnknownEdge, tan_reference, tree_total_score


def roots(tree):
    return {f for f, p in enumerate(tree.parent_of) if p is None}


def make_edges(scores):
    """scores: mapping (i, j) -> value for all pairs; returns the sorted list."""
    edges = [(i, j, s) for (i, j), s in scores.items()]
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def all_pair_scores(n, rng):
    while True:
        scores = {(i, j): rng.random() for i, j in combinations(range(n), 2)}
        if len(set(scores.values())) == len(scores):
            return scores


def seed_with_root(n, root):
    return next(s for s in range(10_000) if random.Random(s).randrange(n) == root)


def brute_force_max_tree(n, scores):
    best = None
    for subset in combinations(scores, n - 1):
        uf = UnionFind(n)
        if all(uf.union(i, j) for i, j in subset):
            total = math.fsum(scores[p] for p in subset)
            if best is None or total > best:
                best = total
    return best


class TestLearnStructure:
    def test_engineered_skeleton_rooted_at_c(self):
        # Engineered scores: the five skeleton pairs dominate everything else.
        wanted = {(A, C): 1.0, (C, F): 0.9, (A, E): 0.8, (C, D): 0.7, (B, D): 0.6}
        scores = {
            (i, j): wanted.get((i, j), 0.01 * (i + j) / 100)
            for i, j in combinations(range(6), 2)
        }
        tree = learn_tan_structure(make_edges(scores), 6, seed_with_root(6, C))
        # Rooted at C and oriented outward: C->A, C->F, C->D, A->E, D->B.
        assert tree.parent_of == (C, D, None, C, A, C)
        assert roots(tree) == {C}

    def test_single_feature(self):
        tree = learn_tan_structure([], 1, seed=0)
        assert tree.parent_of == (None,)
        assert roots(tree) == {0}

    def test_empty_feature_set(self):
        with pytest.raises(EmptyFeatureSet):
            learn_tan_structure([], 0, seed=0)

    def test_structure_against_union_find_oracle(self):
        rng = random.Random(12)
        for trial in range(50):
            n = rng.randrange(2, 9)
            edges = make_edges(all_pair_scores(n, rng))
            tree = learn_tan_structure(edges, n, seed=trial)
            picked = tree.edges()
            assert len(picked) == n - 1
            uf = UnionFind(n)
            for p, c in picked:
                assert uf.union(p, c), "orientation introduced a cycle"

    def test_orientation_never_changes_skeleton(self):
        rng = random.Random(99)
        for trial in range(30):
            n = rng.randrange(2, 8)
            scores = all_pair_scores(n, rng)
            edges = make_edges(scores)
            # Kruskal selection, replayed independently.
            uf = UnionFind(n)
            kruskal = {
                (i, j) for i, j, _ in edges if uf.union(i, j)
            }
            for seed in (0, 1, trial):
                tree = learn_tan_structure(edges, n, seed)
                skeleton = {(min(p, c), max(p, c)) for p, c in tree.edges()}
                assert skeleton == kruskal

    def test_matches_brute_force_optimum(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randrange(3, 8)
            scores = all_pair_scores(n, rng)
            edges = make_edges(scores)
            tree = learn_tan_structure(edges, n, seed=trial)
            assert tree_total_score(tree, edges) == brute_force_max_tree(n, scores)

    def test_deterministic_per_seed(self):
        rng = random.Random(3)
        edges = make_edges(all_pair_scores(7, rng))
        assert (
            learn_tan_structure(edges, 7, 42).parent_of
            == learn_tan_structure(edges, 7, 42).parent_of
        )

    def test_matches_union_find_reference_on_partial_lists(self):
        """Candidate lists that need not span: random subsets of the pairs,
        with repeats, self-pairs and either endpoint order, so leftover
        components get oriented from their lowest index."""
        rng = random.Random(2024)
        partial = spanning = 0
        for _ in range(600):
            n, keep = rng.randrange(1, 13), rng.random()
            pairs = [p for p in combinations(range(n), 2) if rng.random() < keep]
            pairs += rng.choices(pairs, k=rng.randrange(len(pairs) + 1)) if pairs else []
            pairs += [(v, v) for v in rng.choices(range(n), k=rng.randrange(3))]
            rng.shuffle(pairs)
            pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
            edges = [(i, j, float(len(pairs) - k)) for k, (i, j) in enumerate(pairs)]
            seed = rng.randrange(1 << 30)
            tree = learn_tan_structure(edges, n, seed)
            assert tree == tan_reference(edges, n, seed)
            partial += len(roots(tree)) > 1
            spanning += n > 1 and len(roots(tree)) == 1
        assert partial > 150 and spanning > 150


class TestTotalScore:
    def test_empty_tree(self):
        tree = DependencyTree((None, None, None))
        assert tree_total_score(tree, []) == 0.0

    def test_unit_scores_count_edges(self):
        # Five edges with unit scores sum to 5.
        tree = DependencyTree((C, D, None, C, A, C))
        edges = [(i, j, 1.0) for i, j in combinations(range(6), 2)]
        assert tree_total_score(tree, edges) == 5.0

    def test_unknown_edge(self):
        tree = DependencyTree((1, None))
        with pytest.raises(UnknownEdge):
            tree_total_score(tree, [])


class TestDependencyTree:
    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            DependencyTree((1, 0))

    def test_rejects_bad_parent_index(self):
        with pytest.raises(ValueError):
            DependencyTree((5, None))

    def test_edges_and_roots(self):
        tree = DependencyTree((None, 0, 0, 2))
        assert tree.edges() == ((0, 1), (0, 2), (2, 3))
        assert roots(tree) == {0}
        assert {v for edge in tree.edges() for v in edge} == {0, 1, 2, 3}
