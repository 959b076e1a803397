import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from hietan.dataset import Dataset
from hietan.hie_mst import EdgeSets, _propagate, hie_mst, hie_mst_lite
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import rank_edges
from hietan.tan import learn_tan_structure

from conftest import A, B, C, D, E, F
from golden import GOLDEN_CHAIN_PARENTS, golden_dataset
from oracles import grow_reference


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
    return sorted(scored, key=lambda e: (-e[2], e[0], e[1]))


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
            [(i, j, scores.get((i, j), 0.0))
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
            [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)]
        )
        tree = hie_mst(edges, dag, 3, seed=0)
        # 0->1 accepted; 2->1 rejected (1 already parented); 0--2 unrelated,
        # 0 is a parent but parentless, 2 parentless -> undirected, then
        # randomly oriented.
        assert tree.parent_of[1] == 0
        assert sum(p is not None for p in tree.parent_of) == 2

    def test_residual_orientation_keeps_every_edge(self):
        # Path b-a-c-d entirely undirected. Independent coins could give both
        # ends of the middle edge a parent; each coin is followed by
        # propagation, so every seed keeps all three edges.
        dag = build_dag(4, [])
        edges = make_sorted(
            [
                (0, 1, 4.0),  # a-b
                (2, 3, 3.0),  # c-d
                (0, 2, 2.0),  # a-c
                (1, 3, 1.0),
                (0, 3, 0.5),
                (1, 2, 0.25),
            ]
        )
        for seed in range(40):
            tree, _ = traced(hie_mst, edges, dag, 4, seed)
            assert len(tree.edges()) == 3


TAIL_DECISIONS = ("rejected_cycle", "rejected_unavailable")
ACCEPTED = ("accepted_directed", "accepted_undirected")
SCAN_DECISIONS = TAIL_DECISIONS + ACCEPTED + ("rejected_redundant", "rejected_single_parent")


def stop_problems(seed, count):
    """Random learner inputs with 2-20 features over empty, chain and random
    hierarchies. Candidates come in a random order; a quarter of the lists
    are cut short so that some scans end before any stop."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randrange(2, 21)
        order = rng.sample(range(n), n)
        hierarchy = (
            [],
            list(zip(order, order[1:])),
            random_dag(n, rng.randrange(0, 2 * n + 1), trial),
        )[trial % 3]
        dag = build_dag(n, hierarchy)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        if rng.random() < 0.25:
            pairs = pairs[: rng.randrange(len(pairs) + 1)]
        edges = [(i, j, float(len(pairs) - k)) for k, (i, j) in enumerate(pairs)]
        ones = rng.random()
        values = [int(rng.random() < ones) for _ in range(n)]
        yield dag, n, edges, values, rng.randrange(10_000)


def traced(learner, *args):
    """Run a learner with a trace callback; it must raise no warning."""
    trace = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = learner(*args, trace=trace.append)
    assert [str(w.message) for w in caught] == []
    return out, trace


def check_stopped_trace(got, want, edges):
    """``got`` is ``want`` with the tail of rejections after the stop folded
    into one ``scan_stopped`` entry; returns whether the scan stopped."""
    stops = [k for k, t in enumerate(got) if t["decision"] == "scan_stopped"]
    if not stops:
        assert got == want
        return False
    (s,) = stops
    k = got[s]["skipped"]
    assert k >= 1
    assert got[:s] == want[:s]
    tail = want[s : s + k]
    assert all(t["decision"] in TAIL_DECISIONS for t in tail)
    assert [(t["i"], t["j"]) for t in tail] == [(i, j) for i, j, _ in edges[-k:]]
    assert (got[s]["i"], got[s]["j"]) == (tail[0]["i"], tail[0]["j"])
    scanned = sum(t["decision"] in SCAN_DECISIONS for t in want[:s])
    assert scanned + k == len(edges)
    # Residual orientation after the stop is untouched.
    assert got[s + 1 :] == want[s + k :]
    return True


class TestScanStop:
    @pytest.mark.parametrize("lazy", [False, True], ids=["hie_mst", "hie_mst_lite"])
    def test_matches_full_scan(self, lazy):
        stopped = ran = 0
        for dag, n, edges, values, seed in stop_problems(8, 600):
            if lazy:
                (tree, active), got = traced(hie_mst_lite, edges, dag, values, n, seed)
            else:
                tree, got = traced(hie_mst, edges, dag, n, seed)
                active = frozenset(range(n))
            (ref_tree, ref_active), want = traced(
                grow_reference, edges, dag, n, seed, values if lazy else None
            )
            assert tree == ref_tree
            assert active == frozenset(f for f in range(n) if ref_active[f])
            stopped += check_stopped_trace(got, want, edges)
            ran += 1
        # Both outcomes occur, so neither half of the check is vacuous.
        assert ran // 2 < stopped < ran

    def test_eager_stops_once_spanning(self):
        # A path 0-1-2-3 spans after three accepts; the three remaining
        # candidates would all close cycles.
        dag = build_dag(4, [])
        pairs = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]
        edges = [(i, j, 6.0 - k) for k, (i, j) in enumerate(pairs)]
        trace = []
        hie_mst(edges, dag, 4, 0, trace=trace.append)
        assert trace[3] == {"decision": "scan_stopped", "i": 0, "j": 2, "skipped": 3}
        assert [t["decision"] for t in trace[4:]] == ["oriented_randomly"] * 3

    def test_live_counts_components_with_an_active_feature(self):
        rng = random.Random(4)
        for trial in range(200):
            n = rng.randrange(1, 12)
            sets = EdgeSets(n)
            active = [True] * n
            for _ in range(rng.randrange(3 * n)):
                a, b = rng.randrange(n), rng.randrange(n)
                if rng.random() < 0.3:
                    if active[a]:
                        active[a] = False
                        sets.deactivate(a)
                elif a != b and not dfs_connected(sets, a, b):
                    if rng.random() < 0.5 and b not in sets.parent_of:
                        sets.add_directed(a, b)
                    else:
                        sets.add_undirected(a, b)
                components = set()
                for v in range(n):
                    if active[v]:
                        components.add(min(u for u in range(n) if dfs_connected(sets, u, v)))
                assert sets.live == len(components)


def test_endpoint_order_and_self_pairs_change_nothing():
    """The learners read only the pair order of the candidates. Swapping
    endpoints leaves every tree and active set as it was, and a self-pair
    (v, v) met before the scan stops is traced as a cycle and changes nothing
    else; TAN's union-find skips it."""
    rng = random.Random(12)
    self_pairs = 0
    for dag, n, edges, values, seed in stop_problems(12, 200):
        swapped = [(j, i, s) if rng.random() < 0.5 else (i, j, s) for i, j, s in edges]
        tan = learn_tan_structure(edges, n, seed)
        assert learn_tan_structure(swapped, n, seed) == tan
        for learn in (
            lambda e, **kw: hie_mst(e, dag, n, seed, **kw),
            lambda e, **kw: hie_mst_lite(e, dag, values, n, seed, **kw),
        ):
            want, trace = traced(learn, edges)
            assert traced(learn, swapped)[0] == want
            skipped = [t["skipped"] for t in trace if t["decision"] == "scan_stopped"]
            stop = len(edges) - sum(skipped)
            if not stop:
                continue
            k, v = rng.randrange(stop), rng.randrange(n)
            with_self = edges[:k] + [(v, v, edges[k][2])] + edges[k:]
            got, got_trace = traced(learn, with_self)
            assert got == want
            assert [t for t in got_trace if t["i"] == t["j"]] == [
                {"decision": "rejected_cycle", "i": v, "j": v}
            ]
            assert [t for t in got_trace if t["i"] != t["j"]] == trace
            assert learn_tan_structure(with_self, n, seed) == tan
            self_pairs += 1
    assert self_pairs > 300


def test_every_accepted_edge_is_kept():
    """Residual orientation loses no edge: each tree holds exactly the edges
    its scan accepted. On an empty hierarchy no edge is directed during the
    scan, so both learners span with the skeleton of TAN."""
    empty = 0
    for dag, n, edges, values, seed in stop_problems(5, 300):
        tan = {frozenset(e) for e in learn_tan_structure(edges, n, seed).edges()}
        eager = traced(hie_mst, edges, dag, n, seed)
        (lazy, _), lazy_trace = traced(hie_mst_lite, edges, dag, values, n, seed)
        hierarchy_empty = not any(dag.related(v) for v in range(n))
        empty += hierarchy_empty
        for tree, trace in (eager, (lazy, lazy_trace)):
            accepted = sum(t["decision"] in ACCEPTED for t in trace)
            assert len(tree.edges()) == accepted
            if hierarchy_empty:
                assert {frozenset(e) for e in tree.edges()} == tan
    assert empty >= 100
