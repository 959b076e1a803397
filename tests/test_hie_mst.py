import random
import warnings
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from hietan import learn_tan_structure
from hietan.dataset import Dataset, generate_synthetic
from hietan.errors import DimensionMismatch, IndexOutOfRange
from hietan.evaluate import derive_seed
from hietan.hierarchy import build_dag, random_dag
from hietan.mutual_info import _RankedPairs, _ranked_pairs, rank_edges
from hietan.structure import _grow, hie_mst, hie_mst_lite

from conftest import A, B, C, D, E, F, CANONICAL_EDGES
from golden import GOLDEN_CHAIN_PARENTS, golden_dataset
from oracles import EdgeSets, grow_reference, hierarchically_related, propagate, relatives


def skeleton_components(n, pairs):
    """Each feature's component over the skeleton edges ``pairs``, labelled
    by the component's first feature: a DFS, independent of the learners'
    own component labels."""
    adjacency = [[] for _ in range(n)]
    for a, b in pairs:
        adjacency[a].append(b)
        adjacency[b].append(a)
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if label[w] < 0:
                    label[w] = start
                    stack.append(w)
    return label


def make_sorted(scored):
    return sorted(scored, key=lambda e: (-e[2], e[0], e[1]))


class TestEdgeSetOps:
    """The scan's component labels, read from its decisions (a candidate is
    rejected as a cycle exactly when a DFS over the edges accepted so far
    connects its endpoints), and the reference's parent map."""

    def test_walkthrough_cycle(self):
        # The golden chain's five edges join F and B, so F--B closes a cycle.
        # A seventh feature keeps the skeleton from spanning, so the scan
        # does not stop before F--B.
        dag = build_dag(7, CANONICAL_EDGES)
        pairs = [(F, C), (E, A), (C, D), (D, B), (B, E), (F, B)]
        edges = [(i, j, 6.0 - k) for k, (i, j) in enumerate(pairs)]
        tree, trace = traced(hie_mst, edges, dag, 7, 0)
        assert [t["decision"] for t in trace] == ["accepted_directed"] * 5 + ["rejected_cycle"]
        assert tree.parent_of == GOLDEN_CHAIN_PARENTS + (None,)

    def test_empty_sets_no_cycle(self):
        _, trace = traced(hie_mst, [(0, 3, 1.0)], build_dag(4, []), 4, 0)
        assert trace[0] == {"decision": "accepted_undirected", "i": 0, "j": 3}

    def test_cycle_agrees_with_dfs_oracle(self):
        checked = 0
        for k, (dag, n, edges, values, seed) in enumerate(stop_problems(8, 300)):
            lazy = k % 2
            if lazy:
                _, trace = traced(hie_mst_lite, edges, dag, values, n, seed)
            else:
                _, trace = traced(hie_mst, edges, dag, n, seed)
            accepted = []
            for t in trace:
                if t["decision"] not in SCAN_DECISIONS:
                    continue
                label = skeleton_components(n, accepted)
                assert (label[t["i"]] == label[t["j"]]) == (t["decision"] == "rejected_cycle")
                if t["decision"] in ACCEPTED:
                    accepted.append((t["i"], t["j"]))
                checked += 1
        assert checked > 3000

    def test_single_parent_checks(self):
        sets = EdgeSets()
        assert not sets.has_parent(C)
        sets.add_directed(F, C)
        assert sets.has_parent(C)
        assert not sets.has_parent(F)
        sets.add_directed(D, B)
        assert sets.has_parent(B)


class TestPropagation:
    """The reference fixpoint the learners' propagation must reproduce."""

    def test_orients_away_from_parented_endpoint(self):
        # One parented endpoint: F->C directed, then C--A orients as C->A.
        sets = EdgeSets()
        sets.add_directed(F, C)
        sets.add_undirected(C, A)
        trace = []
        propagate(sets, trace.append)
        assert sets.parent_of == {C: F, A: C}
        assert sets.undirected == []
        assert trace == [{"decision": "oriented_by_propagation", "i": A, "j": C,
                          "parent": C, "child": A}]

    def test_keeps_edge_between_two_parents(self):
        # Both endpoints are parents of something, so F--E stays put.
        sets = EdgeSets()
        sets.add_directed(F, C)
        sets.add_directed(E, A)
        sets.add_undirected(F, E)
        propagate(sets)
        assert sets.undirected == [(E, F)]
        assert sets.parent_of == {C: F, A: E}

    def test_no_undirected_edges_noop(self):
        sets = EdgeSets()
        sets.add_directed(0, 1)
        propagate(sets)
        assert sets.parent_of == {1: 0} and sets.undirected == []

    def test_fixpoint(self):
        sets = EdgeSets()
        sets.add_undirected(1, 2)
        sets.add_undirected(2, 3)
        sets.add_undirected(3, 4)
        sets.add_directed(0, 1)
        propagate(sets)
        once = (dict(sets.parent_of), list(sets.undirected))
        propagate(sets)
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
                if hierarchically_related(dag, p, c):
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
        """The scan stops before the first candidate at which at most one
        skeleton component holds an active feature, and not earlier. The
        components and the active mask are replayed by DFS from the full
        scan's decisions."""
        stopped = 0
        for k, (dag, n, edges, values, seed) in enumerate(stop_problems(4, 400)):
            lazy = k % 2
            if lazy:
                _, got = traced(hie_mst_lite, edges, dag, values, n, seed)
            else:
                _, got = traced(hie_mst, edges, dag, n, seed)
            _, full = traced(grow_reference, edges, dag, n, seed, values if lazy else None)
            accepted, active = [], [True] * n
            stop, pos = None, 0
            for t in full:
                if t["decision"] == "relative_removed":
                    active[t["feature"]] = False
                elif t["decision"] in SCAN_DECISIONS:
                    label = skeleton_components(n, accepted)
                    if len({label[v] for v in range(n) if active[v]}) <= 1:
                        stop = pos
                        break
                    if t["decision"] in ACCEPTED:
                        accepted.append((t["i"], t["j"]))
                    pos += 1
            skipped = [t["skipped"] for t in got if t["decision"] == "scan_stopped"]
            assert skipped == ([] if stop is None else [len(edges) - stop])
            stopped += stop is not None
        assert 100 < stopped < 400


class CountingLists:
    """Read-only lists that count how often each one is read."""

    def __init__(self, lists):
        self.lists = lists
        self.reads = Counter()

    def __getitem__(self, v):
        self.reads[v] += 1
        return self.lists[v]


def test_relatives_walked_once_per_scan():
    """A lazy scan reads a feature's relatives at most once, at the feature's
    first accept: that walk leaves no same-valued relative active, so a later
    one could deactivate nothing. The eager scan reads none. Trees and active
    masks are the full-scan reference's."""
    repeats = 0
    for k, (dag, n, edges, values, seed) in enumerate(stop_problems(9, 400)):
        values = values if k % 2 else None
        related = CountingLists(dag.related_ixs)
        view = SimpleNamespace(ancestor_bits=dag.ancestor_bits, related_ixs=related)
        parent, active = _grow(edges, view, seed, values, None)
        (ref_tree, ref_active), trace = traced(grow_reference, edges, dag, n, seed, values)
        assert tuple(None if p < 0 else p for p in parent) == ref_tree.parent_of
        assert active == ref_active
        assert max(related.reads.values(), default=0) <= (0 if values is None else 1)
        # Accepts of an endpoint already in the tree, each a walk saved.
        seen = set()
        for t in trace:
            if t["decision"] in ACCEPTED and values is not None:
                repeats += (t["i"] in seen) + (t["j"] in seen)
                seen.update((t["i"], t["j"]))
    assert repeats > 500


@pytest.mark.parametrize("lazy", [False, True], ids=["hie_mst", "hie_mst_lite"])
def test_chunked_ranking_matches_list(lazy):
    """At 150 features lazy scans read past the first chunk of 4n pairs. A
    traced scan over a fresh chunked ranking gives the tree, the active mask
    and the trace, ``skipped`` included, of a scan over ``rank_edges``' list,
    and so does an untraced one."""
    n = 150
    dag = build_dag(n, random_dag(n, 250, 3))
    ds = generate_synthetic(dag, 200, 0.3, 0.05, 3)
    listed = rank_edges(ds, dag)
    past_first = 0
    for seed, values in enumerate(ds.values[:20].tolist() if lazy else [None]):
        want_trace, got_trace = [], []
        want = _grow(listed, dag, seed, values, want_trace.append)
        chunked = _ranked_pairs(ds, dag)
        assert _grow(chunked, dag, seed, values, got_trace.append) == want
        assert got_trace == want_trace
        chunked = _ranked_pairs(ds, dag)
        assert _grow(chunked, dag, seed, values, None) == want
        assert [t["decision"] for t in want_trace].count("scan_stopped") == 1
        past_first += sum(t["decision"] in SCAN_DECISIONS for t in want_trace) > 4 * n
    assert past_first >= (10 if lazy else 0)


def test_endpoint_order_and_self_pairs_change_nothing():
    """The learners read only the pair order of the candidates. Swapping
    endpoints leaves every tree and active set as it was, and a self-pair
    (v, v) met before the scan stops is traced as a cycle and changes nothing
    else; TAN skips it as it would a cycle."""
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
        hierarchy_empty = not any(relatives(dag, v, "related") for v in range(n))
        empty += hierarchy_empty
        for tree, trace in (eager, (lazy, lazy_trace)):
            accepted = sum(t["decision"] in ACCEPTED for t in trace)
            assert len(tree.edges()) == accepted
            if hierarchy_empty:
                assert {frozenset(e) for e in tree.edges()} == tan
    assert empty >= 100


@pytest.mark.parametrize("dag_features, n_features", [(5, 7), (7, 5)])
@pytest.mark.parametrize("lazy", [False, True])
def test_hierarchy_must_cover_exactly_the_features(dag_features, n_features, lazy):
    dag = build_dag(dag_features, [(0, 1), (1, 2)])
    edges = [(0, 1, 0.9), (2, 3, 0.5), (3, 4, 0.1)]
    with pytest.raises(DimensionMismatch, match=f"hierarchy has {dag_features} features"):
        if lazy:
            hie_mst_lite(edges, dag, [0] * n_features, n_features, 0)
        else:
            hie_mst(edges, dag, n_features, 0)


@pytest.mark.parametrize("edges", [[(-1, 0, 1.0), (0, 1, 0.5)], [(0, 3, 1.0)]])
@pytest.mark.parametrize("learner", ["tan", "hie_mst", "hie_mst_lite"])
def test_first_candidate_outside_range_raises(edges, learner):
    dag = build_dag(3, [])
    learn = {
        "tan": lambda: learn_tan_structure(edges, 3, 0),
        "hie_mst": lambda: hie_mst(edges, dag, 3, 0),
        "hie_mst_lite": lambda: hie_mst_lite(edges, dag, [0, 1, 0], 3, 0),
    }[learner]
    with pytest.raises(IndexOutOfRange):
        learn()


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("learner", ["tan", "hie_mst", "hie_mst_lite"])
def test_candidate_outside_range_raises_before_the_scan(learner, bad):
    """An endpoint outside [0, n) raises wherever it sits in the list: right
    after the first accept (where a negative one used to be read as feature
    n - 1), or past the point where the scan stops, also in a ranked
    sequence."""
    dag = build_dag(3, [])
    learn = {
        "tan": lambda e: learn_tan_structure(e, 3, 0),
        "hie_mst": lambda e: hie_mst(e, dag, 3, 0),
        "hie_mst_lite": lambda e: hie_mst_lite(e, dag, [0, 1, 0], 3, 0),
    }[learner]
    for edges in ([(0, 2, 1.0), (bad, 0, 0.5), (0, 1, 0.2)],
                  [(0, 2, 1.0), (1, 2, 0.5), (0, bad, 0.2)]):
        with pytest.raises(IndexOutOfRange, match=r"candidate edge \(.*\) outside \[0, 3\)"):
            learn(edges)
    i, j, scores = np.array([0, 1, 0]), np.array([2, 2, bad]), np.array([1.0, 0.5, 0.2])
    ranked = _RankedPairs(3, lambda: iter([(scores * 2**48).astype(np.int64)]),
                          lambda p: (i, j, scores) if p is None else (i[p], j[p], scores[p]), 1, 3)
    with pytest.raises(IndexOutOfRange, match=rf"candidate edge \(0, {bad}\)"):
        learn(ranked)


def learner_matches_reference(edges, dag, n, seed, values):
    """Run ``hie_mst`` (``values=None``) or ``hie_mst_lite`` and the full-scan
    reference: the same tree, the same active mask and the same trace, order
    included, apart from the folded tail of a stopped scan."""
    if values is None:
        tree, got = traced(hie_mst, edges, dag, n, seed)
        active = frozenset(range(n))
    else:
        (tree, active), got = traced(hie_mst_lite, edges, dag, values, n, seed)
    (ref_tree, ref_active), want = traced(grow_reference, edges, dag, n, seed, values)
    assert tree == ref_tree
    assert active == frozenset(f for f in range(n) if ref_active[f])
    check_stopped_trace(got, want, edges)
    return tree, active, got


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_sized_problem_matches_reference(seed):
    """60 features under a dense hierarchy (3 edges per feature, against the
    benchmark's 1.7), data drawn consistent with it as the benchmark draws
    its own, and every instance of the data learned as a lazy instance."""
    n = 60
    dag = build_dag(n, random_dag(n, 3 * n, seed))
    ds = generate_synthetic(dag, 80, 0.3, 0.05, seed)
    edges = rank_edges(ds, dag)
    learner_matches_reference(edges, dag, n, seed, None)
    propagated = 0
    for r, values in enumerate(ds.values.tolist()):
        _, _, trace = learner_matches_reference(edges, dag, n, derive_seed(seed, r), values)
        propagated += sum(t["decision"] == "oriented_by_propagation" for t in trace)
    assert propagated > 100


def test_edge_cases_match_reference():
    """All-0 and all-1 instances under a dense, a chain and an edgeless
    hierarchy; on the edgeless one the lazy learner is the eager one, edge
    for edge and decision for decision."""
    n = 60
    order = random.Random(6).sample(range(n), n)
    for edge_list in (random_dag(n, 3 * n, 6), list(zip(order, order[1:])), []):
        dag = build_dag(n, edge_list)
        ds = generate_synthetic(dag, 80, 0.3, 0.05, 6)
        edges = rank_edges(ds, dag)
        eager, _, eager_trace = learner_matches_reference(edges, dag, n, 6, None)
        for values in ([0] * n, [1] * n, ds.values[0].tolist()):
            tree, active, trace = learner_matches_reference(edges, dag, n, 6, values)
            if not edge_list:
                assert (tree, active, trace) == (eager, frozenset(range(n)), eager_trace)
