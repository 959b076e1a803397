"""Structure learning: the single-parent dependency tree and the three greedy
maximum-spanning-tree learners that return it, TAN and Hie-TAN eager and lazy.

Candidate edges arrive sorted descending by conditional mutual information
and are processed greedily. A pair whose endpoints are hierarchically related
may only enter the tree with the ancestor as parent; it is rejected outright
if that would give the descendant a second parent. Unrelated pairs enter
undirected unless the single-parent constraint already forces a direction:

* both endpoints parented  -> the edge is rejected (either direction would
  give some feature two parents);
* exactly one parented     -> oriented away from the parented endpoint;
* neither parented         -> kept undirected for now.

After every directed insertion, dependency propagation orients each
undirected edge with exactly one parented endpoint away from that endpoint,
until none is left. Undirected edges that survive the whole pass are oriented
by seeded coins at the end: each coin directs the first undirected edge left,
in insertion order, and propagation follows it.

No accepted edge is lost. An undirected edge enters with two parentless
endpoints. A directed insertion or a coin gives one parentless feature a
parent, and propagation then orients the undirected edges reachable from it,
away from it; the skeleton is a forest, so each of those gives one more
parentless feature its parent. Once propagation is done, both endpoints of
each undirected edge are still parentless, so every coin has two legal
directions. That is also why propagation only walks the undirected tree
hanging from the newly parented feature: no other undirected edge has a
parented endpoint. Its trace entries still come in the order of an
insertion-order pass over all undirected edges, repeated until nothing moves.

Cycle checks treat directed and undirected edges alike, so the working
skeleton is always a forest and the result is a single-parent forest whose
directed edges never oppose the hierarchy.

The lazy learner (``hie_mst_lite``) runs the same pass for one test instance,
where two related features carrying the same value are redundant. Two gates
follow the cycle check (the edge must be available and its pair must not be
redundant), and each insertion deactivates the relatives of the endpoints that
duplicate an endpoint's value. Every edge starts available and a deactivated
feature is never reactivated, so "unavailable" <=> "an endpoint is inactive":
an active-feature mask is the only per-instance state. The scan tests
availability first, as most lazy candidates fail it, and traces a candidate
that fails both tests as a cycle, so every decision reads as in that order.

An endpoint's relatives are walked only at its first accept, when it was
alone in its skeleton component. That walk leaves every relative carrying
the endpoint's value inactive, and none is reactivated, so a later walk
from the same endpoint would deactivate nothing. No walk deactivates the
other endpoint: an accepted related pair carries two values.

The scan stops as soon as at most one skeleton component still holds an
active feature; the eager learner keeps every feature active, so there the
rule reads "the skeleton spans all features". The stop is exact: take any
later candidate (i, j). If both endpoints are active, they lie in that one
live component, so the edge closes a cycle. Otherwise an endpoint is
inactive, so the edge is unavailable. Neither state can be undone, because
features are never reactivated and the skeleton only grows, so no later
candidate is accepted; nor does a rejection change any state, so the tree,
the active mask and the residual orientation are those of a full scan. Only
an accept changes the component count or the active mask, so the stop is
tested before the first candidate and after each accept, not per candidate.
The trace replaces the k >= 1 skipped rejections with one ``scan_stopped``
entry that names the first skipped pair and carries ``skipped=k``. A traced
scan counts the candidates it reads and takes k from the sequence's ``len``,
so it reads no further than that first skipped pair.

TAN (Friedman, Geiger & Goldszmidt 1997) is this scan over a hierarchy that
relates no pair, so every accepted edge stays undirected, and then every
edge is oriented away from a root drawn at random under the seed.

All three learners share one scan, ``_scan``: a single loop over plain lists
(component labels, parents with -1 for none, the active mask) and an
insertion-ordered dict of undirected edges, with the constraint branches,
both lazy gates and the deactivation written inline and the hierarchy read
straight from its ancestor bits: a pair is related iff either endpoint's
bits hold the other. The loop counts no scan
positions: each undirected edge is keyed by its accept order, which follows
scan order, so propagation orders its trace entries as scan positions would.
It never range-checks an endpoint. Each learner has an unchecked core,
``_tan`` or ``_grow``, and a public function that runs ``_check_inputs``
over the whole candidate list once per call before it calls the core. The
CV loop and ``hietan train`` call the cores directly, as their ranked pairs
are in range by construction; ``evaluate._per_row``, the one per-row
path, writes each instance's parent and active lists straight into its
(rows, features) arrays, with no ``DependencyTree``, ``frozenset`` or value
check per instance. Every tree a learner returns is built by ``_as_tree``,
which turns -1 roots into ``None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, count
from operator import index
from typing import Callable, Optional

import numpy as np

from .dataset import _binary_copy
from .errors import DimensionMismatch, EmptyFeatureSet, IndexOutOfRange
from .hierarchy import FeatureDag

TraceFn = Optional[Callable[[dict], None]]


@dataclass(frozen=True)
class DependencyTree:
    """Learned feature-dependency structure: at most one parent per feature.

    ``parent_of[f]`` is the parent feature of ``f`` or ``None``; parentless
    features are roots (the classifier conditions them on the class alone).
    Construction checks every parent: a parent outside ``[0, n)`` raises
    ``ValueError`` before the relation is checked for cycles (``ValueError``
    too), and one that is not an integer raises ``TypeError``.
    """

    parent_of: tuple[Optional[int], ...]

    def __post_init__(self):
        n = len(self.parent_of)
        for p in self.parent_of:
            if p is not None and not 0 <= index(p) < n:
                raise ValueError(f"parent index {p} outside [0, {n})")
        # up[f] is f's parent, with n standing above the roots and itself.
        # After k squarings it is f's 2**k-th ancestor, n past a root; 2**k
        # > n steps take every feature to n unless it is on or below a cycle.
        up = np.array([n if p is None else p for p in self.parent_of] + [n], np.intp)
        for _ in range(n.bit_length()):
            up = up[up]
        if (up != n).any():
            raise ValueError("parent relation contains a cycle")

    @property
    def n_features(self) -> int:
        return len(self.parent_of)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs in child order."""
        return tuple(
            (p, c) for c, p in enumerate(self.parent_of) if p is not None
        )


def _as_tree(parent: list[int]) -> DependencyTree:
    """The learners' parent list (-1 for a root) as a ``DependencyTree``."""
    return DependencyTree(tuple(None if p < 0 else p for p in parent))


def _scan(edges, anc, related, values: Optional[list[int]], trace: TraceFn):
    """The greedy pass over the candidates: eager with ``values=None``, lazy
    with an instance's 0/1 values. ``anc`` holds the hierarchy's ancestor
    bits and ``related`` its relative lists (read only when lazy, and each at
    most once).

    Returns ``(parent, active, undirected, adj)``: each feature's parent (-1
    for none) and whether it stayed active, the edges still undirected as
    ``(a, b)`` with a < b mapped to their accept order, in insertion order,
    and the neighbours each feature gained through an undirected edge (still
    listed once that edge is directed)."""
    n = len(anc)
    comp = list(range(n))  # component label of each feature
    members = [[v] for v in range(n)]  # features of each label
    active_in = [1] * n  # active features of each label
    live = n  # labels with an active feature
    parent = [-1] * n
    active = [True] * n
    undirected: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(n)]
    lazy = values is not None
    accepts = 0
    # A traced scan counts the candidates it reads in C, as the selectors of
    # ``compress``, so that ``skipped`` costs no read past the stop.
    read = count(1)
    rest = iter(edges) if trace is None else compress(edges, read)
    if live > 1:
        for i, j, _ in rest:
            # Availability first, as most lazy candidates fail it (the eager
            # learner keeps every feature active). One that also closes a
            # cycle is traced as a cycle, the reason a cycle-first test gives.
            if not (active[i] and active[j]):
                if trace is not None:
                    trace({"decision": "rejected_cycle" if comp[i] == comp[j]
                           else "rejected_unavailable", "i": i, "j": j})
                continue
            if comp[i] == comp[j]:
                if trace is not None:
                    trace({"decision": "rejected_cycle", "i": i, "j": j})
                continue
            up = anc[j] >> i & 1
            if up or anc[i] >> j & 1:
                if lazy and values[i] == values[j]:
                    if trace is not None:
                        trace({"decision": "rejected_redundant", "i": i, "j": j})
                    continue
                p, c = (i, j) if up else (j, i)
            elif parent[i] >= 0:
                p, c = i, j
            elif parent[j] >= 0:
                p, c = j, i
            else:
                p = -1
            if p >= 0 and parent[c] >= 0:
                if trace is not None:
                    trace({"decision": "rejected_single_parent", "i": i, "j": j})
                continue
            # Join the two components; the smaller takes the larger's label,
            # so no feature is relabelled more than log2(n) times. Both
            # endpoints are active, so both components were live. An endpoint
            # alone in its component is accepted for the first time.
            keep, gone = comp[i], comp[j]
            kept, joined = members[keep], members[gone]
            first_i, first_j = len(kept) == 1, len(joined) == 1
            if len(kept) < len(joined):
                keep, gone, kept, joined = gone, keep, joined, kept
            for v in joined:
                comp[v] = keep
            kept += joined
            active_in[keep] += active_in[gone]
            live -= 1
            if p < 0:
                undirected[(i, j) if i < j else (j, i)] = accepts
                adj[i].append(j)
                adj[j].append(i)
                if trace is not None:
                    trace({"decision": "accepted_undirected", "i": i, "j": j})
            else:
                parent[c] = p
                if trace is not None:
                    trace({"decision": "accepted_directed", "i": i, "j": j, "parent": p, "child": c})
                if adj[c]:  # c was parentless, so these edges are undirected
                    _orient_away(c, parent, undirected, adj, trace)
            accepts += 1
            if lazy:
                # Deactivate the relatives that duplicate an endpoint's value,
                # walking an endpoint's relatives only at its first accept:
                # that walk leaves every same-valued relative inactive for
                # good, so a later one would find none. An accepted related
                # pair carries two values, so neither endpoint can match the
                # other's.
                for v, first in ((i, first_i), (j, first_j)):
                    if not first:
                        continue
                    val = values[v]
                    for u in related[v]:
                        if active[u] and values[u] == val:
                            active[u] = False
                            label = comp[u]
                            active_in[label] -= 1
                            if not active_in[label]:
                                live -= 1
                            if trace is not None:
                                trace({"decision": "relative_removed", "i": i, "j": j,
                                       "feature": u, "endpoint": v})
            if live <= 1:
                break
    if trace is not None and live <= 1:  # stopped, not out of candidates
        scanned = next(read) - 1
        stop = next(rest, None)
        if stop is not None:
            trace({"decision": "scan_stopped", "i": stop[0], "j": stop[1],
                   "skipped": len(edges) - scanned})
    return parent, active, undirected, adj


def _orient_away(c: int, parent: list[int], undirected: dict, adj: list[list[int]],
                 trace: TraceFn) -> None:
    """Direct every undirected edge reachable from feature ``c`` away from it.

    Those edges form one tree of the undirected forest, so a walk from ``c``
    meets each of them from the endpoint nearer ``c``, its parent. The trace
    entries follow the insertion-order passes that a fixpoint over all
    undirected edges would make: an edge is oriented in the pass that
    oriented the edge leading to it, when it was inserted after that edge,
    and in the next pass otherwise. Edges are accepted in scan order, so
    their accept orders compare as their scan positions would."""
    moved = []
    stack = [(c, 1, -1)]  # (feature, pass, accept order of the edge that reached it)
    while stack:
        v, k, s = stack.pop()
        for w in adj[v]:
            key = (v, w) if v < w else (w, v)
            order = undirected.pop(key, None)
            if order is not None:
                parent[w] = v
                kw = k + (order < s)
                stack.append((w, kw, order))
                if trace is not None:
                    moved.append((kw, order, key, v, w))
    if trace is not None:
        for _, _, (a, b), p, ch in sorted(moved):
            trace({"decision": "oriented_by_propagation", "i": a, "j": b,
                   "parent": p, "child": ch})


def _grow(edges, dag: FeatureDag, seed: int, values: Optional[list[int]], trace: TraceFn):
    """The constrained learners' pass: ``_scan`` over ``dag``, then seeded
    coins for the residual undirected edges. Returns the parent list (-1 for
    a root) and the active mask. Nothing is checked here."""
    parent, active, undirected, adj = _scan(edges, dag.ancestor_bits, dag.related_ixs, values, trace)
    if undirected:
        rng = random.Random(seed)
        while undirected:
            a, b = next(iter(undirected))
            p, c = (a, b) if rng.randrange(2) == 0 else (b, a)
            del undirected[a, b]
            parent[c] = p
            if trace is not None:
                trace({"decision": "oriented_randomly", "i": a, "j": b, "parent": p, "child": c})
            _orient_away(c, parent, undirected, adj, trace)
    return parent, active


def _tan(edges, n_features: int, seed: int) -> list[int]:
    """TAN's pass: ``_scan`` over no hierarchy, then every edge oriented away
    from a seeded random root; returns the parent list. Nothing is checked here."""
    unrelated = (0,) * n_features
    parent, _, undirected, adj = _scan(edges, unrelated, None, None, None)
    root = random.Random(seed).randrange(n_features)
    # If the candidate list does not span every feature, leftover components
    # get oriented from their lowest-index vertex.
    for start in (root, *range(n_features)):
        if parent[start] < 0:
            _orient_away(start, parent, undirected, adj, None)
    return parent


def _check_inputs(edges, n_features: int, dag: Optional[FeatureDag] = None) -> None:
    """The public learners' check: ``dag``, if given, has ``n_features``
    features, and every candidate's endpoints lie in ``[0, n_features)``."""
    if dag is not None and dag.n_features != n_features:
        raise DimensionMismatch(
            f"hierarchy has {dag.n_features} features, expected {n_features}"
        )
    for i, j, _ in edges:
        if not (0 <= i < n_features and 0 <= j < n_features):
            raise IndexOutOfRange(f"candidate edge ({i}, {j}) outside [0, {n_features})")


def learn_tan_structure(edges: list, n_features: int, seed: int) -> DependencyTree:
    """Greedy maximum spanning tree plus seeded random root orientation.

    ``edges`` is read and checked as in ``hie_mst``. The scan stops once the
    skeleton spans every feature. The root is the single draw
    ``random.Random(seed).randrange(n_features)``.
    """
    if n_features <= 0:
        raise EmptyFeatureSet("cannot learn a structure over zero features")
    _check_inputs(edges, n_features)
    return _as_tree(_tan(edges, n_features, seed))


def hie_mst(
    edges: list,
    dag: FeatureDag,
    n_features: int,
    seed: int,
    trace: TraceFn = None,
) -> DependencyTree:
    """Learn the hierarchy-constrained dependency forest.

    ``edges`` holds ``(i, j, score)`` tuples sorted descending by score (the
    output of ``rank_edges``); either endpoint may come first, and only the
    order of the list is read. Any sized sequence that can be iterated more
    than once in that order will do; ``len`` is read only for the trace's
    ``skipped`` count. An endpoint outside ``[0, n_features)`` anywhere in
    the list raises ``IndexOutOfRange`` before the scan starts. The result
    may have fewer than ``n_features - 1`` edges: constraint rejections can
    exhaust the candidates, and leftover features simply become roots.
    """
    _check_inputs(edges, n_features, dag)
    return _as_tree(_grow(edges, dag, seed, None, trace)[0])


def hie_mst_lite(
    edges: list,
    dag: FeatureDag,
    instance,
    n_features: int,
    seed: int,
    trace: TraceFn = None,
) -> tuple[DependencyTree, frozenset[int]]:
    """Learn one instance-specific tree and report the surviving features.

    ``edges`` is read and checked as in ``hie_mst``: sorted ``(i, j, score)``
    tuples in either endpoint order, in a list or any re-iterable sized
    sequence. A fold's test instances share one such sequence. Every value of
    ``instance`` must equal 0 or 1 (``NonBinaryValue`` otherwise, as in
    ``predict``).

    Features removed as redundant contribute no likelihood factor when the
    instance is classified. On a hierarchy with no edges this degenerates to
    the eager learner: no pair is ever redundant, nothing gets deactivated,
    and the two learners consume the seed identically, so their outputs
    coincide edge for edge.
    """
    values = _binary_copy(instance, "instance values")
    if values.shape != (n_features,):
        got = f"{values.size} values" if values.ndim == 1 else f"shape {values.shape}"
        raise DimensionMismatch(f"instance has {got}, expected {n_features}")
    _check_inputs(edges, n_features, dag)
    parent, active = _grow(edges, dag, seed, values.tolist(), trace)
    return _as_tree(parent), frozenset(f for f in range(n_features) if active[f])
