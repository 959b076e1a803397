"""Hierarchy-constrained maximum-spanning-tree learning, eager and lazy.

Candidate edges arrive sorted descending by conditional mutual information
and are processed greedily. A pair whose endpoints are hierarchically related
may only enter the tree with the ancestor as parent; it is rejected outright
if that would give the descendant a second parent. Unrelated pairs enter
undirected unless the single-parent constraint already forces a direction:

* both endpoints parented  -> the edge is rejected (either direction would
  give some feature two parents);
* exactly one parented     -> oriented away from the parented endpoint;
* neither parented         -> kept undirected for now.

After every directed insertion, dependency propagation runs to a fixpoint:
any undirected edge with exactly one parented endpoint is oriented away from
that endpoint and becomes directed. Undirected edges that survive the whole
pass are oriented by seeded coins at the end: each coin directs the first
undirected edge left, in insertion order, and propagation follows it.

No accepted edge is lost. An undirected edge enters with two parentless
endpoints. A directed insertion or a coin gives one parentless feature a
parent, and propagation then orients the undirected edges reachable from it,
away from it; the skeleton is a forest, so each of those gives one more
parentless feature its parent. After every fixpoint both endpoints of each
undirected edge are still parentless, so every coin has two legal directions.

Cycle checks treat directed and undirected edges alike, so the working
skeleton is always a forest and the result is a single-parent forest whose
directed edges never oppose the hierarchy.

The lazy learner (``hie_mst_lite``) runs the same pass for one test instance,
where two related features carrying the same value are redundant. Two gates
follow the cycle check (the edge must be available and its pair must not be
redundant), and each insertion deactivates the relatives of the endpoints that
duplicate an endpoint's value. Every edge starts available and a deactivated
feature is never reactivated, so "unavailable" <=> "an endpoint is inactive":
an active-feature mask is the only per-instance state.

The scan stops as soon as at most one skeleton component still holds an
active feature; the eager learner keeps every feature active, so there the
rule reads "the skeleton spans all features". The stop is exact: take any
later candidate (i, j). If both endpoints are active, they lie in that one
live component, so the edge closes a cycle. Otherwise an endpoint is
inactive, so the edge is unavailable. Neither state can be undone, because
features are never reactivated and the skeleton only grows, so no later
candidate is accepted; nor does a rejection change any state, so the tree,
the active mask and the residual orientation are those of a full scan. The
trace replaces the k >= 1 skipped rejections with one ``scan_stopped`` entry
that names the first skipped pair and carries ``skipped=k``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .dataset import _binary_copy
from .errors import DimensionMismatch, IndexOutOfRange
from .hierarchy import FeatureDag
from .tree import DependencyTree

TraceFn = Optional[Callable[[dict], None]]


class EdgeSets:
    """Working state of the constrained learners: undirected edges, the parent
    map (one entry per directed edge, child -> parent), and the components of
    the skeleton (directed + undirected edges) as labels: ``comp[v]`` is v's
    component label and ``members[label]`` lists the features with that label.
    ``live`` counts the components that still hold an active feature; every
    feature starts active and alone, labelled with its own index."""

    __slots__ = ("undirected", "parent_of", "comp", "members", "_active_in", "live")

    def __init__(self, n_features: int):
        self.undirected: list[tuple[int, int]] = []  # (a, b) with a < b
        self.parent_of: dict[int, int] = {}
        self.comp = list(range(n_features))
        self.members = [[v] for v in range(n_features)]
        self._active_in = [1] * n_features  # per component label
        self.live = n_features

    def _join(self, a: int, b: int) -> None:
        """Merge the components of a and b: the smaller one takes the larger
        one's label, so no feature is relabelled more than log2(n) times."""
        comp, members, count = self.comp, self.members, self._active_in
        keep, gone = comp[a], comp[b]
        if keep == gone:
            return
        if len(members[keep]) < len(members[gone]):
            keep, gone = gone, keep
        for v in members[gone]:
            comp[v] = keep
        members[keep] += members[gone]
        members[gone] = []
        if count[keep] and count[gone]:
            self.live -= 1
        count[keep] += count[gone]

    def deactivate(self, v: int) -> None:
        """Record that active feature ``v`` became inactive."""
        label = self.comp[v]
        self._active_in[label] -= 1
        if not self._active_in[label]:
            self.live -= 1

    def has_parent(self, v: int) -> bool:
        return v in self.parent_of

    def add_directed(self, parent: int, child: int) -> None:
        if child in self.parent_of:
            raise ValueError(f"feature {child} already has a parent")
        self.parent_of[child] = parent
        self._join(parent, child)

    def add_undirected(self, a: int, b: int) -> None:
        pair = (a, b) if a < b else (b, a)
        self.undirected.append(pair)
        self._join(a, b)

    def _move_to_directed(self, pair: tuple[int, int], parent: int, child: int) -> None:
        self.undirected.remove(pair)
        self.parent_of[child] = parent


def _note(trace: TraceFn, decision: str, i: int, j: int, **extra) -> None:
    if trace is not None:
        entry = {"decision": decision, "i": i, "j": j}
        entry.update(extra)
        trace(entry)


def _propagate(sets: EdgeSets, trace: TraceFn = None) -> None:
    """Run dependency propagation to a fixpoint, in place."""
    moved = True
    while moved:
        moved = False
        for pair in list(sets.undirected):
            a, b = pair
            has_a = a in sets.parent_of
            has_b = b in sets.parent_of
            if has_a == has_b:
                continue
            parent, child = (a, b) if has_a else (b, a)
            sets._move_to_directed(pair, parent, child)
            _note(trace, "oriented_by_propagation", a, b, parent=parent, child=child)
            moved = True


def _orient_residual(sets: EdgeSets, rng: random.Random, trace: TraceFn = None) -> None:
    """Direct whatever stayed undirected: a seeded coin orients the first
    undirected edge in insertion order, propagation follows, and so on until
    none is left."""
    while sets.undirected:
        pair = a, b = sets.undirected[0]
        parent, child = (a, b) if rng.randrange(2) == 0 else (b, a)
        sets._move_to_directed(pair, parent, child)
        _note(trace, "oriented_randomly", a, b, parent=parent, child=child)
        _propagate(sets, trace)


def _insert_constrained(
    sets: EdgeSets,
    dag: FeatureDag,
    i: int,
    j: int,
    trace: TraceFn,
) -> bool:
    """Apply the constraint branches to one non-cycle-creating edge.

    Runs propagation to a fixpoint after every directed insertion. Returns
    True iff the edge entered the working sets (directed or undirected), so
    the lazy learner knows when to deactivate redundant relatives.
    """
    if dag.hierarchically_related(i, j):
        parent, child = (i, j) if dag.is_ancestor(i, j) else (j, i)
    elif sets.has_parent(i):
        parent, child = i, j
    elif sets.has_parent(j):
        parent, child = j, i
    else:
        sets.add_undirected(i, j)
        _note(trace, "accepted_undirected", i, j)
        return True
    if sets.has_parent(child):
        _note(trace, "rejected_single_parent", i, j)
        return False
    sets.add_directed(parent, child)
    _note(trace, "accepted_directed", i, j, parent=parent, child=child)
    _propagate(sets, trace)
    return True


def is_redundant_pair(dag: FeatureDag, values, a: int, b: int) -> bool:
    """True iff the features are hierarchically related and carry the same
    value in this instance."""
    return dag.hierarchically_related(a, b) and int(values[a]) == int(values[b])


def _deactivate_relatives(
    dag: FeatureDag, values, active: list[bool], edge: tuple[int, int], trace: TraceFn = None
) -> set[int]:
    """Clear ``active`` for every ancestor/descendant of the edge's endpoints
    that shares that endpoint's value (the endpoints stay active), and return
    the features this call deactivated."""
    i, j = edge
    removed = set()
    for v in (i, j):
        val = values[v]
        for u in dag.related(v):
            if u == i or u == j:
                continue
            if active[u] and values[u] == val:
                active[u] = False
                removed.add(u)
                _note(trace, "relative_removed", i, j, feature=u, endpoint=v)
    return removed


def _grow(
    edges: list, dag: FeatureDag, n_features: int, seed: int,
    values: Optional[list[int]], trace: TraceFn,
) -> tuple[DependencyTree, list[bool]]:
    """The greedy pass of both learners: eager with ``values=None``, lazy with
    an instance's values, returning the tree and the final active mask."""
    if dag.n_features != n_features:
        raise DimensionMismatch(
            f"hierarchy has {dag.n_features} features, expected {n_features}"
        )
    rng = random.Random(seed)
    sets = EdgeSets(n_features)
    comp = sets.comp
    active = [True] * n_features
    for pos, (i, j, _) in enumerate(edges):
        if sets.live <= 1:
            _note(trace, "scan_stopped", i, j, skipped=len(edges) - pos)
            break
        # An endpoint >= n fails this lookup. A negative one indexes from the
        # end and raises only where the hierarchy is consulted (the redundancy
        # gate, insertion): a range test per candidate cost about a tenth of
        # the lazy learner's time.
        try:
            cycle = comp[i] == comp[j]
        except IndexError:
            raise IndexOutOfRange(f"candidate edge ({i}, {j}) outside [0, {n_features})") from None
        if cycle:
            if trace is not None:
                _note(trace, "rejected_cycle", i, j)
            continue
        if values is not None:
            if not (active[i] and active[j]):
                if trace is not None:
                    _note(trace, "rejected_unavailable", i, j)
                continue
            if is_redundant_pair(dag, values, i, j):
                _note(trace, "rejected_redundant", i, j)
                continue
        if _insert_constrained(sets, dag, i, j, trace) and values is not None:
            for u in _deactivate_relatives(dag, values, active, (i, j), trace):
                sets.deactivate(u)
    _orient_residual(sets, rng, trace)
    tree = DependencyTree(tuple(sets.parent_of.get(f) for f in range(n_features)))
    return tree, active


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
    than once in that order will do, such as the chunked ranking of the CV
    loop; ``len`` is read only for the trace's ``skipped`` count. The result
    may have fewer
    than ``n_features - 1`` edges: constraint rejections can exhaust the
    candidates, and leftover features simply become roots.
    """
    return _grow(edges, dag, n_features, seed, None, trace)[0]


def hie_mst_lite(
    edges: list,
    dag: FeatureDag,
    instance,
    n_features: int,
    seed: int,
    trace: TraceFn = None,
) -> tuple[DependencyTree, frozenset[int]]:
    """Learn one instance-specific tree and report the surviving features.

    ``edges`` is read as in ``hie_mst``: sorted ``(i, j, score)`` tuples in
    either endpoint order, in a list or any re-iterable sized sequence. A
    fold's test instances share one such sequence. Every value of
    ``instance`` must equal 0 or 1 (``NonBinaryValue`` otherwise, as in
    ``predict``).

    Features removed as redundant contribute no likelihood factor when the
    instance is classified. On a hierarchy with no edges this degenerates to
    the eager learner: no pair is ever redundant, nothing gets deactivated,
    and the two learners consume the seed identically, so their outputs
    coincide edge for edge.
    """
    values = _binary_copy(instance, "instance values").tolist()
    if len(values) != n_features:
        raise DimensionMismatch(f"instance has {len(values)} values, expected {n_features}")
    tree, active = _grow(edges, dag, n_features, seed, values, trace)
    return tree, frozenset(f for f in range(n_features) if active[f])
