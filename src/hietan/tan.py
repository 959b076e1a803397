"""Conventional tree-augmented naive Bayes structure learning (baseline).

Ignores any feature hierarchy on purpose: the skeleton is the maximum
spanning tree over the pre-sorted candidate edges (greedy Kruskal selection
over the component labels of ``EdgeSets``, the structure the constrained
learners grow theirs in), the root is drawn uniformly at random under the
seed, and every edge is oriented away from the root by breadth-first
traversal.
"""

from __future__ import annotations

import random
from collections import deque

from .errors import EmptyFeatureSet, IndexOutOfRange
from .hie_mst import EdgeSets
from .tree import DependencyTree


def learn_tan_structure(edges: list, n_features: int, seed: int) -> DependencyTree:
    """Greedy maximum spanning tree plus seeded random root orientation.

    ``edges`` holds ``(i, j, score)`` tuples sorted descending by score (the
    output of ``rank_edges``); either endpoint may come first. Any sized
    sequence that can be iterated more than once in that order will do, such
    as the chunked ranking of the CV loop. A scanned
    candidate with an endpoint outside ``[0, n_features)`` raises
    ``IndexOutOfRange``. The scan stops once the skeleton spans every
    feature. The root is the single draw
    ``random.Random(seed).randrange(n_features)``.
    """
    if n_features <= 0:
        raise EmptyFeatureSet("cannot learn a structure over zero features")
    sets = EdgeSets(n_features)
    comp = sets.comp
    for i, j, _ in edges:
        if sets.live <= 1:
            break
        if not (0 <= i < n_features and 0 <= j < n_features):
            raise IndexOutOfRange(f"candidate edge ({i}, {j}) outside [0, {n_features})")
        if comp[i] != comp[j]:
            sets.add_undirected(i, j)

    adjacency: list[list[int]] = [[] for _ in range(n_features)]
    for a, b in sets.undirected:
        adjacency[a].append(b)
        adjacency[b].append(a)
    root = random.Random(seed).randrange(n_features)
    parent: list[int | None] = [None] * n_features
    visited = [False] * n_features
    # If the candidate list does not span every feature, leftover components
    # get oriented from their lowest-index vertex.
    starts = [root] + [v for v in range(n_features) if v != root]
    for start in starts:
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if not visited[w]:
                    visited[w] = True
                    parent[w] = v
                    queue.append(w)
    return DependencyTree(tuple(parent))
