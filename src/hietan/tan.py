"""Conventional tree-augmented naive Bayes structure learning (baseline).

Ignores any feature hierarchy on purpose: the skeleton is the maximum
spanning tree over the pre-sorted candidate edges (greedy Kruskal selection
with union-find), the root is drawn uniformly at random under the seed, and
every edge is oriented away from the root by breadth-first traversal.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from .errors import EmptyFeatureSet
from .mutual_info import ScoredEdge
from .tree import DependencyTree, UnionFind


def learn_tan_structure(
    edges: Sequence[ScoredEdge], n_features: int, seed: int
) -> DependencyTree:
    """Greedy maximum spanning tree plus seeded random root orientation.

    ``edges`` must already be sorted descending by score (the output of
    ``rank_edges``). The root is the single draw
    ``random.Random(seed).randrange(n_features)``.
    """
    if n_features <= 0:
        raise EmptyFeatureSet("cannot learn a structure over zero features")
    uf = UnionFind(n_features)
    adjacency: list[list[int]] = [[] for _ in range(n_features)]
    picked = 0
    for e in edges:
        if picked == n_features - 1:
            break
        if uf.union(e.i, e.j):
            adjacency[e.i].append(e.j)
            adjacency[e.j].append(e.i)
            picked += 1

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
