"""Conventional tree-augmented naive Bayes structure learning (baseline).

Ignores any feature hierarchy on purpose: the skeleton is the maximum
spanning tree over the pre-sorted candidate edges (greedy Kruskal selection,
which is the constrained learners' scan over a hierarchy that relates no
pair: every accepted edge stays undirected), the root is drawn uniformly at
random under the seed, and every edge is oriented away from the root.
"""

from __future__ import annotations

import random

from .errors import EmptyFeatureSet
from .hie_mst import _as_tree, _orient_away, _scan
from .mutual_info import _check_endpoints
from .tree import DependencyTree


def learn_tan_structure(edges: list, n_features: int, seed: int) -> DependencyTree:
    """Greedy maximum spanning tree plus seeded random root orientation.

    ``edges`` holds ``(i, j, score)`` tuples sorted descending by score (the
    output of ``rank_edges``); either endpoint may come first. Any sized
    sequence that can be iterated more than once in that order will do, such
    as the chunked ranking of the CV loop. A candidate with an endpoint
    outside ``[0, n_features)`` anywhere in the list raises
    ``IndexOutOfRange`` before the scan starts. The scan stops once the
    skeleton spans every feature. The root is the single draw
    ``random.Random(seed).randrange(n_features)``.
    """
    if n_features <= 0:
        raise EmptyFeatureSet("cannot learn a structure over zero features")
    _check_endpoints(edges, n_features)
    unrelated = (0,) * n_features
    parent, _, undirected, adj = _scan(edges, unrelated, unrelated, None, None, None)
    root = random.Random(seed).randrange(n_features)
    # If the candidate list does not span every feature, leftover components
    # get oriented from their lowest-index vertex.
    for start in (root, *range(n_features)):
        if parent[start] < 0:
            _orient_away(start, parent, undirected, adj, None)
    return _as_tree(parent)
