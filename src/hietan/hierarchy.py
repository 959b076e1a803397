"""Feature hierarchy DAG with precomputed ancestor and descendant closures.

Features are dense 0-based indices. A directed edge ``(parent, child)`` states
that the parent is the more generic feature, so the parent sits in every
ancestor set along the child's upward paths. The hierarchy may be a full DAG
(multiple parents per feature are allowed). Closures are stored as per-feature
bitsets (arbitrary-precision ints) because the structure learners probe
ancestor/descendant membership inside per-instance inner loops.

External identifiers (e.g. ontology term names) are mapped onto indices by
:func:`dag_from_edge_names`; the algorithm core never sees strings.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CyclicHierarchy, IndexOutOfRange, ParseError


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class FeatureDag:
    """Immutable feature hierarchy plus its transitive closure.

    ``ancestor_bits[i]`` has bit ``a`` set iff ``a`` is a (strict) ancestor of
    ``i``; ``descendant_bits`` is the exact transpose. ``related_ixs[i]`` lists
    ancestors and descendants of ``i`` in ascending order, precomputed because
    the redundancy-removal loop walks it for every accepted edge.
    """

    n_features: int
    edges: frozenset[tuple[int, int]]
    ancestor_bits: tuple[int, ...]
    descendant_bits: tuple[int, ...]
    related_ixs: tuple[tuple[int, ...], ...]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n_features:
            raise IndexOutOfRange(
                f"feature index {i} outside [0, {self.n_features})"
            )

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff ``a`` lies on some upward path from ``b``."""
        self._check(a)
        self._check(b)
        return bool(self.ancestor_bits[b] >> a & 1)

    @property
    def sink_features(self) -> tuple[int, ...]:
        """Features with no descendants (the most specific terms)."""
        return tuple(i for i in range(self.n_features) if not self.descendant_bits[i])


def build_dag(n_features: int, edge_list: Iterable[tuple[int, int]]) -> FeatureDag:
    """Validate the edge list and compute both closures.

    Raises :class:`CyclicHierarchy` instead of ever returning a cyclic
    structure, and :class:`IndexOutOfRange` for indices outside
    ``[0, n_features)``. Duplicate edges are collapsed.
    """
    if n_features < 0:
        raise ValueError("n_features must be non-negative")
    edges: set[tuple[int, int]] = set()
    children: list[list[int]] = [[] for _ in range(n_features)]
    indegree = [0] * n_features
    for parent, child in edge_list:
        for v in (parent, child):
            if not 0 <= v < n_features:
                raise IndexOutOfRange(
                    f"edge ({parent}, {child}) references feature {v} "
                    f"outside [0, {n_features})"
                )
        if (parent, child) in edges:
            continue
        edges.add((parent, child))
        children[parent].append(child)
        indegree[child] += 1

    # Kahn's algorithm; a node's ancestor set is complete when it is popped.
    anc = [0] * n_features
    queue = [v for v in range(n_features) if indegree[v] == 0]
    popped = 0
    while queue:
        v = queue.pop()
        popped += 1
        inherit = anc[v] | (1 << v)
        for c in children[v]:
            anc[c] |= inherit
            indegree[c] -= 1
            if indegree[c] == 0:
                queue.append(c)
    if popped != n_features:
        raise CyclicHierarchy("edge list contains a directed cycle")

    desc = [0] * n_features
    for i in range(n_features):
        for a in _iter_bits(anc[i]):
            desc[a] |= 1 << i
    related = tuple(
        tuple(sorted(_iter_bits(anc[i] | desc[i]))) for i in range(n_features)
    )
    return FeatureDag(n_features, frozenset(edges), tuple(anc), tuple(desc), related)


def random_dag(n_features: int, n_edges: int, seed: int) -> list[tuple[int, int]]:
    """Sample an acyclic edge list: fix a random topological order, then draw
    ``n_edges`` distinct pairs oriented along it. ``n_edges`` is capped at the
    n(n-1)/2 pairs, so a larger count returns every pair."""
    if n_features < 0 or n_edges < 0:
        raise ValueError("counts must be non-negative")
    rng = random.Random(seed)
    order = list(range(n_features))
    rng.shuffle(order)
    slots = list(combinations(range(n_features), 2))
    picked = rng.sample(slots, k=min(n_edges, len(slots)))
    return [(order[a], order[b]) for a, b in picked]


def read_utf8_bytes(path) -> bytes:
    """The bytes of a UTF-8 file, checked but not decoded: any other bytes
    raise :class:`ParseError` with the line of the first undecodable byte.
    An ASCII file is valid as it stands; any other is decoded only to check."""
    data = Path(path).read_bytes()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines are counted as ``str.splitlines`` splits the valid text
            # before the bad byte; the "x" stands for the line that holds it.
            line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(
                f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {exc.start})",
                line=line,
            ) from None
    return data


def read_utf8(path) -> str:
    """The text of a UTF-8 file, with the errors of :func:`read_utf8_bytes`."""
    return read_utf8_bytes(path).decode("utf-8")


def read_dag_file(path) -> list[tuple[str, str]]:
    """Parse the tab-separated hierarchy file into raw (parent, child) tokens.

    One edge per line as ``<parent_id><TAB><child_id>``; lines starting with
    ``#`` and blank lines are ignored.
    """
    pairs: list[tuple[str, str]] = []
    text = read_utf8(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in raw.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(
                f"{path}:{lineno}: expected '<parent_id><TAB><child_id>'",
                line=lineno,
            )
        pairs.append((parts[0], parts[1]))
    return pairs


def write_dag_file(path, edges: Iterable[tuple[int, int]], feature_names: Sequence[str]) -> None:
    lines = [f"{feature_names[p]}\t{feature_names[c]}" for p, c in edges]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def dag_from_edge_names(
    pairs: Iterable[tuple[str, str]], feature_names: Sequence[str]
) -> FeatureDag:
    """Resolve token pairs against the dataset's feature names.

    Tokens that do not match any feature are dropped with a warning, together
    with the edges that mention them.
    """
    index = {name: i for i, name in enumerate(feature_names)}
    pairs = list(pairs)
    unknown = sorted({tok for pair in pairs for tok in pair if tok not in index})
    if unknown:
        shown = ", ".join(unknown[:8]) + ("..." if len(unknown) > 8 else "")
        warnings.warn(
            f"hierarchy references {len(unknown)} feature(s) absent from the "
            f"dataset; dropping them and their edges: {shown}",
            stacklevel=2,
        )
    resolved = [
        (index[p], index[c]) for p, c in pairs if p in index and c in index
    ]
    return build_dag(len(feature_names), resolved)


def dag_from_file(path, feature_names: Sequence[str]) -> FeatureDag:
    return dag_from_edge_names(read_dag_file(path), feature_names)
