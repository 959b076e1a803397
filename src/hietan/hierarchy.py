"""Feature hierarchy DAG with its precomputed ancestor closure.

Features are dense 0-based indices. A directed edge ``(parent, child)`` states
that the parent is the more generic feature, so the parent sits in every
ancestor set along the child's upward paths. The hierarchy may be a full DAG
(multiple parents per feature are allowed). The ancestor closure is stored as
per-feature bitsets (arbitrary-precision ints), because the structure learners
probe relatedness inside per-instance inner loops, and once more as (feature,
ancestor) index arrays for the array code that checks datasets.

External identifiers (e.g. ontology term names) are mapped onto indices by
:func:`dag_from_edge_names`; the algorithm core never sees strings.
"""

from __future__ import annotations

import codecs
import math
import random
import warnings
from dataclasses import dataclass, field
from functools import reduce
from operator import index, or_
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CyclicHierarchy, IndexOutOfRange, ParseError, UnreadableName


@dataclass(frozen=True)
class FeatureDag:
    """Immutable feature hierarchy plus its transitive closure.

    ``ancestor_bits[i]`` has bit ``a`` set iff ``a`` is a (strict) ancestor of
    ``i``; it is the only bitset form of the closure. ``related_ixs[i]`` lists
    ancestors and descendants of ``i`` in ascending order, precomputed because
    the redundancy-removal loop walks it for every accepted edge.

    ``closure_features`` and ``closure_ancestors`` list every (feature,
    ancestor) pair of the closure, ascending by feature, then by ancestor, as
    two read-only ``intp`` arrays: the propagation checks gather columns at
    them. The edges determine them, so ``==``, ``hash`` and ``repr`` leave
    them out.
    """

    n_features: int
    edges: frozenset[tuple[int, int]]
    ancestor_bits: tuple[int, ...]
    related_ixs: tuple[tuple[int, ...], ...]
    closure_features: np.ndarray = field(compare=False, repr=False)
    closure_ancestors: np.ndarray = field(compare=False, repr=False)

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
        """Features with no descendants (the most specific terms): in no ancestor bits."""
        above = reduce(or_, self.ancestor_bits, 0)
        return tuple(i for i in range(self.n_features) if not above >> i & 1)


def build_dag(n_features: int, edge_list: Iterable[tuple[int, int]]) -> FeatureDag:
    """Validate the edge list and compute the ancestor closure.

    Raises :class:`CyclicHierarchy` instead of ever returning a cyclic
    structure, and :class:`IndexOutOfRange` for indices outside
    ``[0, n_features)``, naming the first such edge, parent first. Duplicate
    edges are collapsed; endpoints may be any integers, NumPy's included.
    """
    if n_features < 0:
        raise ValueError("n_features must be non-negative")
    edges: set[tuple[int, int]] = set()
    children: list[list[int]] = [[] for _ in range(n_features)]
    indegree = [0] * n_features
    for parent, child in edge_list:
        if not (0 <= parent < n_features and 0 <= child < n_features):
            bad = child if 0 <= parent < n_features else parent
            raise IndexOutOfRange(
                f"edge ({parent}, {child}) references feature {bad} "
                f"outside [0, {n_features})"
            )
        edge = (index(parent), index(child))
        if edge in edges:
            continue
        edges.add(edge)
        children[edge[0]].append(edge[1])
        indegree[edge[1]] += 1

    # Kahn's algorithm; a node's ancestor set is complete when the loop reaches it.
    anc = [0] * n_features
    order = [v for v in range(n_features) if indegree[v] == 0]
    for v in order:  # grows while it is read
        inherit = anc[v] | (1 << v)
        for c in children[v]:
            anc[c] |= inherit
            indegree[c] -= 1
            if indegree[c] == 0:
                order.append(c)
    if len(order) != n_features:
        raise CyclicHierarchy("edge list contains a directed cycle")

    feature, ancestor = _closure_arrays(anc, n_features)
    # Each feature's relatives, from its pairs read both ways, collected in
    # the emptied children lists: a new list per feature cost a garbage
    # collection per build at 400 features (~30 us of ~290). Lists sorted in
    # place, not a NumPy sort: that maps ~0.4 MB of sort code that no other
    # set-up step needs. Each tuple is made from a list, at its final size:
    # grown from a generator, 400 builds of a 150-feature hierarchy left
    # ~3.4 MB more resident (CPython 3.11).
    related = children
    for relatives in related:
        relatives.clear()
    for f, a in zip(feature.tolist(), ancestor.tolist()):
        related[f].append(a)
        related[a].append(f)
    for relatives in related:
        relatives.sort()
    return FeatureDag(
        n_features, frozenset(edges), tuple(anc),
        tuple([tuple(relatives) for relatives in related]), feature, ancestor,
    )


def _closure_arrays(anc: Sequence[int], n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (feature, ancestor) pair of the ancestor bitsets ``anc``, as two
    read-only ``intp`` arrays ascending by feature, then by ancestor: the one
    walk over the closure's bits.

    The bitsets are laid out as one little-endian byte table, a row of whole
    64-bit words per feature; only the bytes of its nonzero words are looked
    at, and only the bits of their nonzero bytes are unpacked. The table
    takes n_features**2 / 8 bytes (3 MB at 5000 features), about what the
    bitsets themselves hold, and goes when the pairs are found."""
    row = 8 * ((n_features + 63) // 64)  # bytes per feature
    table = np.frombuffer(b"".join([bits.to_bytes(row, "little") for bits in anc]), np.uint8)
    words = np.flatnonzero(table.view("<u8"))
    octets = table.reshape(-1, 8)[words].reshape(-1)
    byte = np.flatnonzero(octets)
    k, bit = np.nonzero(np.unpackbits(octets[byte], bitorder="little").reshape(-1, 8))
    at = words[byte[k] >> 3] * 64 + (byte[k] & 7) * 8 + bit
    feature, ancestor = np.divmod(at, 8 * row)
    feature.setflags(write=False)
    ancestor.setflags(write=False)
    return feature, ancestor


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
    _check_utf8(path, data)
    return data.removeprefix(codecs.BOM_UTF8)


def _check_utf8(path, data: bytes, line: int = 1, start: int = 0) -> None:
    """Raise :func:`read_utf8_bytes`' ``ParseError`` if ``data``, the bytes
    of ``path`` from byte ``start`` on, is not UTF-8 text. ``data`` begins
    line ``line``: it starts the file or follows a line break that is whole
    without the bytes after it (any but b"\\r"), so the line and the byte
    offset are those counted from the file's first byte."""
    if data.isascii():
        return
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Lines are counted as ``str.splitlines`` splits the valid text
        # before the bad byte; the "x" stands for the line that holds it.
        line += len((data[: exc.start].decode("utf-8") + "x").splitlines()) - 1
        raise ParseError(
            f"{path}:{line}: not UTF-8 text ({exc.reason} at byte {start + exc.start})",
            line=line,
        ) from None


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
