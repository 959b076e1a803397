"""Binary instance data: loading, hierarchy-consistency checks, folds, synthesis.

The on-disk format is a plain CSV: a header row of feature names ending in a
``class`` column, then rows of ``0``/``1`` tokens, with no quoting. Lines
split where ``str.splitlines`` splits, whitespace around a token (what
``str.strip`` removes) is ignored, and blank lines are skipped.
A dataset is hierarchy-consistent when every instance that carries value 1 for
a feature also carries value 1 for all of that feature's ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    HieTanError,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
    TooFewInstances,
)
from .hierarchy import FeatureDag, _check_names, _iter_bits, read_utf8_bytes


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable instance matrix with binary features and binary labels.

    ``feature_names`` holds one distinct ``str`` per column, or is empty
    for the names f0, f1, ...; the first name that is not a ``str`` raises
    ``TypeError``, and the first that repeats an earlier one ``ValueError``,
    naming it."""

    values: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        self._adopt(
            _binary_copy(self.values, "feature values"),
            _binary_copy(self.labels, "class labels"),
            self.feature_names,
        )

    @classmethod
    def _own(cls, values, labels, feature_names) -> Dataset:
        """A dataset over arrays the library has just built: private,
        C-contiguous, binary ``uint8``. They are taken as they are; only a
        caller's arrays need ``_binary_copy``'s check and copy."""
        ds = cls.__new__(cls)
        ds._adopt(values, labels, feature_names)
        return ds

    def _adopt(self, vals: np.ndarray, labs: np.ndarray, names) -> None:
        """Check the shapes and ``names``, and make them and the private binary
        ``uint8`` arrays ``vals`` and ``labs`` this dataset's read-only data."""
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a 2-d instance-by-feature matrix")
        if labs.shape != (vals.shape[0],):
            raise DimensionMismatch(
                f"{vals.shape[0]} instances but {labs.shape[0]} labels"
            )
        names = tuple(names)
        for name in names:
            if not isinstance(name, str):
                raise TypeError(f"feature name {name!r} is not a string")
        if len(set(names)) < len(names):
            raise ValueError(f"feature name {_first_repeat(names)!r} is repeated")
        if not names:
            names = tuple(f"f{i}" for i in range(vals.shape[1]))
        if len(names) != vals.shape[1]:
            raise DimensionMismatch(
                f"{len(names)} feature names for {vals.shape[1]} columns"
            )
        vals.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _class_stats(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Per class: (Gram matrix, column sums, row count) of its rows. The
        Gram matrix holds its counts in ``np.min_scalar_type(n_instances)``
        (uint8 up to 255 rows, uint16 up to 65 535); the column sums are its
        diagonal (x * x = x), in int64. The arrays are read-only, so this is
        computed once per dataset.

        Each block of at most _GRAM_ROWS rows is one float32 product, where
        NumPy uses BLAS (an integer matmul does not), and is exact in any
        summation order: with 0/1 entries every partial sum is an integer at
        most _GRAM_ROWS = 2**24, which float32 holds exactly. The blocks add
        up in the narrow type, which holds every count."""
        dtype = np.min_scalar_type(self.n_instances)
        stats = []
        for y in (0, 1):
            Xy = self.values[self.labels == y].astype(np.float32)
            # An empty class still makes one (zero) block.
            blocks = [Xy[s : s + _GRAM_ROWS] for s in range(0, max(len(Xy), 1), _GRAM_ROWS)]
            gram = (blocks[0].T @ blocks[0]).astype(dtype)
            for block in blocks[1:]:
                gram += (block.T @ block).astype(dtype)
            ones = gram.diagonal().astype(np.int64)
            gram.setflags(write=False)
            ones.setflags(write=False)
            stats.append((gram, ones, Xy.shape[0]))
        return tuple(stats)


# Rows per float32 product in ``Dataset._class_stats``: float32 holds every
# integer up to 2**24 exactly.
_GRAM_ROWS = 1 << 24


def _first_repeat(names: Sequence[str]) -> str:
    """The first of ``names`` equal to an earlier one; one must repeat."""
    seen = set()
    # ``seen.add`` returns None, so a name is kept only if it was seen.
    return next(name for name in names if name in seen or seen.add(name))


def _first_non_binary(a: np.ndarray) -> Optional[int]:
    """The flat (C-order) index of the first value of ``a`` that is not 0 or
    1, or None."""
    # An unsigned or bool value is binary exactly when it is <= 1.
    binary = a <= 1 if a.dtype.kind in "ub" else (a == 0) | (a == 1)
    return None if np.count_nonzero(binary) == binary.size else int(np.argmin(binary))


def _binary_copy(array, what: str) -> np.ndarray:
    """A private C-contiguous ``uint8`` copy of ``array``, whose every value
    must equal 0 or 1 (so 0.7, 256 and NaN are rejected, not cast)."""
    a = np.asarray(array)
    k = _first_non_binary(a)
    if k is not None:
        bad = a.reshape(-1)[k : k + 1].tolist()[0]
        raise NonBinaryValue(f"{what} must be 0 or 1, got {bad!r}")
    return np.array(a, dtype=np.uint8, order="C")


# What ``str.isspace`` calls whitespace; a test checks it against Python.
_WHITESPACE = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# A ``str.translate`` table that deletes all whitespace but "\n".
_NO_SPACE = dict.fromkeys(map(ord, _WHITESPACE.replace("\n", "")))


# A body cell is a (token, separator) byte pair read as one little-endian
# uint16, token in the low byte; "<u2" keeps that true on big-endian hosts.
_CELL = np.dtype("<u2")
# Cells checked and converted at a time, so that temporaries stay small.
_BLOCK_CELLS = 1 << 17


def _scan_rows(
    s: np.ndarray, width: int, labelled: bool
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[int]]:
    """Parse ``s``, body bytes with no whitespace but b"\\n" and no blank
    line, into ``(values, labels, bad)``: uint8 arrays of the rows before the
    first line that is not ``width`` tokens 0/1 joined by commas and ending
    in b"\\n", and ``bad``, ``None`` when there is no such line, else the
    offset of a byte on it. Labels are ``None`` unless ``labelled``, when the
    last of the ``width`` columns holds them.

    Such a body is rows of exactly 2 * width bytes, "d,d,...,d\\n", so it is
    checked as a (rows, width) table of cells: a cell fits when ``cell | 1``
    is b"1," (b"1\\n" in the last column), which only the tokens b"0" and
    b"1" give. Before the first bad line every row fills one table row, so
    the first cell that does not fit, or the bytes after the last whole row,
    lie on the first bad line, which starts at table row ``bad // (2 * width)``."""
    rows = s.size // (2 * width)
    cells = s[: rows * 2 * width].view(_CELL).reshape(rows, width)
    fit = np.frombuffer(b"1," * (width - 1) + b"1\n", dtype=_CELL)
    n_features = width - labelled
    values = np.empty((rows, n_features), dtype=np.uint8)
    labels = np.empty(rows, dtype=np.uint8) if labelled else None
    step = max(1, _BLOCK_CELLS // width)
    bad = None if cells.size * 2 == s.size else cells.size * 2
    for r in range(0, rows, step):
        block = cells[r : r + step]
        fits = (block | 1) == fit
        if not fits.all():
            bad = 2 * (r * width + int(np.argmin(fits)))
            rows = bad // (2 * width)  # the rows before the bad line
            block = block[: rows - r]
        tokens = block.view(np.uint8)  # bytes again, token at even columns
        end = r + len(block)
        np.subtract(tokens[:, : 2 * n_features : 2], ord("0"), out=values[r:end])
        if labelled:
            np.subtract(tokens[:, -2], ord("0"), out=labels[r:end])
        if end == rows:
            break
    return values[:rows], None if labels is None else labels[:rows], bad


def _line_error(path, line: str, lineno: int, width: int) -> HieTanError:
    """The error the grammar gives for ``line``, line ``lineno`` of the file."""
    tokens = [t.strip() for t in line.split(",")]
    if len(tokens) != width:
        return ParseError(
            f"{path}:{lineno}: expected {width} values, got {len(tokens)}", line=lineno
        )
    tok = next(t for t in tokens if t not in ("0", "1"))
    return NonBinaryValue(f"{path}:{lineno}: value {tok!r} is not 0 or 1")


def _read_csv(path, class_required: bool):
    """Parse a CSV file per the grammar above into (names, values, labels), with
    line numbers in errors; labels are ``None`` if an optional class column is absent.

    The header is read as text; the body is checked and converted as one
    array by ``_scan_rows``, and only the first bad line, if any, is looked
    at as text. When the header's line ends at the file's first b"\\n", the
    raw body is scanned first: if it fits, it is the canonical form that
    ``save_dataset`` writes, and its table is the answer. Otherwise the rows
    before the first line the raw scan rejects are canonical and kept, and
    only the rest of the file is normalised: split by ``str.splitlines``, its
    blank lines (those ``str.strip`` empties) dropped, and the kept lines
    joined by "\\n" with all other whitespace deleted by ``str.translate``.
    That body is scanned the same way, and a bad line is phrased from its
    own text. Any other file is normalised whole after its header."""
    data = read_utf8_bytes(path)
    cut = data.find(b"\n") + 1  # just past the header's line break, if it is b"\n"
    lines = data[:cut].decode("utf-8").splitlines()
    raw = len(lines) == 1  # the header's line ends at the first b"\n"
    if not raw:
        lines = data.decode("utf-8").splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}: missing header row", line=1)
    header = [t.strip() for t in lines[0].split(",")]
    labelled = header[-1] == "class"
    if class_required and not labelled:
        raise MissingClassColumn(
            f"{path}: last header column must be 'class', got {header[-1]!r}"
        )
    names = header[:-1] if labelled else header
    if len(set(names)) != len(names):
        raise ParseError(f"{path}: duplicate feature names in header", line=1)
    width = len(names) + labelled

    done = 0  # canonical rows already converted
    if raw:
        values, labels, bad = _scan_rows(np.frombuffer(data, dtype=np.uint8)[cut:], width, labelled)
        if bad is None:
            return tuple(names), values, labels
        done = len(values)
        head = values, labels
        # Canonical rows hold no line break but b"\n", so the text after them
        # splits into the file's lines from line done + 2 on; "" stands in
        # for the header, as line 0 of ``lines``.
        lines = [""] + data[cut + 2 * width * done :].decode("utf-8").splitlines()
    kept = [k for k in range(1, len(lines)) if lines[k].strip()]
    body = "\n".join([lines[k] for k in kept] + [""]).translate(_NO_SPACE).encode("utf-8")
    values, labels, bad = _scan_rows(np.frombuffer(body, dtype=np.uint8), width, labelled)
    if bad is not None:
        k = kept[body.count(b"\n", 0, bad)]
        raise _line_error(path, lines[k], done + k + 1, width)
    if done:
        values = np.concatenate((head[0], values))
        labels = None if labels is None else np.concatenate((head[1], labels))
    return tuple(names), values, labels


def load_dataset(path) -> Dataset:
    """Load a labelled dataset; the ``class`` column is mandatory."""
    names, values, labels = _read_csv(path, class_required=True)
    return Dataset._own(values, labels, names)


def load_instances(path, feature_names: Sequence[str]) -> np.ndarray:
    """Load instances to classify: the ``class`` column is optional and
    ignored, and the header must list exactly ``feature_names`` in order."""
    names, values, _ = _read_csv(path, class_required=False)
    if names != tuple(feature_names):
        raise ParseError(f"{path}: header does not match the model's feature names", line=1)
    return values


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` in the CSV format above, with b"\\n" line ends. The body
    is built as one (rows, columns, token + separator) byte array. Feature
    names ``load_dataset`` would not give back (see ``_check_names``) raise
    ``UnreadableName`` before the file is opened."""
    _check_names(path, ds.feature_names, ",", ds.feature_names[0] if ds.n_features else "")
    cells = np.empty((ds.n_instances, ds.n_features + 1, 2), dtype=np.uint8)
    cells[:, :-1, 0] = ds.values
    cells[:, -1, 0] = ds.labels
    cells[:, :, 0] += ord("0")
    cells[:, :, 1] = ord(",")
    cells[:, -1, 1] = ord("\n")
    header = ",".join(list(ds.feature_names) + ["class"]) + "\n"
    with open(path, "wb") as out:
        out.write(header.encode("utf-8"))
        out.write(cells.data)


def subset(ds: Dataset, indices) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    # Indexing makes new C-contiguous copies of arrays already checked.
    return Dataset._own(ds.values[idx], ds.labels[idx], ds.feature_names)


# Elements of a row block of validate_propagation's gathered columns.
_VALIDATE_BLOCK = 2**18


def validate_propagation(ds: Dataset, dag: FeatureDag) -> list[tuple[int, int, int]]:
    """Every (instance, feature, ancestor) triple where the feature is 1 but
    the ancestor is 0, sorted. An empty list means the dataset is consistent.

    The columns of every (feature, ancestor) pair of the closure are
    gathered a block of rows at a time, so temporaries stay near
    _VALIDATE_BLOCK elements, and compared at once."""
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    feature, ancestor = _closure_pairs(dag)
    violations: list[tuple[int, int, int]] = []
    rows = max(1, _VALIDATE_BLOCK // max(1, feature.size))
    for start in range(0, ds.n_instances, rows):
        block = ds.values[start : start + rows]
        # Binary values: 1 over 0 is the one violating combination. nonzero
        # lists by row, then by pair, and the pairs ascend by (feature,
        # ancestor), so the triples come out sorted.
        r, k = np.nonzero(block[:, feature] > block[:, ancestor])
        violations += zip((r + start).tolist(), feature[k].tolist(), ancestor[k].tolist())
    return violations


# Elements of a row block of repair_propagation's product: 2 MB of float64.
_REPAIR_BLOCK = 2**18


def _closure_pairs(dag: FeatureDag) -> tuple[np.ndarray, np.ndarray]:
    """Every (feature, ancestor) pair of the closure, ascending, as two
    index arrays."""
    pairs = [(f, a) for f in range(dag.n_features) for a in _iter_bits(dag.ancestor_bits[f])]
    feature, ancestor = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return feature, ancestor


def _closure_matrix(dag: FeatureDag) -> np.ndarray:
    m = np.eye(dag.n_features, dtype=np.float64)
    m[_closure_pairs(dag)] = 1
    return m


def repair_propagation(ds: Dataset, dag: FeatureDag) -> Dataset:
    """Set every ancestor of a 1-valued feature to 1, instance by instance.

    Idempotent because the ancestor sets are transitively closed. The
    product with the closure runs in float64, where NumPy uses BLAS (an
    integer matmul does not), and is exact: every sum is an integer at most
    n_features < 2**53. It runs a block of rows at a time, so its float64
    temporaries stay near _REPAIR_BLOCK elements however many rows there are.
    """
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    closure = _closure_matrix(dag)
    values = np.empty_like(ds.values)
    step = max(1, _REPAIR_BLOCK // max(1, ds.n_features))
    for start in range(0, ds.n_instances, step):
        rows = slice(start, start + step)
        values[rows] = ds.values[rows].astype(np.float64) @ closure > 0
    return Dataset(values, ds.labels, ds.feature_names)


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Per-instance fold indices for k-fold cross-validation."""

    fold_of: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def stratified_folds(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic stratified folds: shuffle each class under the seed, then
    deal instances round-robin with a fold pointer shared across classes.

    The shared pointer keeps per-class counts within 1 of each other across
    folds and leaves no fold empty whenever ``k <= n_instances``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if ds.n_instances < k:
        raise TooFewInstances(
            f"cannot split {ds.n_instances} instances into {k} folds"
        )
    counts = np.bincount(ds.labels, minlength=2)
    if int(counts.min()) == 0:
        raise TooFewInstances("each class needs at least one instance")
    rng = np.random.default_rng(seed)
    dealt = np.concatenate([rng.permutation(np.flatnonzero(ds.labels == c)) for c in (0, 1)])
    fold_of = np.empty(ds.n_instances, dtype=np.int64)
    fold_of[dealt] = np.arange(ds.n_instances) % k
    return FoldAssignment(fold_of, k)


@dataclass(frozen=True)
class PlantedRule:
    """Label rule planted by the synthetic generator: XOR of two features."""

    feature_a: int
    feature_b: int

    def labels_for(self, values: np.ndarray) -> np.ndarray:
        return (values[:, self.feature_a] ^ values[:, self.feature_b]).astype(np.uint8)


def generate_synthetic_with_rule(
    dag: FeatureDag,
    n_instances: int,
    leaf_density: float,
    class_noise: float,
    seed: int,
    feature_names: Sequence[str] = (),
) -> tuple[Dataset, PlantedRule]:
    """Sample a hierarchy-consistent dataset and return the planted label rule.

    Sink features (no descendants) are annotated independently with probability
    ``leaf_density``; the 1s then propagate to all ancestors. Labels are the
    XOR of two randomly drawn features, and each label is flipped with
    probability ``class_noise``.

    The rule must be learnable and must respect the hierarchy, so the draw
    prefers columns whose marginal is not extreme and retries a few times to
    get a hierarchically unrelated pair (a rule pitting a feature against its
    own ancestor is partly determined by the propagation constraint itself).
    """
    for name, p in (("leaf_density", leaf_density), ("class_noise", class_noise)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    if dag.n_features < 2:
        raise ValueError("need at least two features to plant a label rule")
    rng = np.random.default_rng(seed)
    n_feat = dag.n_features
    values = np.zeros((n_instances, n_feat), dtype=np.uint8)
    sinks = list(dag.sink_features)
    values[:, sinks] = rng.random((n_instances, len(sinks))) < leaf_density
    consistent = repair_propagation(
        Dataset(values, np.zeros(n_instances, dtype=np.uint8), tuple(feature_names)),
        dag,
    )
    V = consistent.values

    means = V.mean(axis=0) if n_instances else np.zeros(n_feat)
    balanced = [i for i in range(n_feat) if 0.2 <= means[i] <= 0.8]
    nonconst = [i for i in range(n_feat) if 0.0 < means[i] < 1.0]
    candidates = balanced if len(balanced) >= 2 else (
        nonconst if len(nonconst) >= 2 else list(range(n_feat))
    )
    a, b = sorted(int(x) for x in rng.choice(candidates, size=2, replace=False))
    for _ in range(100):
        if not (dag.ancestor_bits[b] | dag.descendant_bits[b]) >> a & 1:
            break
        a, b = sorted(int(x) for x in rng.choice(candidates, size=2, replace=False))
    rule = PlantedRule(a, b)

    labels = rule.labels_for(V)
    flips = rng.random(n_instances) < class_noise
    labels = (labels ^ flips).astype(np.uint8)
    return Dataset(V, labels, consistent.feature_names), rule


def generate_synthetic(
    dag: FeatureDag,
    n_instances: int,
    leaf_density: float,
    class_noise: float,
    seed: int,
    feature_names: Sequence[str] = (),
) -> Dataset:
    ds, _ = generate_synthetic_with_rule(
        dag, n_instances, leaf_density, class_noise, seed, feature_names
    )
    return ds
