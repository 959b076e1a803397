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
from .hierarchy import FeatureDag, _iter_bits, read_utf8


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable instance matrix with binary features and binary labels."""

    values: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = ()
    class_names: tuple[str, str] = ("0", "1")

    def __post_init__(self):
        vals = _binary_copy(self.values, "feature values")
        labs = _binary_copy(self.labels, "class labels")
        if vals.ndim != 2:
            raise DimensionMismatch("values must be a 2-d instance-by-feature matrix")
        if labs.shape != (vals.shape[0],):
            raise DimensionMismatch(
                f"{vals.shape[0]} instances but {labs.shape[0]} labels"
            )
        names = tuple(self.feature_names)
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
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @cached_property
    def _class_stats(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Per class: (Gram matrix, column sums, row count) of its rows, as
        int64. The arrays are read-only, so this is computed once per dataset.

        The products run in float64, where NumPy uses BLAS (an int64 matmul
        does not), and are exact: every partial sum is an integer at most
        n_instances < 2**53."""
        X = self.values.astype(np.float64)
        stats = []
        for y in (0, 1):
            Xy = X[self.labels == y]
            gram, ones = Xy.T @ Xy, Xy.sum(axis=0)
            stats.append((gram.astype(np.int64), ones.astype(np.int64), Xy.shape[0]))
        return tuple(stats)

    def _pair_counts(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """(m, 2, 2, 2) counts over (x_i, x_j, y) for index arrays ``i``,
        ``j``; any order, and ``i == j`` gives a diagonal table."""
        tables = np.empty((len(i), 2, 2, 2), dtype=np.int64)
        for y, (gram, ones, total) in enumerate(self._class_stats):
            n11 = gram[i, j]
            n10 = ones[i] - n11
            n01 = ones[j] - n11
            tables[:, 1, 1, y] = n11
            tables[:, 1, 0, y] = n10
            tables[:, 0, 1, y] = n01
            tables[:, 0, 0, y] = total - n11 - n10 - n01
        return tables


def _first_non_binary(a: np.ndarray) -> Optional[int]:
    """The flat (C-order) index of the first value of ``a`` that is not 0 or
    1, or None."""
    binary = (a == 0) | (a == 1)
    return None if binary.all() else int(np.argmin(binary))


def _binary_copy(array, what: str) -> np.ndarray:
    """A private C-contiguous ``uint8`` copy of ``array``, whose every value
    must equal 0 or 1 (so 0.7, 256 and NaN are rejected, not cast)."""
    a = np.asarray(array)
    k = _first_non_binary(a)
    if k is not None:
        bad = a.reshape(-1)[k : k + 1].tolist()[0]
        raise NonBinaryValue(f"{what} must be 0 or 1, got {bad!r}")
    return np.array(a, dtype=np.uint8, order="C")


# What ``str.isspace`` calls whitespace, and which of it ``str.splitlines``
# ends a line at ("\r\n" is one break); a test checks both against Python.
_WHITESPACE = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
_LINE_BREAKS = "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"


def _whitespace_rules() -> tuple[bytes, tuple[tuple[bytes, bytes], ...]]:
    """A ``bytes.translate`` table for one-byte whitespace, and (UTF-8 code,
    replacement) pairs for the rest: a line break's last byte becomes b"\\n"
    and every other whitespace byte b" ", so offsets stay those of the file."""
    table = bytearray(range(256))
    wide = []
    for ch in _WHITESPACE:
        code = ch.encode("utf-8")
        repl = b" " * (len(code) - 1) + (b"\n" if ch in _LINE_BREAKS else b" ")
        if len(code) == 1:
            table[code[0]] = repl[0]
        else:
            wide.append((code, repl))
    return bytes(table), tuple(wide)


_ONE_BYTE_SPACES, _WIDE_SPACES = _whitespace_rules()


def _normalise(data: bytes) -> bytes:
    """``data`` with each line break's last byte turned into b"\\n" and all
    other whitespace into b" ", ending in b"\\n". UTF-8 is self-synchronising,
    so a multi-byte code only matches where that character is."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b" \n")
    if not data.isascii():
        for code, repl in _WIDE_SPACES:
            data = data.replace(code, repl)
    data = data.translate(_ONE_BYTE_SPACES)
    # A last line without a break reads as if it had one.
    return data if data.endswith(b"\n") else data + b"\n"


def _scan_rows(s: np.ndarray, width: int) -> tuple[Optional[np.ndarray], Optional[int]]:
    """Parse ``s``, a body with whitespace dropped and every line break one
    b"\\n", into a (rows, width) uint8 table. Returns ``(table, None)`` when
    every non-blank line is ``width`` tokens 0/1 joined by commas, else
    ``(None, k)`` with ``s[k]`` a byte of the first line that is not.

    Blank lines dropped, the valid body is rows of exactly 2 * width bytes,
    "d,d,...,d\\n", so it is checked in a (rows, width, 2) view. Before the
    first bad line every row fits that view, so the first byte that does not
    lies on the first bad line."""
    newline = s == ord("\n")
    blank = newline.copy()  # a break that ends a line with nothing on it
    blank[1:] &= newline[:-1]
    del newline
    kept = ~blank if blank.any() else None
    rows = s if kept is None else s[kept]
    pad = -rows.size % (2 * width)  # only ever on a bad body
    if pad:
        rows = np.concatenate((rows, np.zeros(pad, dtype=np.uint8)))
    cells = rows.reshape(-1, width, 2)
    table = cells[:, :, 0] - ord("0")  # uint8 arithmetic wraps bytes below b"0"
    separators = cells[:, :, 1] == ord(",")
    separators[:, -1] = cells[:, -1, 1] == ord("\n")
    fits = table <= 1
    fits &= separators
    if fits.all():
        return table, None
    # The first (token, separator) cell that does not fit: its token is a
    # digit on the first bad line, or the first byte that does not fit.
    k = 2 * int(np.argmin(fits))
    return None, k if kept is None else _nth_true(kept, k)


def _nth_true(mask: np.ndarray, k: int) -> int:
    """The index of the k-th (from 0) True of ``mask``, found a block at a
    time so that no index array as long as ``mask`` is made."""
    block = 1 << 20
    for start in range(0, mask.size, block):
        part = mask[start : start + block]
        count = int(np.count_nonzero(part))
        if k < count:
            return start + int(np.flatnonzero(part)[k])
        k -= count
    raise IndexError("mask has too few True values")


def _line_error(path, data: bytes, norm: bytes, at: int, width: int) -> HieTanError:
    """The error the grammar gives for the line of ``data`` holding byte
    ``at``, phrased from that line alone; ``norm`` is ``_normalise(data)``."""
    lineno = norm.count(b"\n", 0, at) + 1
    first = norm.rfind(b"\n", 0, at) + 1
    last = norm.find(b"\n", at) + 1
    raw = data[first:last].decode("utf-8").splitlines()[0]
    tokens = [t.strip() for t in raw.split(",")]
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
    array, and only the first bad line, if any, is looked at as text."""
    data = read_utf8(path).encode("utf-8")
    norm = _normalise(data)
    cut = norm.find(b"\n") + 1  # just past the header's line break
    lines = data[:cut].decode("utf-8").splitlines()
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
    n_features = len(names)
    width = n_features + labelled

    tight = norm.replace(b" ", b"")  # the same object when there is no whitespace
    start = tight.find(b"\n") + 1
    table, bad = _scan_rows(np.frombuffer(tight, dtype=np.uint8)[start:], width)
    if table is None:
        at = _nth_true(np.frombuffer(norm, dtype=np.uint8) != ord(" "), start + bad)
        raise _line_error(path, data, norm, at, width)
    if not labelled:
        return tuple(names), table, None
    return tuple(names), np.ascontiguousarray(table[:, :n_features]), table[:, -1].copy()


def load_dataset(path) -> Dataset:
    """Load a labelled dataset; the ``class`` column is mandatory."""
    names, values, labels = _read_csv(path, class_required=True)
    return Dataset(values, labels, names)


def load_instances(path, feature_names: Sequence[str]) -> np.ndarray:
    """Load instances to classify: the ``class`` column is optional and
    ignored, and the header must list exactly ``feature_names`` in order."""
    names, values, _ = _read_csv(path, class_required=False)
    if names != tuple(feature_names):
        raise ParseError(f"{path}: header does not match the model's feature names", line=1)
    return values


def save_dataset(ds: Dataset, path) -> None:
    """Write ``ds`` in the CSV format above, with b"\\n" line ends. The body
    is built as one (rows, columns, token + separator) byte array."""
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
    return Dataset(ds.values[idx], ds.labels[idx], ds.feature_names, ds.class_names)


def validate_propagation(ds: Dataset, dag: FeatureDag) -> list[tuple[int, int, int]]:
    """Every (instance, feature, ancestor) triple where the feature is 1 but
    the ancestor is 0. An empty list means the dataset is consistent."""
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    violations: list[tuple[int, int, int]] = []
    V = ds.values
    for f in range(ds.n_features):
        for a in _iter_bits(dag.ancestor_bits[f]):
            bad = np.flatnonzero((V[:, f] == 1) & (V[:, a] == 0))
            violations.extend((int(r), f, a) for r in bad)
    violations.sort()
    return violations


def _closure_matrix(dag: FeatureDag) -> np.ndarray:
    m = np.eye(dag.n_features, dtype=np.int32)
    for f in range(dag.n_features):
        for a in _iter_bits(dag.ancestor_bits[f]):
            m[f, a] = 1
    return m


def repair_propagation(ds: Dataset, dag: FeatureDag) -> Dataset:
    """Set every ancestor of a 1-valued feature to 1, instance by instance.

    Idempotent because the ancestor sets are transitively closed.
    """
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    hit = ds.values.astype(np.int32) @ _closure_matrix(dag)
    return Dataset(
        (hit > 0).astype(np.uint8), ds.labels, ds.feature_names, ds.class_names
    )


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
    fold_of = np.zeros(ds.n_instances, dtype=np.int64)
    pos = 0
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        for i in idx:
            fold_of[i] = pos % k
            pos += 1
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
        if not dag.hierarchically_related(a, b):
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
