"""Reference implementations the tests compare the library against.

``cmi_reference`` and ``rank_edges_reference`` score one pair at a time by
the probability form of the CMI, with exact rational probabilities and
80-digit Decimal logarithms, rounded once; the fixed-point count form in
``hietan.mutual_info`` must reproduce them bit for bit. ``fit_reference``
counts each CPT by a per-feature scan of
the rows; ``hietan.bayes.fit`` gathers the same counts from the dataset's
per-class statistics and must reproduce it bit for bit. ``predict_reference``
sums one scalar log per feature and class; ``hietan.bayes.predict`` and
every row of ``predict_batch`` gather the same logs from the classifier's
cached (m + 1, 2, 2, 2) log array (the prior's row repeats over both
values, so it reads column 0; each term's code 2 x_source + x is built as
``uint8`` from the row), sum them in ``bayes._log_posteriors`` and must
reproduce it bit for bit. ``lite_cv_reference`` is the
``hie_tan_lite`` branch of ``run_cv_experiment`` as one ``fit`` and one
``predict`` per test instance, with usage counted one feature and one edge
endpoint at a time; the CV loop classifies each fold's instances in one pass
and must give the same fold counts and usage.
``grow_reference`` is the greedy pass of ``hie_mst``/``hie_mst_lite``
written step by step and without the early stop: it examines every
candidate, checks cycles with its own ``UnionFind``, keeps its edges in an
``EdgeSets`` (a parent map and an undirected list), applies each constraint
in ``insert_constrained``, propagates to a fixpoint over every undirected
edge in ``propagate`` and deactivates relatives in ``deactivate_relatives``.
The library's flat scan must give the same tree, active mask, residual
orientation and trace, order included. ``tan_reference`` is TAN's Kruskal
loop over ``UnionFind`` with a stop after n - 1 picks; ``learn_tan_structure``
runs the constrained learners' scan on no hierarchy instead and must give
the same tree.
``joint_counts`` builds a table by a direct scan and ``tree_total_score``
sums a tree's candidate scores. ``read_csv_reference`` splits a dataset file
into lines and tokens with ``str`` methods and converts one token at a time;
``hietan.dataset``'s array reader must give the same names, arrays and
errors. ``save_dataset_reference`` formats one row at a time, and
``save_dataset`` must write the same bytes.
"""

import decimal
import functools
import math
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

from hietan.bayes import FittedClassifier, Prediction, fit, predict
from hietan.dataset import Dataset, stratified_folds, subset
from hietan.errors import (
    DegenerateDistribution,
    EmptyFeatureSet,
    HieTanError,
    IndexOutOfRange,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
)
from hietan.evaluate import confusion_from_predictions, derive_seed
from hietan.hie_mst import hie_mst_lite
from hietan.hierarchy import read_utf8
from hietan.mutual_info import JointCounts, rank_edges
from hietan.tree import DependencyTree


class UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


class UnknownEdge(HieTanError):
    """A tree edge has no score in the candidate edge list."""


def joint_counts(ds: Dataset, i: int, j: int) -> JointCounts:
    """Exact contingency counts for the feature pair over all instances."""
    for v in (i, j):
        if not 0 <= v < ds.n_features:
            raise IndexOutOfRange(f"feature index {v} outside [0, {ds.n_features})")
    if i == j:
        raise ValueError("joint counts need two distinct features")
    code = (
        ds.values[:, i].astype(np.int64) * 4
        + ds.values[:, j].astype(np.int64) * 2
        + ds.labels.astype(np.int64)
    )
    table = np.bincount(code, minlength=8).reshape(2, 2, 2)
    return JointCounts(table, ds.n_instances)


# Digits of the Decimal reference. At Decimal's default 28 digits the
# probability form of an exactly independent table came out negative.
REFERENCE_DIGITS = 80


@functools.lru_cache(maxsize=None)
def _reference_log(r: Fraction) -> decimal.Decimal:
    """ln r to REFERENCE_DIGITS significant digits for an exact positive
    rational r. Near 1 it sums the series of 2 atanh((r - 1) / (r + 1)),
    as ``Decimal.ln`` of r rounded to REFERENCE_DIGITS digits would lose the
    digits of r - 1."""
    ctx = decimal.Context(prec=REFERENCE_DIGITS + 5)
    z = (r - 1) / (r + 1)
    if abs(z) > Fraction(1, 10):
        return ctx.divide(r.numerator, r.denominator).ln(ctx)
    with decimal.localcontext(ctx):
        z = decimal.Decimal(z.numerator) / z.denominator
        total, power, k = decimal.Decimal(0), z, 1
        while power and abs(power) >= abs(total).scaleb(-REFERENCE_DIGITS - 5):
            total += power / k
            power, k = power * z * z, k + 2
        return 2 * total


@functools.lru_cache(maxsize=None)
def _class_part(cells: tuple[int, int, int, int], n: int, smoothing: float) -> decimal.Decimal:
    """One class's four terms p(a, b, y) ln(p(a, b | y) / (p(a | y) p(b | y)))
    from its cells (a, b) = 00, 01, 10, 11, with exact rational
    probabilities and REFERENCE_DIGITS-digit logarithms. A term whose ratio
    is exactly 1 is exactly 0."""
    s = Fraction(smoothing)
    p = [[(cells[2 * a + b] + s) / (n + 8 * s) for b in (0, 1)] for a in (0, 1)]
    p_y = sum(p[0]) + sum(p[1])
    total = decimal.Decimal(0)
    with decimal.localcontext(decimal.Context(prec=REFERENCE_DIGITS)):
        for a in (0, 1):
            for b in (0, 1):
                p_ab, p_a, p_b = p[a][b], p[a][0] + p[a][1], p[0][b] + p[1][b]
                if p_ab == 0 or p_ab * p_y == p_a * p_b:
                    continue
                ln = _reference_log(p_ab * p_y / (p_a * p_b))
                total += decimal.Decimal(p_ab.numerator) / p_ab.denominator * ln
    return total


def cmi_reference(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Conditional mutual information in its probability form, from exact
    rational probabilities and REFERENCE_DIGITS-digit Decimal logarithms,
    rounded once to a double; independent of the count form the library
    uses."""
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    n = int(counts.n)
    if n == 0 and smoothing == 0:
        raise DegenerateDistribution("no instances and no smoothing")
    t = counts.table.tolist()
    parts = [
        _class_part(tuple(t[a][b][y] for a in (0, 1) for b in (0, 1)), n, float(smoothing))
        for y in (0, 1)
    ]
    with decimal.localcontext(decimal.Context(prec=REFERENCE_DIGITS)):
        return float(parts[0] + parts[1])


def rank_edges_reference(ds: Dataset, smoothing: float = 1.0) -> list[tuple[int, int, float]]:
    """Per-pair loop: one table, one ``cmi_reference`` score and one
    (i, j, score) triple per pair, sorted descending by score, then
    ascending by (i, j)."""
    n = ds.n_features
    out: list[tuple[int, int, float]] = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            out.append((i, j, cmi_reference(joint_counts(ds, i, j), smoothing)))
    out.sort(key=lambda e: (-e[2], e[0], e[1]))
    return out


def hierarchically_related(dag, a: int, b: int) -> bool:
    """True iff one of the two features is an ancestor of the other."""
    return dag.is_ancestor(a, b) or dag.is_ancestor(b, a)


def tree_total_score(tree, edges) -> float:
    """Sum of candidate scores over the tree's edges."""
    lookup = {(i, j): s for i, j, s in edges}
    picked = []
    for p, c in tree.edges():
        key = (p, c) if p < c else (c, p)
        if key not in lookup:
            raise UnknownEdge(f"tree edge {p}->{c} is not in the scored list")
        picked.append(lookup[key])
    return math.fsum(picked)


def fit_reference(ds: Dataset, tree, active_features, smoothing: float) -> FittedClassifier:
    """``fit`` by one bincount over the rows per active feature; a row with
    zero mass and zero smoothing is all zero."""
    if active_features is None:
        active = tuple(range(ds.n_features))
    else:
        active = tuple(sorted(set(int(f) for f in active_features)))
    y = ds.labels.astype(np.int64)
    class_counts = np.bincount(y, minlength=2).astype(np.float64)
    prior = (class_counts + smoothing) / (ds.n_instances + 2.0 * smoothing)
    cpts = {}
    for f in active:
        parent = tree.parent_of[f]
        xf = ds.values[:, f].astype(np.int64)
        if parent is None:
            counts = np.bincount(y * 2 + xf, minlength=4).reshape(2, 2)
        else:
            xp = ds.values[:, parent].astype(np.int64)
            counts = np.bincount(y * 4 + xp * 2 + xf, minlength=8).reshape(2, 2, 2)
        counts = counts.astype(np.float64)
        num = counts + smoothing
        den = counts.sum(axis=-1, keepdims=True) + 2.0 * smoothing
        cpts[f] = np.zeros_like(num, dtype=np.float64)
        np.divide(num, den, out=cpts[f], where=den > 0)
    return FittedClassifier(tree, prior, cpts, smoothing, active, ds.feature_names)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


def predict_reference(clf: FittedClassifier, instance) -> Prediction:
    """Log-posterior by a scalar loop: per class, the log prior plus one
    ``math.log`` per active feature in order; ties go to class 0."""
    vals = [int(v) for v in instance]
    log_post = [_log(float(clf.class_prior[y])) for y in (0, 1)]
    for f in clf.active_features:
        parent = clf.tree.parent_of[f]
        table = clf.cpts[f]
        x = vals[f]
        for y in (0, 1):
            if parent is None:
                p = float(table[y, x])
            else:
                p = float(table[y, vals[parent], x])
            log_post[y] += _log(p)
    label = 0 if log_post[0] >= log_post[1] else 1
    return Prediction(label, (log_post[0], log_post[1]))


def lite_cv_reference(ds: Dataset, dag, k: int, seed: int, smoothing: float):
    """``run_cv_experiment``'s ``hie_tan_lite`` method by a per-instance
    loop: per test instance one tree, one ``fit`` and one ``predict``, then
    one ``+= 1`` per active feature and per edge endpoint. Returns the fold
    confusion counts, the selection counts and the edge counts."""
    folds = stratified_folds(ds, k, seed)
    n = ds.n_features
    counts = []
    usage_selection = np.zeros(n, dtype=np.int64)
    usage_edges = np.zeros(n, dtype=np.int64)
    for fold in range(k):
        train = subset(ds, folds.train_indices(fold))
        test_idx = folds.test_indices(fold)
        edges = rank_edges(train, dag, smoothing)
        predicted = []
        for r in test_idx:
            tree, active = hie_mst_lite(
                edges, dag, ds.values[r], n, derive_seed(seed, fold, int(r))
            )
            clf = fit(train, tree, active, smoothing)
            predicted.append(predict(clf, ds.values[r]).label)
            for f in active:
                usage_selection[f] += 1
            for p, c in tree.edges():
                usage_edges[p] += 1
                usage_edges[c] += 1
        counts.append(confusion_from_predictions(ds.labels[test_idx], predicted))
    return counts, usage_selection, usage_edges


class EdgeSets:
    """The constrained learners' working edges: undirected edges as (a, b)
    with a < b in insertion order, and the parent map, child -> parent."""

    __slots__ = ("undirected", "parent_of")

    def __init__(self):
        self.undirected: list[tuple[int, int]] = []
        self.parent_of: dict[int, int] = {}

    def has_parent(self, v: int) -> bool:
        return v in self.parent_of

    def add_directed(self, parent: int, child: int) -> None:
        if child in self.parent_of:
            raise ValueError(f"feature {child} already has a parent")
        self.parent_of[child] = parent

    def add_undirected(self, a: int, b: int) -> None:
        self.undirected.append((a, b) if a < b else (b, a))

    def move_to_directed(self, pair: tuple[int, int], parent: int, child: int) -> None:
        self.undirected.remove(pair)
        self.parent_of[child] = parent


def note(trace, decision: str, i: int, j: int, **extra) -> None:
    if trace is not None:
        entry = {"decision": decision, "i": i, "j": j}
        entry.update(extra)
        trace(entry)


def propagate(sets: EdgeSets, trace=None) -> None:
    """Run dependency propagation to a fixpoint, in place: insertion-order
    passes over every undirected edge until none moves."""
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
            sets.move_to_directed(pair, parent, child)
            note(trace, "oriented_by_propagation", a, b, parent=parent, child=child)
            moved = True


def orient_residual(sets: EdgeSets, rng: random.Random, trace=None) -> None:
    """Direct whatever stayed undirected: a seeded coin orients the first
    undirected edge in insertion order, propagation follows, and so on until
    none is left."""
    while sets.undirected:
        pair = a, b = sets.undirected[0]
        parent, child = (a, b) if rng.randrange(2) == 0 else (b, a)
        sets.move_to_directed(pair, parent, child)
        note(trace, "oriented_randomly", a, b, parent=parent, child=child)
        propagate(sets, trace)


def insert_constrained(sets: EdgeSets, dag, i: int, j: int, trace) -> bool:
    """Apply the constraint branches to one non-cycle-creating edge, with
    propagation to a fixpoint after every directed insertion. True iff the
    edge entered the working sets (directed or undirected)."""
    if hierarchically_related(dag, i, j):
        parent, child = (i, j) if dag.is_ancestor(i, j) else (j, i)
    elif sets.has_parent(i):
        parent, child = i, j
    elif sets.has_parent(j):
        parent, child = j, i
    else:
        sets.add_undirected(i, j)
        note(trace, "accepted_undirected", i, j)
        return True
    if sets.has_parent(child):
        note(trace, "rejected_single_parent", i, j)
        return False
    sets.add_directed(parent, child)
    note(trace, "accepted_directed", i, j, parent=parent, child=child)
    propagate(sets, trace)
    return True


def relatives(dag, v: int, kind: str) -> tuple[int, ...]:
    """``v``'s "ancestors", "descendants" or both ("related") in ``dag``,
    ascending, read from its closure: the set bits of ``ancestor_bits[v]``
    or ``descendant_bits[v]``, or ``related_ixs[v]``."""
    if kind == "related":
        return dag.related_ixs[v]
    bits = {"ancestors": dag.ancestor_bits, "descendants": dag.descendant_bits}[kind][v]
    return tuple(u for u in range(dag.n_features) if bits >> u & 1)


def is_redundant_pair(dag, values, a: int, b: int) -> bool:
    """True iff the features are hierarchically related and carry the same
    value in this instance."""
    return hierarchically_related(dag, a, b) and int(values[a]) == int(values[b])


def deactivate_relatives(dag, values, active: list[bool], edge: tuple[int, int],
                         trace=None) -> set[int]:
    """Clear ``active`` for every ancestor/descendant of the edge's endpoints
    that shares that endpoint's value (the endpoints stay active), and return
    the features this call deactivated."""
    i, j = edge
    removed = set()
    for v in (i, j):
        val = values[v]
        for u in relatives(dag, v, "related"):
            if u == i or u == j:
                continue
            if active[u] and values[u] == val:
                active[u] = False
                removed.add(u)
                note(trace, "relative_removed", i, j, feature=u, endpoint=v)
    return removed


def grow_reference(edges, dag, n_features, seed, values, trace):
    """The full-scan greedy pass: eager with ``values=None``, lazy with an
    instance's values, returning the tree and the final active mask."""
    rng = random.Random(seed)
    sets = EdgeSets()
    uf = UnionFind(n_features)
    active = [True] * n_features
    for i, j, _ in edges:
        if uf.connected(i, j):
            note(trace, "rejected_cycle", i, j)
            continue
        if values is not None:
            if not (active[i] and active[j]):
                note(trace, "rejected_unavailable", i, j)
                continue
            if is_redundant_pair(dag, values, i, j):
                note(trace, "rejected_redundant", i, j)
                continue
        if insert_constrained(sets, dag, i, j, trace):
            uf.union(i, j)
            if values is not None:
                deactivate_relatives(dag, values, active, (i, j), trace)
    orient_residual(sets, rng, trace)
    tree = DependencyTree(tuple(sets.parent_of.get(f) for f in range(n_features)))
    return tree, active


def tan_reference(edges, n_features, seed):
    """TAN as a Kruskal loop over ``UnionFind`` that stops after n - 1 picks,
    the root drawn from the seed and every component oriented outward by
    breadth-first traversal, leftover components from their lowest index."""
    if n_features <= 0:
        raise EmptyFeatureSet("cannot learn a structure over zero features")
    uf = UnionFind(n_features)
    adjacency: list[list[int]] = [[] for _ in range(n_features)]
    picked = 0
    for i, j, _ in edges:
        if picked == n_features - 1:
            break
        if uf.union(i, j):
            adjacency[i].append(j)
            adjacency[j].append(i)
            picked += 1

    root = random.Random(seed).randrange(n_features)
    parent: list[int | None] = [None] * n_features
    visited = [False] * n_features
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


def read_csv_reference(path, class_required: bool):
    """(names, values, labels) of a dataset file by ``str.splitlines`` and
    per-token ``strip``/``int``; labels are ``None`` if an optional class
    column is absent. Blank lines are skipped; errors carry line numbers."""
    text = read_utf8(path)
    lines = text.splitlines()
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

    rows: list[list[int]] = []
    labels: list[int] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        tokens = [t.strip() for t in raw.split(",")]
        if len(tokens) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} values, got {len(tokens)}",
                line=lineno,
            )
        for tok in tokens:
            if tok not in ("0", "1"):
                raise NonBinaryValue(
                    f"{path}:{lineno}: value {tok!r} is not 0 or 1"
                )
        rows.append([int(t) for t in tokens[:n_features]])
        if labelled:
            labels.append(int(tokens[-1]))

    values = np.array(rows, dtype=np.uint8).reshape(len(rows), n_features)
    return tuple(names), values, np.array(labels, dtype=np.uint8) if labelled else None


def save_dataset_reference(ds: Dataset, path) -> None:
    """The dataset CSV, formatted one row at a time."""
    lines = [",".join(list(ds.feature_names) + ["class"])]
    for row, label in zip(ds.values, ds.labels):
        lines.append(",".join(str(int(v)) for v in row) + f",{int(label)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
