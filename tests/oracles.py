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
cached ``bayes._log_pairs`` layout, an (m + 1, 2, 2, 2) log array (the
prior's row repeats over both values, so it reads column 0; each term's
code 2 x_source + x is built as ``uint8`` from the row), sum them in
``bayes._log_posteriors`` and must reproduce it bit for bit.
``lite_cv_reference`` is the ``hie_tan_lite`` branch of
``run_cv_experiment`` as one ``fit`` and one ``predict`` per test instance,
with usage counted one feature and one edge endpoint at a time; the CV loop
classifies each fold's instances in chunks, each chunk estimating and
logging its distinct CPTs once into the same layout, and must give the same
fold counts and usage. ``stratified_folds_reference`` deals the folds one
instance at a time, and ``friedman_holm_reference`` runs Holm's step-down as
a loop with a stop flag; ``stratified_folds`` and ``friedman_holm`` work on
whole arrays and must give the same folds and the same result.
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
``closure_pairs_reference`` lists the closure's (feature, ancestor) pairs
by taking the lowest set bit off each ancestor set in turn, where
``build_dag`` scans them as one byte table and keeps them as two arrays.
``validate_propagation_reference`` checks one (feature, ancestor) pair of
the closure at a time, where the library compares all of them per block
of rows. ``repair_product_reference`` repairs by the int32 product with
the closure matrix, where the library sets the cells that
``validate_propagation``'s block pass finds. ``random_dag_reference`` samples ``random_dag``'s pairs from the
list of all n(n-1)/2 of them, where the library maps sampled indices to
pairs.
``joint_counts`` builds a ``JointCounts`` table by a direct scan, ``cmi``
scores one such table with the library's ranking kernel, and
``tree_total_score`` sums a tree's candidate scores. ``read_csv_reference`` splits a dataset file
into lines and tokens with ``str`` methods and converts one token at a time;
``hietan.dataset``'s array reader must give the same names, arrays and
errors. ``save_dataset_reference`` formats one row at a time, and
``save_dataset`` must write the same bytes.
"""

import decimal
import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from hietan.bayes import FittedClassifier, Prediction, fit, predict
from hietan.dataset import Dataset, stratified_folds, subset
from hietan.errors import (
    DegenerateDistribution,
    DegenerateRanks,
    DimensionMismatch,
    EmptyFeatureSet,
    HieTanError,
    IndexOutOfRange,
    MissingClassColumn,
    NonBinaryValue,
    ParseError,
)
from hietan.evaluate import (
    FriedmanHolmResult,
    HolmComparison,
    RankTable,
    _check_alpha,
    confusion_from_predictions,
    derive_seed,
)
from hietan.hierarchy import read_utf8
from hietan.mutual_info import _pair_tables, _scores, check_smoothing, rank_edges
from hietan.structure import DependencyTree, hie_mst_lite


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


@dataclass(frozen=True)
class JointCounts:
    """8-cell contingency table over (x_i, x_j, y), plus the instance total.
    The table is stored as a private read-only int64 copy."""

    table: np.ndarray
    n: int

    def __post_init__(self):
        a = np.asarray(self.table)
        with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
            t = a.astype(np.int64)
        if t.shape != (2, 2, 2):
            raise DimensionMismatch("joint count table must have shape (2, 2, 2)")
        if not np.array_equal(t, a):
            raise ValueError("counts must be integers")
        if t.min() < 0:
            raise ValueError("counts cannot be negative")
        if int(t.sum()) != self.n:
            raise ValueError("count cells must sum to the instance total")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def cmi(counts: JointCounts, smoothing: float = 1.0) -> float:
    """Conditional mutual information estimate from smoothed counts,
    correctly rounded: ``rank_edges``'s kernel, ``mutual_info._scores``, on
    this one table as the pair (0, 1) of a two-feature dataset."""
    smoothing = check_smoothing(smoothing)
    stats = []
    for t in np.moveaxis(counts.table, 2, 0):  # per class, [x_i, x_j]
        ones = np.array([t[1].sum(), t[:, 1].sum()], dtype=np.int64)
        gram = np.array([[ones[0], t[1, 1]], [t[1, 1], ones[1]]], dtype=np.int64)
        stats.append((gram, ones, int(t.sum())))
    pair = np.array([0], dtype=np.intp), np.array([1], dtype=np.intp)
    n = int(counts.n)
    tables = _pair_tables(stats, n, smoothing, 1, lambda: pair)
    return float(_scores(stats, n, smoothing, tables, *pair)[0])


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


def validate_propagation_reference(ds: Dataset, dag) -> list[tuple[int, int, int]]:
    """``validate_propagation`` one (feature, ancestor) pair of the closure
    at a time, then sorted."""
    if ds.n_features != dag.n_features:
        raise DimensionMismatch(
            f"dataset has {ds.n_features} features, hierarchy has {dag.n_features}"
        )
    violations: list[tuple[int, int, int]] = []
    V = ds.values
    for f, a in closure_pairs_reference(dag):
        bad = np.flatnonzero((V[:, f] == 1) & (V[:, a] == 0))
        violations.extend((int(r), f, a) for r in bad)
    violations.sort()
    return violations


def closure_pairs_reference(dag) -> list[tuple[int, int]]:
    """Every (feature, ancestor) pair of ``dag``'s closure, ascending: the
    set bits of each ``ancestor_bits[f]``, lowest first."""
    pairs = []
    for f, bits in enumerate(dag.ancestor_bits):
        while bits:
            low = bits & -bits
            pairs.append((f, low.bit_length() - 1))
            bits ^= low
    return pairs


def repair_product_reference(ds: Dataset, dag) -> np.ndarray:
    """``repair_propagation``'s values as the int32 product of the rows with
    the closure matrix (the identity plus every (feature, ancestor) pair):
    a cell is 1 when the instance has it or one of its descendants."""
    closure = np.eye(dag.n_features, dtype=np.int32)
    for f, a in closure_pairs_reference(dag):
        closure[f, a] = 1
    return (ds.values.astype(np.int32) @ closure > 0).astype(np.uint8)


def random_dag_reference(n_features: int, n_edges: int, seed: int) -> list[tuple[int, int]]:
    """``random_dag`` sampling from the listed pairs themselves: shuffle the
    order, then ``Random.sample`` of ``list(combinations(range(n), 2))``."""
    rng = random.Random(seed)
    order = list(range(n_features))
    rng.shuffle(order)
    slots = list(itertools.combinations(range(n_features), 2))
    picked = rng.sample(slots, k=min(n_edges, len(slots)))
    return [(order[a], order[b]) for a, b in picked]


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



def stratified_folds_reference(ds: Dataset, k: int, seed: int) -> np.ndarray:
    """``stratified_folds``' fold of each instance, dealt one instance at a
    time: each class shuffled under the seed, class 0 first, then one fold
    pointer shared across both classes."""
    rng = np.random.default_rng(seed)
    fold_of = np.zeros(ds.n_instances, dtype=np.int64)
    pos = 0
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        rng.shuffle(idx)
        for i in idx:
            fold_of[i] = pos % k
            pos += 1
    return fold_of


def friedman_holm_reference(table: RankTable, alpha: float = 0.05) -> FriedmanHolmResult:
    """``friedman_holm`` with one z and p per comparison and Holm's step-down
    as a loop over the comparisons in (p, average rank) order that stops
    marking significance at the first failure."""
    from scipy import stats

    _check_alpha(alpha)
    k = len(table.methods)
    n_blocks = table.ranks.shape[0]
    if k < 2 or n_blocks < 2:
        raise DegenerateRanks(
            "Friedman / Holm needs at least two methods and two datasets"
        )
    avg = table.average_rank
    control = min(table.methods, key=lambda m: (avg[m], table.methods.index(m)))

    r = np.array([avg[m] for m in table.methods])
    chi2 = (12.0 * n_blocks / (k * (k + 1))) * (
        float(np.sum(r**2)) - k * (k + 1) ** 2 / 4.0
    )
    overall_p = float(stats.chi2.sf(chi2, k - 1))

    se = np.sqrt(k * (k + 1) / (6.0 * n_blocks))
    others = [m for m in table.methods if m != control]
    raw = []
    for m in others:
        z = (avg[m] - avg[control]) / se
        p = float(2.0 * stats.norm.sf(abs(z)))
        raw.append((m, float(z), p))

    m_cnt = len(raw)
    by_p = sorted(range(m_cnt), key=lambda idx: (raw[idx][2], avg[raw[idx][0]]))
    adjusted = {}
    significant = {}
    alive = True
    for pos, idx in enumerate(by_p):
        method, _, p = raw[idx]
        threshold = alpha / (m_cnt - pos)
        adjusted[method] = threshold
        if alive and p <= threshold:
            significant[method] = True
        else:
            alive = False
            significant[method] = False

    ordered = sorted(raw, key=lambda t: (avg[t[0]], table.methods.index(t[0])))
    comparisons = tuple(
        HolmComparison(m, z, p, adjusted[m], significant[m]) for m, z, p in ordered
    )
    return FriedmanHolmResult(control, float(chi2), overall_p, comparisons)

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
    ascending, read from its closure: the set bits of ``ancestor_bits[v]``,
    the features whose ``ancestor_bits`` hold ``v``, or ``related_ixs[v]``."""
    if kind == "related":
        return dag.related_ixs[v]
    anc = dag.ancestor_bits
    if kind == "ancestors":
        return tuple(u for u in range(dag.n_features) if anc[v] >> u & 1)
    if kind == "descendants":
        return tuple(u for u in range(dag.n_features) if anc[u] >> v & 1)
    raise ValueError(f"unknown kind {kind!r}")


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
    column is absent. One leading byte-order mark is dropped, blank lines
    are skipped, and errors carry line numbers."""
    read_utf8(path)  # the library's error for a file that is not UTF-8
    text = Path(path).read_bytes().decode("utf-8")
    if text.startswith("\ufeff"):
        text = text[1:]
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
