import warnings
from dataclasses import asdict

import numpy as np
import pytest

import hietan.structure as structure
from hietan import dataset, evaluate, mutual_info
from hietan.bayes import fit, predict, predict_batch
from hietan.dataset import Dataset, generate_synthetic, stratified_folds, subset
from hietan.errors import (
    DegenerateRanks,
    DimensionMismatch,
    IncompleteTable,
    NonBinaryValue,
    TooFewInstances,
    UndefinedClassSide,
)
from hietan.evaluate import (
    ALL_METHODS,
    METHOD_HIE_TAN,
    METHOD_HIE_TAN_LITE,
    METHOD_TAN,
    ConfusionCounts,
    ExperimentResult,
    FeatureUsageReport,
    _train,
    average_ranks,
    confusion_from_predictions,
    derive_seed,
    fold_rank_summary,
    friedman_holm,
    gmean,
    run_cv_experiment,
)
from hietan.hierarchy import build_dag, random_dag
from hietan.structure import DependencyTree, hie_mst_lite

from oracles import friedman_holm_reference, lite_cv_reference


class TestGmean:
    def test_perfect(self):
        assert gmean(ConfusionCounts(5, 0, 5, 0)) == 1.0

    def test_zero_specificity_annihilates(self):
        assert gmean(ConfusionCounts(5, 5, 0, 0)) == 0.0

    def test_direct_arithmetic(self):
        assert gmean(ConfusionCounts(4, 3, 3, 1)) == pytest.approx(
            (0.8 * 0.5) ** 0.5
        )

    def test_absent_class(self):
        with pytest.raises(UndefinedClassSide):
            gmean(ConfusionCounts(0, 3, 4, 0))

    def test_confusion_from_predictions(self):
        counts = confusion_from_predictions([1, 1, 0, 0], [1, 0, 0, 1])
        assert counts == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)
        assert counts.tp + counts.fp + counts.tn + counts.fn == 4
        arrays = confusion_from_predictions(np.array([1, 1, 0, 0], dtype=np.uint8),
                                            np.array([True, False, False, True]))
        assert arrays == counts and all(type(v) is int for v in asdict(arrays).values())

    def test_confusion_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="differ in shape"):
            confusion_from_predictions([1, 0, 1], [1, 0])

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_confusion_refuses_non_binary_values(self, bad):
        # A 2 used to count as a negative: ([1, 0, 2], [1, 1, 0]) gave tn=1.
        with pytest.raises(NonBinaryValue, match=f"^labels must be 0 or 1, got {bad}$"):
            confusion_from_predictions([1, 0, bad], [1, 1, 0])
        with pytest.raises(NonBinaryValue, match=f"^predictions must be 0 or 1, got {bad}$"):
            confusion_from_predictions([1, 1, 0], [1, 0, bad])


class TestAverageRanks:
    def test_tie_at_top_splits_rank(self):
        table = average_ranks({"m1": [0.9], "m2": [0.9], "m3": [0.1]})
        assert table.ranks[0].tolist() == [1.5, 1.5, 3.0]
        assert table.average_rank["m1"] == 1.5

    def test_strict_order_single_dataset(self):
        table = average_ranks({"a": [0.3], "b": [0.9], "c": [0.6]})
        assert table.ranks[0].tolist() == [3.0, 1.0, 2.0]

    def test_rank_sums(self):
        rng = np.random.default_rng(0)
        table = average_ranks(
            {f"m{i}": rng.random(12).tolist() for i in range(5)}
        )
        k = 5
        for row in table.ranks:
            assert row.sum() == pytest.approx(k * (k + 1) / 2)

    def test_wins(self):
        table = average_ranks({"a": [0.9, 0.2], "b": [0.5, 0.8]})
        assert table.wins == {"a": 1, "b": 1}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_names_method_and_block(self, value):
        # NaN used to give every method an average rank of nan.
        scores = {"a": [0.6, 0.5, 0.4], "b": [0.3, 0.2, 0.1], "c": [0.9, 0.8, 0.7]}
        scores["b"][1] = value
        with pytest.raises(ValueError, match=rf"^method 'b' scores {value} on block 1, "):
            average_ranks(scores)

    def test_incomplete(self):
        with pytest.raises(IncompleteTable):
            average_ranks({"a": [0.1, 0.2], "b": [0.3]})
        with pytest.raises(IncompleteTable):
            average_ranks({})


class TestFriedmanHolm:
    def _six_method_table(self):
        # Rank-separated GMeans over 28 blocks; best method listed first.
        rng = np.random.default_rng(42)
        base = {"m1": 0.9, "m2": 0.8, "m3": 0.7, "m4": 0.6, "m5": 0.5, "m6": 0.4}
        return average_ranks(
            {
                m: (v + rng.normal(0, 0.01, 28)).tolist()
                for m, v in base.items()
            }
        )

    def test_holm_thresholds_six_methods(self):
        result = friedman_holm(self._six_method_table(), alpha=0.05)
        thresholds = [c.adjusted_alpha for c in result.comparisons]
        assert [f"{t:.2E}" for t in thresholds] == [
            "5.00E-02", "2.50E-02", "1.67E-02", "1.25E-02", "1.00E-02",
        ]
        assert thresholds == pytest.approx(
            [0.05 / i for i in range(1, 6)]
        )

    def test_identical_rank_vectors(self):
        table = average_ranks({"a": [0.5, 0.5, 0.5], "b": [0.5, 0.5, 0.5]})
        result = friedman_holm(table, alpha=0.05)
        (comp,) = result.comparisons
        assert comp.p_value == pytest.approx(1.0)
        assert not comp.significant

    def test_step_down_stops_at_first_failure(self):
        # 50 blocks with rank totals 86 / 108 / 106, so z = 2.2 for "a" and
        # 2.0 for "b". Holm tests "a" first (p = 0.0278 > alpha/2), which
        # fails, so "b" is not significant though p = 0.0455 <= alpha.
        rows = ([(1, 2, 3)] * 11 + [(1, 3, 2)] * 11 + [(2, 3, 1)] * 10
                + [(2, 1, 3)] * 10 + [(3, 2, 1)] * 5 + [(3, 1, 2)] * 3)
        gmeans = 1.0 - np.array(rows) / 10.0
        table = average_ranks({m: gmeans[:, i] for i, m in enumerate(("ctl", "a", "b"))})
        assert table.ranks.sum(axis=0).tolist() == [86.0, 108.0, 106.0]
        result = friedman_holm(table, alpha=0.05)
        assert result.control == "ctl"
        b, a = result.comparisons
        assert (a.method, a.z, a.adjusted_alpha) == ("a", pytest.approx(2.2), 0.025)
        assert (b.method, b.z, b.adjusted_alpha) == ("b", pytest.approx(2.0), 0.05)
        assert a.p_value == pytest.approx(0.0278, abs=1e-4) and a.p_value > a.adjusted_alpha
        assert b.p_value == pytest.approx(0.0455, abs=1e-4) and b.p_value <= b.adjusted_alpha
        assert not a.significant and not b.significant
        assert result == friedman_holm_reference(table, alpha=0.05)

    def test_matches_step_down_loop_reference(self):
        # Real-valued and tie-heavy tables, and tables of many blocks with
        # methods far enough apart that p underflows to 0.0, so that ties on
        # p fall to the average rank and then to table order.
        rng = np.random.default_rng(32)
        underflows = significant = 0
        for t in range(240):
            k = int(rng.integers(2, 7))
            if t % 3 == 2:
                n = int(rng.integers(1500, 2500))
                gm = rng.random((n, k)) * 0.01 - np.arange(k) * rng.integers(0, 2, k)
            else:
                n = int(rng.integers(2, 30))
                gm = (rng.integers(0, 3, (n, k)) / 4.0 if t % 3 else
                      rng.random((n, k)) - np.linspace(0.0, rng.random(), k))
            table = average_ranks({f"m{i}": gm[:, i] for i in range(k)})
            for alpha in (0.01, 0.05, 0.1, 0.5):
                result = friedman_holm(table, alpha)
                assert result == friedman_holm_reference(table, alpha)
                underflows += sum(c.p_value == 0.0 for c in result.comparisons)
                significant += sum(c.significant for c in result.comparisons)
        assert underflows > 0 and significant > 0

    def test_degenerate_table(self):
        single = average_ranks({"a": [0.1], "b": [0.2]})
        with pytest.raises(DegenerateRanks):
            friedman_holm(single)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -0.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # A Holm threshold of 1 or more would mark every comparison significant.
        with pytest.raises(ValueError, match="alpha"):
            friedman_holm(self._six_method_table(), alpha)
        with pytest.raises(ValueError, match="alpha"):
            fold_rank_summary(ExperimentResult({}, 5, 0, 1.0, 0, 0), alpha)

    def test_p_values_match_permutation_oracle(self):
        rng = np.random.default_rng(7)
        n_blocks, k = 40, 4
        offsets = np.array([0.0, 0.06, 0.10, 0.16])
        gm = rng.random((n_blocks, k)) * 0.3 + (0.5 - offsets)
        table = average_ranks(
            {f"m{i}": gm[:, i].tolist() for i in range(k)}
        )
        result = friedman_holm(table, alpha=0.05)
        control_pos = table.methods.index(result.control)

        ranks = table.ranks
        shuffles = 100_000
        chunk = 10_000
        exceed = {c.method: 0 for c in result.comparisons}
        observed = {
            c.method: abs(
                table.average_rank[c.method] - table.average_rank[result.control]
            )
            for c in result.comparisons
        }
        perm_rng = np.random.default_rng(999)
        done = 0
        while done < shuffles:
            m = min(chunk, shuffles - done)
            keys = perm_rng.random((m, n_blocks, k))
            perms = np.argsort(keys, axis=2)
            permuted = np.take_along_axis(
                np.broadcast_to(ranks, (m, n_blocks, k)), perms, axis=2
            )
            means = permuted.mean(axis=1)
            for c in result.comparisons:
                pos = table.methods.index(c.method)
                diffs = np.abs(means[:, pos] - means[:, control_pos])
                exceed[c.method] += int(np.sum(diffs >= observed[c.method] - 1e-12))
            done += m
        for c in result.comparisons:
            perm_p = exceed[c.method] / shuffles
            assert c.p_value == pytest.approx(perm_p, abs=0.02)


def small_problem(seed=0, n_features=6, n_instances=40):
    dag = build_dag(n_features, random_dag(n_features, n_features, seed))
    ds = generate_synthetic(dag, n_instances, 0.5, 0.15, seed)
    return ds, dag


class TestRunCv:
    def test_partition_each_instance_predicted_once(self):
        ds, dag = small_problem(seed=3, n_instances=60)
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), 10, seed=1)
        for res in result.methods.values():
            assert sum(c.tp + c.fp + c.tn + c.fn for c in res.fold_counts) == 60

    def test_deterministic(self):
        ds, dag = small_problem(seed=5)
        a = run_cv_experiment(ds, dag, list(ALL_METHODS), 5, seed=2)
        b = run_cv_experiment(ds, dag, list(ALL_METHODS), 5, seed=2)
        for m in a.methods:
            assert a.methods[m].fold_gmeans == b.methods[m].fold_gmeans
        ua, ub = a.methods[METHOD_HIE_TAN_LITE].usage, b.methods[METHOD_HIE_TAN_LITE].usage
        assert np.array_equal(ua.freq_of_selection, ub.freq_of_selection)
        assert np.array_equal(ua.freq_in_edges, ub.freq_in_edges)

    def test_tan_equals_hie_tan_on_two_features_no_hierarchy(self):
        # With two features and no hierarchy the two learners consume the
        # seed identically (one binary draw decides root/orientation), so the
        # paired runs must agree fold for fold.
        dag = build_dag(2, [])
        rng = np.random.default_rng(11)
        for trial in range(20):
            values = (rng.random((30, 2)) < 0.5).astype(np.uint8)
            labels = (rng.random(30) < 0.5).astype(np.uint8)
            if len(set(labels.tolist())) < 2:
                continue
            ds = Dataset(values, labels)
            seed = int(rng.integers(10_000))
            a = run_cv_experiment(ds, dag, [METHOD_TAN], 3, seed)
            b = run_cv_experiment(ds, dag, [METHOD_HIE_TAN], 3, seed)
            assert (
                a.methods[METHOD_TAN].fold_gmeans
                == b.methods[METHOD_HIE_TAN].fold_gmeans
            )

    def test_usage_only_for_lite(self):
        ds, dag = small_problem(seed=1)
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), 4, seed=0)
        assert result.methods[METHOD_TAN].usage is None
        assert result.methods[METHOD_HIE_TAN].usage is None
        usage = result.methods[METHOD_HIE_TAN_LITE].usage
        assert usage is not None
        assert int(usage.freq_of_selection.max()) <= ds.n_instances

    @pytest.mark.parametrize("k", [2, 5])
    def test_result_keeps_k_with_tiny_test_folds(self, k):
        # Five instances per class: at k = 5 every test fold has 2 rows, one
        # per class. Neither the fold count nor Holm depends on their number.
        dag = build_dag(6, [])
        values = (np.random.default_rng(2).random((10, 6)) < 0.5).astype(np.uint8)
        ds = Dataset(values, np.array([0, 1] * 5, dtype=np.uint8))
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), k, seed=0)
        assert result.k == k
        assert all(len(r.fold_counts) == k for r in result.methods.values())
        _, holm = fold_rank_summary(result)
        assert holm is not None

    def test_unknown_method(self):
        ds, dag = small_problem()
        with pytest.raises(ValueError):
            run_cv_experiment(ds, dag, ["mystery"], 3, seed=0)

    def test_a_string_is_not_a_list_of_methods(self):
        # A string is a sequence too: of one-letter "methods".
        ds, dag = small_problem()
        with pytest.raises(TypeError, match="a sequence of method names, not the string 'tan'"):
            run_cv_experiment(ds, dag, "tan", 3, 1)

    def test_fold_rank_summary(self):
        ds, dag = small_problem(seed=8, n_instances=50)
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), 5, seed=4)
        table, holm = fold_rank_summary(result)
        assert table is not None and holm is not None
        assert set(table.methods) == set(ALL_METHODS)
        assert len(holm.comparisons) == 2

    def test_trace_sink_receives_tagged_entries(self):
        ds, dag = small_problem(seed=2, n_instances=24)
        entries = []
        run_cv_experiment(
            ds, dag, [METHOD_HIE_TAN, METHOD_HIE_TAN_LITE], 3, seed=0,
            trace_sink=entries.append,
        )
        methods = {e["method"] for e in entries}
        assert methods == {METHOD_HIE_TAN, METHOD_HIE_TAN_LITE}
        assert all("decision" in e and "fold" in e for e in entries)
        lite = [e for e in entries if e["method"] == METHOD_HIE_TAN_LITE]
        assert all("instance" in e for e in lite)


def test_usage_counts_cover_surviving_features(canonical_dag):
    # The golden instance keeps exactly {A, B, E, F}; once it sits in some
    # test fold those four features must register selections.
    from golden import GOLDEN_INSTANCE, golden_dataset

    base = golden_dataset()
    values = np.vstack([base.values, np.array([GOLDEN_INSTANCE], dtype=np.uint8)])
    labels = np.append(base.labels, 0)
    ds = Dataset(values, labels, base.feature_names)
    # The golden rows break the propagation rule, and cv says so.
    with pytest.warns(UserWarning, match="propagation rule"):
        result = run_cv_experiment(ds, canonical_dag, [METHOD_HIE_TAN_LITE], 4, seed=0)
    usage = result.methods[METHOD_HIE_TAN_LITE].usage
    for f in (0, 1, 4, 5):  # A, B, E, F
        assert int(usage.freq_of_selection[f]) >= 1


@pytest.mark.parametrize("seed", range(6))
def test_lite_matches_per_instance_reference(seed):
    """Fold counts and usage of the fold-at-once lazy pass equal those of one
    fit and predict per instance with usage counted one by one."""
    ds, dag = small_problem(seed=seed, n_features=9, n_instances=48)
    smoothing = (0.0, 0.5, 1.0)[seed % 3]
    result = run_cv_experiment(ds, dag, [METHOD_HIE_TAN_LITE], 4, seed, smoothing)
    counts, selection, edges = lite_cv_reference(ds, dag, 4, seed, smoothing)
    lite = result.methods[METHOD_HIE_TAN_LITE]
    assert list(lite.fold_counts) == counts
    assert lite.usage.freq_of_selection.tolist() == selection.tolist()
    assert lite.usage.freq_in_edges.tolist() == edges.tolist()
    assert edges.sum() > 0


def test_a_new_method_is_one_table_entry(monkeypatch):
    """An entry of ``evaluate._METHODS`` is all a method needs to run in a CV
    experiment: an eager one is fit and scored once per fold, and a per-row
    one learns from each test row's values and reports its own usage."""
    ds, dag = small_problem(seed=6, n_features=8, n_instances=40)
    n, k, seed = ds.n_features, 4, 3
    rows_seen = []

    def no_edges(edges, dag, seed, values, trace):
        return [-1] * dag.n_features, None

    def ones_only(edges, dag, seed, values, trace):
        rows_seen.append(tuple(values))
        return [-1] * dag.n_features, [v == 1 for v in values]

    lite = run_cv_experiment(ds, dag, [METHOD_HIE_TAN_LITE], k, seed).methods[METHOD_HIE_TAN_LITE]
    monkeypatch.setattr(
        evaluate, "_METHODS", {**evaluate._METHODS, "nb": (no_edges, False), "ones": (ones_only, True)}
    )
    result = run_cv_experiment(ds, dag, ["nb", "ones", METHOD_HIE_TAN_LITE], k, seed)

    folds = stratified_folds(ds, k, seed)
    for fold in range(k):
        test_idx = folds.test_indices(fold)
        clf = fit(subset(ds, folds.train_indices(fold)), DependencyTree((None,) * n))
        predicted = predict_batch(clf, ds.values[test_idx])[0]
        want = confusion_from_predictions(ds.labels[test_idx], predicted)
        assert result.methods["nb"].fold_counts[fold] == want
    assert result.methods["nb"].usage is None
    ones = result.methods["ones"].usage
    assert ones.freq_of_selection.tolist() == ds.values.sum(axis=0).tolist()
    assert ones.freq_in_edges.tolist() == [0] * n
    assert sorted(rows_seen) == sorted(map(tuple, ds.values.tolist()))
    # The lazy method's counts are its own, not shared with another per-row one.
    mixed = result.methods[METHOD_HIE_TAN_LITE]
    assert mixed.fold_counts == lite.fold_counts
    assert mixed.usage.freq_of_selection.tolist() == lite.usage.freq_of_selection.tolist()
    assert mixed.usage.freq_in_edges.tolist() == lite.usage.freq_in_edges.tolist()


@pytest.mark.parametrize("case", range(3))
def test_per_row_is_the_lazy_learner_and_predict_per_row(case):
    """Row r of ``_per_row`` holds ``hie_mst_lite``'s tree, mask and trace at
    ``seeds[r]``, and its label and log posteriors are bit for bit those of
    ``predict(fit(train, tree_r, active_r, smoothing), X[r])``."""
    smoothing = (0.0, 0.5, 1.0)[case]
    ds, dag = small_problem(seed=10 + case, n_features=9, n_instances=48)
    train, X = subset(ds, np.arange(0, 48, 2)), ds.values[1::2]
    edges = mutual_info._ranked_pairs(train, dag, smoothing)
    seeds = [derive_seed(case, r) for r in range(len(X))]
    learn = evaluate._METHODS[METHOD_HIE_TAN_LITE][0]
    traces = [[] for _ in X]
    labels, log_post, parents, active = evaluate._per_row(
        learn, edges, dag, train, X, seeds, smoothing, lambda r: traces[r].append)
    untraced = evaluate._per_row(learn, edges, dag, train, X, seeds, smoothing, None)

    assert parents.shape == active.shape == X.shape
    assert log_post.base is None  # kept posteriors pin no (R, n + 1, 2) sums
    for r, x in enumerate(X):
        want_trace = []
        tree, kept = hie_mst_lite(edges, dag, x, ds.n_features, seeds[r], want_trace.append)
        assert parents[r].tolist() == [-1 if p is None else p for p in tree.parent_of]
        assert np.flatnonzero(active[r]).tolist() == sorted(kept)
        assert traces[r] == want_trace
        want = predict(fit(train, tree, kept, smoothing), x)
        assert int(labels[r]) == want.label
        assert log_post[r].tobytes() == np.array(want.log_posterior).tobytes()
    assert not active.all()
    for got, want in zip(untraced, (labels, log_post, parents, active)):
        assert got.tobytes() == want.tobytes()


def _no_ranking(*args, **kwargs):
    raise AssertionError("a fold was ranked")


@pytest.mark.parametrize("call", ["run_cv_experiment", "_train"])
@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 - 1])
def test_library_seeds_lie_in_the_cli_range(seed, call, monkeypatch):
    """A seed outside [0, 2**63) is a ``ValueError`` before any work, as the
    CLI's ``--seed`` rule has it; the largest seed in range runs."""
    ds, dag = small_problem(seed=1, n_features=6, n_instances=24)
    run = {
        "run_cv_experiment": lambda: run_cv_experiment(ds, dag, list(ALL_METHODS), 2, seed),
        "_train": lambda: _train(ds, dag, METHOD_HIE_TAN, seed, 1.0),
    }[call]
    if 0 <= seed < 2**63:
        run()
        return
    monkeypatch.setattr(evaluate, "_ranked_pairs", _no_ranking)
    with pytest.raises(ValueError, match=rf"seed must be an integer in \[0, 2\*\*63\), got {seed}"):
        run()


def test_a_class_with_fewer_rows_than_folds_fails_before_ranking(monkeypatch):
    """With 3 rows of class 1, some test fold of k > 3 would lack class 1:
    the run says so before it ranks a fold, not in ``gmean`` after all of
    them. At k = 3 every test fold holds both classes."""
    values = (np.random.default_rng(4).random((30, 5)) < 0.5).astype(np.uint8)
    labels = np.zeros(30, dtype=np.uint8)
    labels[[2, 11, 25]] = 1
    ds, dag = Dataset(values, labels), build_dag(5, [])
    result = run_cv_experiment(ds, dag, list(ALL_METHODS), 3, seed=0)
    assert all(len(r.fold_gmeans) == 3 for r in result.methods.values())
    monkeypatch.setattr(evaluate, "_ranked_pairs", _no_ranking)
    for k in (4, 10):
        with pytest.raises(TooFewInstances, match=f"class 1 has 3 instances, fewer than the {k} folds"):
            run_cv_experiment(ds, dag, list(ALL_METHODS), k, seed=0)


def violating_problem():
    """A hierarchy-consistent problem, and a copy whose first row breaks the
    propagation rule: a feature is 1 under an ancestor that is 0."""
    ds, dag = small_problem(seed=2, n_features=8, n_instances=40)
    values = ds.values.copy()
    f = next(f for f in range(8) if dag.closure_ancestors[dag.closure_features == f].size)
    a = int(dag.closure_ancestors[dag.closure_features == f][0])
    values[0, f], values[0, a] = 1, 0
    return ds, Dataset(values, ds.labels), dag


def test_propagation_warning_only_on_violating_data():
    consistent, violating, dag = violating_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_cv_experiment(consistent, dag, [METHOD_TAN], 4, seed=0)
    with pytest.warns(UserWarning, match="violates the hierarchy propagation rule"):
        run_cv_experiment(violating, dag, [METHOD_TAN], 4, seed=0)


def test_propagation_warning_stops_at_the_first_violating_block(monkeypatch):
    """One row a block: a violation in row 0 is found in the first block,
    and no other block is built, where ``validate_propagation`` reads all."""
    _, violating, dag = violating_problem()
    monkeypatch.setattr(dataset, "_VALIDATE_BLOCK", 1)
    blocks, violations = [], dataset._violations

    def counted(ds, dag):
        for block in violations(ds, dag):
            blocks.append(block)
            yield block

    monkeypatch.setattr(dataset, "_violations", counted)
    with pytest.warns(UserWarning, match="propagation rule"):
        run_cv_experiment(violating, dag, [METHOD_TAN], 4, seed=0)
    assert len(blocks) == 1 and blocks[0][0].size
    blocks.clear()
    assert dataset.validate_propagation(violating, dag)
    assert len(blocks) == violating.n_instances


def test_dimension_mismatch_raises_before_any_fold_is_ranked(monkeypatch):
    ds, _ = small_problem(seed=2, n_features=8, n_instances=40)
    monkeypatch.setattr(evaluate, "_ranked_pairs", _no_ranking)
    with pytest.raises(DimensionMismatch, match="dataset has 8 features, hierarchy has 7"):
        run_cv_experiment(ds, build_dag(7, []), [METHOD_TAN], 4, seed=0)


def test_derive_seed_is_stable():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(-5) == derive_seed(-5)


def test_usage_top_rejects_negative_count():
    usage = FeatureUsageReport(np.array([3, 1, 2]), np.array([0, 4, 0]))
    names = ["a", "b", "c"]
    assert usage.top("freq_of_selection", 2, names) == [("a", 3), ("c", 2)]
    with pytest.raises(ValueError):
        usage.top("freq_of_selection", -1, names)


@pytest.mark.parametrize("criterion", ["top", "freq", "__class__", ""])
def test_usage_top_rejects_unknown_criterion(criterion):
    usage = FeatureUsageReport(np.array([3, 1, 2]), np.array([0, 4, 0]))
    assert usage.top("freq_in_edges", 1, ["a", "b", "c"]) == [("b", 4)]
    with pytest.raises(ValueError, match="criterion"):
        usage.top(criterion, 3, ["a", "b", "c"])


def _cv_doc(result):
    return {
        m: (r.fold_counts, r.fold_gmeans, r.mean_gmean,
            None if r.usage is None else
            (r.usage.freq_of_selection.tolist(), r.usage.freq_in_edges.tolist()))
        for m, r in result.methods.items()
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cv_is_the_same_at_tiny_ranking_chunks(seed, monkeypatch):
    """Chunk boundaries of the fold's ranking change neither the results nor
    the trace."""
    ds, dag = small_problem(seed=seed, n_features=14, n_instances=40)

    def run():
        trace = []
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), 4, seed, 0.5,
                                   trace_sink=trace.append)
        return _cv_doc(result), trace

    want = run()
    monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: 1)
    got = run()
    assert got == want
    assert len(want[1]) > 0


def test_cv_and_train_skip_the_public_checks(monkeypatch):
    """The library's own callers run the learners' unchecked cores, as the
    pairs they rank are in range by construction: with the public learners'
    check made to raise, a CV run and ``_train`` give what they give
    without it."""
    ds, dag = small_problem(seed=4, n_features=12, n_instances=40)

    def run():
        result = run_cv_experiment(ds, dag, list(ALL_METHODS), 4, 4, 0.5)
        models = [_train(ds, dag, m, 4, 0.5) for m in (METHOD_TAN, METHOD_HIE_TAN)]
        return _cv_doc(result), [
            (clf.tree, clf.class_prior.tolist(), {f: t.tolist() for f, t in clf.cpts.items()})
            for clf in models
        ]

    want = run()

    def boom(*args, **kwargs):
        raise AssertionError("a public learner's check ran")

    monkeypatch.setattr(structure, "_check_inputs", boom)
    assert run() == want
