import numpy as np
import pytest

from hietan import mutual_info
from hietan.dataset import Dataset, generate_synthetic
from hietan.errors import (
    DegenerateRanks,
    IncompleteTable,
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
    average_ranks,
    confusion_from_predictions,
    derive_seed,
    fold_rank_summary,
    friedman_holm,
    gmean,
    run_cv_experiment,
)
from hietan.hierarchy import build_dag, random_dag

from oracles import lite_cv_reference


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
        # m3 is a mile behind, m2 barely behind: once the weaker comparison
        # fails, everything after it (in the step-down order) stays rejected.
        table = average_ranks(
            {
                "ctl": [0.90, 0.91, 0.92, 0.93],
                "m2": [0.89, 0.92, 0.91, 0.94],
                "m3": [0.10, 0.11, 0.12, 0.13],
            }
        )
        result = friedman_holm(table, alpha=0.05)
        by_name = {c.method: c for c in result.comparisons}
        assert result.control == "ctl"
        assert by_name["m3"].p_value < by_name["m2"].p_value

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
