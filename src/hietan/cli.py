"""Command-line entry point: validate / cv / train / predict / features / synth.

Exit codes: 0 success, 1 operational error (bad paths, bad usage, parse
failures), 2 validation findings. Every emitted report echoes the full
configuration, and all randomness flows from the single --seed flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bayes import load_model, predict_batch, save_model
from .dataset import (
    Dataset,
    _repaired,
    generate_synthetic_with_rule,
    load_dataset,
    load_instances,
    save_dataset,
    validate_propagation,
)
from .errors import HieTanError, WrongMethod
from .evaluate import (
    ALL_METHODS,
    _METHODS,
    FeatureUsageReport,
    _train,
    fold_rank_summary,
    run_cv_experiment,
)
from .hierarchy import (
    FeatureDag, build_dag, dag_from_edge_names, dag_from_file, random_dag, read_dag_file,
    write_dag_file,
)
from .mutual_info import check_smoothing

_METHOD_FLAGS = {m.replace("_", "-"): m for m in ALL_METHODS}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # validation findings, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value
    return parse


# check_smoothing raises ValueError for a float outside its rule.
_smoothing = _checked(lambda text: check_smoothing(float(text)), lambda v: True,
                      "a finite number >= 0")
_count = _checked(int, lambda v: v >= 0, "an integer >= 0")
_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_alpha = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_folds = _checked(int, lambda v: v >= 2, "an integer >= 2")
_seed = _checked(int, lambda v: 0 <= v < 2**63, "an integer in [0, 2**63)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hietan", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cv_flags=True):
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--dag", required=True, help="hierarchy TSV path")
        p.add_argument(
            "--method",
            default="all",
            choices=sorted(_METHOD_FLAGS) + ["all"],
        )
        if cv_flags:
            p.add_argument("--folds", type=_folds, default=10)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--smoothing", type=_smoothing, default=1.0)

    p_val = sub.add_parser("validate", help="check the hierarchy propagation rule")
    p_val.add_argument("--data", required=True)
    p_val.add_argument("--dag", required=True)
    p_val.add_argument("--repair", action="store_true",
                       help="write a repaired copy instead of reporting")
    p_val.add_argument("--out", help="output CSV for --repair "
                       "(default: <data>.repaired.csv)")

    p_cv = sub.add_parser("cv", help="cross-validated experiment")
    add_common(p_cv)
    p_cv.add_argument("--out", default="results.json")
    p_cv.add_argument("--alpha", type=_alpha, default=0.05)
    p_cv.add_argument("--trace", help="write a JSON-lines decision trace here")

    p_train = sub.add_parser("train", help="fit a model on the full dataset")
    add_common(p_train, cv_flags=False)
    p_train.add_argument("--model", required=True, help="output model JSON")

    p_pred = sub.add_parser("predict", help="classify instances with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", help="output CSV (default: stdout)")

    p_feat = sub.add_parser("features", help="feature usage report (lazy method)")
    add_common(p_feat)
    p_feat.add_argument("--top", type=_count, default=20)
    p_feat.add_argument("--out", help="also write the full report as JSON")

    p_synth = sub.add_parser("synth", help="generate a hierarchy-consistent dataset")
    p_synth.add_argument("--dag", help="existing hierarchy TSV to sample under")
    p_synth.add_argument("--random-features", type=_count,
                         help="generate a random hierarchy with this many features")
    p_synth.add_argument("--random-edges", type=_count,
                         help="edges of the random hierarchy (default 0)")
    p_synth.add_argument("--dag-out", help="where to write the random hierarchy")
    p_synth.add_argument("--instances", type=_count, default=100)
    p_synth.add_argument("--leaf-density", type=_fraction, default=0.3)
    p_synth.add_argument("--class-noise", type=_fraction, default=0.05)
    p_synth.add_argument("--seed", type=_seed, default=0)
    p_synth.add_argument("--out", required=True, help="output dataset CSV")
    return parser


def _load_inputs(args) -> tuple[Dataset, FeatureDag]:
    ds = load_dataset(args.data)
    dag = dag_from_file(args.dag, ds.feature_names)
    return ds, dag


def _flags(per_row: bool) -> list[str]:
    """The ``--method`` flags of the per-row methods, or of the eager ones."""
    return [f for f, m in _METHOD_FLAGS.items() if _METHODS[m][1] == per_row]


class WrongUsage(HieTanError):
    pass


def _config(args, **extra) -> dict:
    """The configuration echo shared by the cv and features reports."""
    return {
        "dataset": str(args.data),
        "dag": str(args.dag),
        "folds": args.folds,
        "seed": args.seed,
        "smoothing": args.smoothing,
        **extra,
    }


def _json_dump(payload: dict, path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_validate(args) -> int:
    ds, dag = _load_inputs(args)
    if args.repair:
        repaired, count = _repaired(ds, dag)
        # Written even with nothing to repair, so the copy always exists.
        out = args.out or f"{args.data}.repaired.csv"
        save_dataset(repaired, out)
        print(f"repaired {count} violation(s) -> {out}")
        return 0
    violations = validate_propagation(ds, dag)
    if not violations:
        print(f"{args.data}: consistent ({ds.n_instances} instances, "
              f"{ds.n_features} features)")
        return 0
    for row, f, a in violations:
        print(
            f"instance={row} feature={ds.feature_names[f]} "
            f"ancestor={ds.feature_names[a]}"
        )
    print(f"{len(violations)} violation(s) found", file=sys.stderr)
    return 2


def _usage_payload(usage: FeatureUsageReport, names) -> dict:
    return {
        "freq_of_selection": {
            names[f]: int(c) for f, c in enumerate(usage.freq_of_selection)
        },
        "freq_in_edges": {
            names[f]: int(c) for f, c in enumerate(usage.freq_in_edges)
        },
    }


def cmd_cv(args) -> int:
    ds, dag = _load_inputs(args)
    methods = list(ALL_METHODS) if args.method == "all" else [_METHOD_FLAGS[args.method]]

    with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as trace:
        sink = trace and (lambda e: trace.write(json.dumps(e, sort_keys=True) + "\n"))
        result = run_cv_experiment(
            ds, dag, methods, args.folds, args.seed,
            smoothing=args.smoothing, trace_sink=sink,
        )

    payload = {
        "config": _config(args, methods=methods, alpha=args.alpha),
        "library_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "n_instances": result.n_instances,
        "n_features": result.n_features,
        "methods": {},
    }
    for m, res in result.methods.items():
        payload["methods"][m] = {
            "folds": [
                {**asdict(c), "gmean": g} for c, g in zip(res.fold_counts, res.fold_gmeans)
            ],
            "mean_gmean": res.mean_gmean,
        }
        if res.usage is not None:
            payload["methods"][m]["feature_usage"] = _usage_payload(
                res.usage, ds.feature_names
            )

    table, holm = fold_rank_summary(result, args.alpha)
    if table is not None:
        payload["rank_table"] = {
            "blocks": "folds",
            "average_rank": table.average_rank,
            "wins": table.wins,
        }
    if holm is not None:
        payload["holm"] = {
            "control": holm.control,
            "friedman_statistic": holm.statistic,
            "friedman_p_value": holm.p_value,
            "comparisons": [asdict(c) for c in holm.comparisons],
        }

    _json_dump(payload, args.out)
    print(f"{'method':<14} {'mean GMean':>10}   per-fold")
    for m, res in result.methods.items():
        folds = " ".join(f"{g:.3f}" for g in res.fold_gmeans)
        print(f"{m:<14} {res.mean_gmean:>10.4f}   {folds}")
    print(f"results written to {args.out}")
    return 0


def cmd_train(args) -> int:
    method = args.method
    if method == "all":
        raise WrongUsage(f"train needs a single --method ({' or '.join(_flags(False))})")
    if method in _flags(True):
        raise WrongMethod(
            f"{method} is a lazy method: it learns one tree per test "
            "instance, so there is no single model to save (use cv/features)"
        )
    ds, dag = _load_inputs(args)
    clf = _train(ds, dag, _METHOD_FLAGS[method], args.seed, args.smoothing)
    save_model(clf, args.model)
    print(
        f"trained {method} on {ds.n_instances} instances "
        f"({len(clf.tree.edges())} tree edges) -> {args.model}"
    )
    return 0


def cmd_predict(args) -> int:
    clf = load_model(args.model)
    values = load_instances(args.data, clf.feature_names)
    labels, log_post = predict_batch(clf, values)
    lines = ["instance,label,log_posterior_0,log_posterior_1"]
    lines += [
        f"{idx},{label},{lp0!r},{lp1!r}"
        for idx, (label, (lp0, lp1)) in enumerate(zip(labels.tolist(), log_post.tolist()))
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"predictions written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_features(args) -> int:
    per_row = _flags(True)
    if args.method not in ("all", *per_row):
        raise WrongMethod(
            f"the features report is defined for {' or '.join(per_row)}, not {args.method}"
        )
    flag = per_row[0] if args.method == "all" else args.method
    ds, dag = _load_inputs(args)
    names = ds.feature_names
    method = _METHOD_FLAGS[flag]
    result = run_cv_experiment(ds, dag, [method], args.folds, args.seed, smoothing=args.smoothing)
    usage = result.methods[method].usage
    for criterion, title in (
        ("freq_of_selection", "Freq. of Selection"),
        ("freq_in_edges", "Freq. in Edges"),
    ):
        print(f"\n{title} (top {args.top})")
        for name, count in usage.top(criterion, args.top, names):
            print(f"  {name:<24} {count}")
    if args.out:
        payload = {
            "config": _config(args, method=flag),
            "library_version": __version__,
            "usage": _usage_payload(usage, names),
        }
        _json_dump(payload, args.out)
        print(f"\nreport written to {args.out}")
    return 0


def cmd_synth(args) -> int:
    if (args.dag is None) == (args.random_features is None):
        raise WrongUsage("give exactly one of --dag or --random-features")
    if args.dag is not None and (args.dag_out is not None or args.random_edges is not None):
        raise WrongUsage("--dag-out and --random-edges go with --random-features, not --dag")
    if args.dag is not None:
        pairs = read_dag_file(args.dag)
        names = list(dict.fromkeys(tok for pair in pairs for tok in pair))
        dag = dag_from_edge_names(pairs, names)
    else:
        n, edges = args.random_features, args.random_edges or 0
        pairs = n * (n - 1) // 2
        if edges > pairs:
            raise WrongUsage(f"--random-edges {edges} exceeds the {pairs} pairs of {n} features")
        names = [f"f{i}" for i in range(n)]
        dag = build_dag(n, random_dag(n, edges, args.seed))
    if dag.n_features < 2:
        raise WrongUsage(
            f"need at least two features to plant a label rule, got {dag.n_features}"
        )
    if args.dag_out:
        write_dag_file(args.dag_out, sorted(dag.edges), names)
        print(f"hierarchy written to {args.dag_out}")

    ds, rule = generate_synthetic_with_rule(
        dag, args.instances, args.leaf_density, args.class_noise, args.seed,
        feature_names=names,
    )
    save_dataset(ds, args.out)
    print(
        f"{ds.n_instances} instances x {ds.n_features} features -> {args.out}\n"
        f"planted rule: label = XOR({names[rule.feature_a]}, "
        f"{names[rule.feature_b]}), noise {args.class_noise}, seed {args.seed}"
    )
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "cv": cmd_cv,
    "train": cmd_train,
    "predict": cmd_predict,
    "features": cmd_features,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (HieTanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
