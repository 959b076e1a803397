import codecs
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hietan import __version__, dataset, learn_tan_structure, mutual_info
from hietan.bayes import fit, load_model, save_model
from hietan.cli import _build_parser, main
from hietan.dataset import (
    load_dataset,
    load_instances,
    repair_propagation,
    save_dataset,
    validate_propagation,
)
from hietan.evaluate import ALL_METHODS, derive_seed
from hietan.hierarchy import build_dag, dag_from_file, random_dag, write_dag_file
from hietan.mutual_info import rank_edges
from hietan.structure import hie_mst

from oracles import predict_reference

TINY_CSV = """A,B,C,D,E,F,class
1,1,1,1,1,1,0
0,1,0,0,0,1,1
"""

CANONICAL_TSV = "F\tB\nF\tC\nE\tC\nE\tA\nC\tD\nA\tD\n"

BROKEN_CSV = """A,B,C,D,E,F,class
0,0,1,1,0,0,1
"""


@pytest.fixture
def tiny_files(tmp_path):
    data = tmp_path / "data.csv"
    dag = tmp_path / "dag.tsv"
    data.write_text(TINY_CSV)
    dag.write_text(CANONICAL_TSV)
    return data, dag


def exit_code(argv):
    """``main``'s exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


@pytest.fixture
def synth_files(tmp_path):
    """A synthetic problem big enough for 3-fold CV."""
    data = tmp_path / "synth.csv"
    dag = tmp_path / "synth_dag.tsv"
    rc = main([
        "synth", "--random-features", "8", "--random-edges", "9",
        "--dag-out", str(dag), "--instances", "60", "--leaf-density", "0.5",
        "--class-noise", "0.1", "--seed", "5", "--out", str(data),
    ])
    assert rc == 0
    return data, dag


class TestValidate:
    def test_consistent(self, tiny_files, capsys):
        data, dag = tiny_files
        assert main(["validate", "--data", str(data), "--dag", str(dag)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_violations_exit_2(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        dag = tmp_path / "dag.tsv"
        data.write_text(BROKEN_CSV)  # D=1 with C=0 among others
        dag.write_text(CANONICAL_TSV)
        assert main(["validate", "--data", str(data), "--dag", str(dag)]) == 2
        out = capsys.readouterr().out
        assert "feature=D ancestor=C" in out or "feature=C" in out

    def test_missing_file_exit_1(self, tmp_path):
        assert main([
            "validate", "--data", str(tmp_path / "nope.csv"),
            "--dag", str(tmp_path / "nope.tsv"),
        ]) == 1

    def test_repair_writes_consistent_csv(self, tmp_path):
        data = tmp_path / "bad.csv"
        dag = tmp_path / "dag.tsv"
        out = tmp_path / "fixed.csv"
        data.write_text(BROKEN_CSV)
        dag.write_text(CANONICAL_TSV)
        assert main([
            "validate", "--data", str(data), "--dag", str(dag),
            "--repair", "--out", str(out),
        ]) == 0
        ds = load_dataset(out)
        assert validate_propagation(ds, dag_from_file(dag, ds.feature_names)) == []

    def test_repair_walks_the_violations_once(self, tmp_path, capsys, monkeypatch):
        """``--repair`` counts the violations from the ``_violations`` pass
        that repairs them: one pass, the count ``validate_propagation``
        gives, and the file ``repair_propagation`` gives."""
        data, dag = tmp_path / "bad.csv", tmp_path / "dag.tsv"
        out, want = tmp_path / "fixed.csv", tmp_path / "want.csv"
        data.write_text(BROKEN_CSV)
        dag.write_text(CANONICAL_TSV)
        ds = load_dataset(data)
        built = dag_from_file(dag, ds.feature_names)
        count = len(validate_propagation(ds, built))
        save_dataset(repair_propagation(ds, built), want)
        passes = []
        walk = dataset._violations
        monkeypatch.setattr(dataset, "_violations", lambda *args: passes.append(args) or walk(*args))
        assert main([
            "validate", "--data", str(data), "--dag", str(dag),
            "--repair", "--out", str(out),
        ]) == 0
        assert len(passes) == 1
        assert count == 5
        assert capsys.readouterr().out == f"repaired {count} violation(s) -> {out}\n"
        assert out.read_bytes() == want.read_bytes()

    def test_repair_of_consistent_data_writes_the_copy(self, tiny_files, tmp_path, capsys):
        """``--repair`` always writes its copy, so a pipeline that reads it
        next works whether or not anything needed repair."""
        data, dag = tiny_files
        out = tmp_path / "copy.csv"
        assert main([
            "validate", "--data", str(data), "--dag", str(dag),
            "--repair", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out == f"repaired 0 violation(s) -> {out}\n"
        assert out.read_text() == TINY_CSV

    @pytest.mark.parametrize("marked", ["data", "dag"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, capsys, marked):
        """A file that starts with a UTF-8 byte-order mark, as Windows editors
        and spreadsheet exports write it, validates as the same file without."""
        data, dag = tmp_path / "data.csv", tmp_path / "dag.tsv"
        reports = []
        for bom in (b"", b"\xef\xbb\xbf"):
            data.write_bytes((bom if marked == "data" else b"") + b"a,b,class\n0,1,0\n1,1,1\n")
            dag.write_bytes((bom if marked == "dag" else b"") + b"a\tb\n")
            assert main(["validate", "--data", str(data), "--dag", str(dag)]) == 2
            reports.append(capsys.readouterr())
        assert reports[1].out == reports[0].out == "instance=0 feature=b ancestor=a\n"
        assert reports[1].err == reports[0].err == "1 violation(s) found\n"


class TestCv:
    def test_all_methods_json_structure(self, synth_files, tmp_path):
        data, dag = synth_files
        out = tmp_path / "results.json"
        rc = main([
            "cv", "--data", str(data), "--dag", str(dag), "--method", "all",
            "--folds", "3", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["methods"]) == {"tan", "hie_tan", "hie_tan_lite"}
        assert doc["config"]["folds"] == 3
        assert "library_version" in doc
        assert "rank_table" in doc and "holm" in doc
        assert "feature_usage" in doc["methods"]["hie_tan_lite"]
        assert "jobs" not in doc["config"]
        for block in doc["methods"].values():
            assert len(block["folds"]) == 3

    @pytest.mark.parametrize("command", ["cv", "features"])
    def test_no_jobs_flag(self, synth_files, tmp_path, capsys, command):
        data, dag = synth_files
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(data), "--dag", str(dag), "--jobs", "2",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_byte_identical_without_timestamp(self, synth_files, tmp_path):
        data, dag = synth_files
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main([
                "cv", "--data", str(data), "--dag", str(dag),
                "--method", "hie-tan", "--folds", "3", "--seed", "9",
                "--out", str(out),
            ]) == 0
            doc = json.loads(out.read_text())
            del doc["generated_at"]
            outs.append(json.dumps(doc, indent=2, sort_keys=True))
        assert outs[0] == outs[1]

    def test_folds_below_two_is_usage_error(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        out = tmp_path / "x.json"
        assert exit_code([
            "cv", "--data", str(data), "--dag", str(dag),
            "--folds", "1", "--out", str(out),
        ]) == 1
        assert error_lines(capsys.readouterr().err) == [
            "hietan cv: error: argument --folds: must be an integer >= 2, got '1'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "nan", "0", "1", "-0.5"])
    def test_alpha_outside_open_unit_interval_is_usage_error(
        self, synth_files, tmp_path, capsys, value
    ):
        data, dag = synth_files
        out = tmp_path / "x.json"
        assert exit_code([
            "cv", "--data", str(data), "--dag", str(dag), "--folds", "3",
            "--alpha", value, "--out", str(out),
        ]) == 1
        assert error_lines(capsys.readouterr().err) == [
            f"hietan cv: error: argument --alpha: must be a number in (0, 1), got '{value}'"
        ]
        assert not out.exists()

    def test_trace_written(self, synth_files, tmp_path):
        data, dag = synth_files
        trace = tmp_path / "trace.jsonl"
        assert main([
            "cv", "--data", str(data), "--dag", str(dag), "--method",
            "hie-tan-lite", "--folds", "3", "--seed", "0",
            "--out", str(tmp_path / "r.json"), "--trace", str(trace),
        ]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines and all("decision" in e for e in lines)
        assert {e["method"] for e in lines} == {"hie_tan_lite"}

    def test_pinned_outputs(self, tmp_path, monkeypatch, capsys):
        """The trace and the report of one fixed problem, byte for byte: a
        change to the learners that moves any decision, its order or any
        count shows here. Paths are relative, as the report echoes them."""
        monkeypatch.chdir(tmp_path)
        assert main([
            "synth", "--random-features", "24", "--random-edges", "40",
            "--dag-out", "dag.tsv", "--instances", "120", "--leaf-density", "0.5",
            "--class-noise", "0.05", "--seed", "2", "--out", "synth.csv",
        ]) == 0
        assert main([
            "cv", "--data", "synth.csv", "--dag", "dag.tsv", "--method", "all",
            "--folds", "3", "--seed", "2", "--out", "results.json",
            "--trace", "trace.jsonl",
        ]) == 0
        doc = json.loads(Path("results.json").read_text())
        del doc["generated_at"]
        report = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        assert hashlib.sha256(Path("trace.jsonl").read_bytes()).hexdigest() == (
            "7cd84ec77da90ae4fb6934c95469ba6cc671df0fca821e9fddf7e41f98aec8c3"
        )
        assert hashlib.sha256(report).hexdigest() == (
            "fece7d98a6cb92c969a0f74d831dea3972a7649324083d7234272ea76ba27cf9"
        )

    def test_pinned_files(self, tmp_path, monkeypatch, capsys):
        """On ``test_pinned_outputs``' problem, the bytes of the ``synth``
        files, the ``tan`` and ``hie-tan`` model files, the ``features``
        report and the labels ``predict`` gives. The log posteriors are left
        out: they go through the platform's ``math.log``."""
        monkeypatch.chdir(tmp_path)
        assert main([
            "synth", "--random-features", "24", "--random-edges", "40",
            "--dag-out", "dag.tsv", "--instances", "120", "--leaf-density", "0.5",
            "--class-noise", "0.05", "--seed", "2", "--out", "synth.csv",
        ]) == 0
        common = ["--data", "synth.csv", "--dag", "dag.tsv", "--seed", "2"]
        for method in ("tan", "hie-tan"):
            assert main(["train", *common, "--method", method, "--model", f"{method}.json"]) == 0
        assert main(["features", *common, "--folds", "3", "--out", "features.json"]) == 0
        assert main(["predict", "--model", "hie-tan.json", "--data", "synth.csv",
                     "--out", "preds.csv"]) == 0
        labels = "".join(line.split(",")[1] + "\n"
                         for line in Path("preds.csv").read_text().splitlines())
        digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                   for name in ("synth.csv", "dag.tsv", "tan.json", "hie-tan.json",
                                "features.json")}
        digests["labels"] = hashlib.sha256(labels.encode()).hexdigest()
        assert digests == {
            "synth.csv": "33b1f64bba6a18f3461694ea25d33df8c35ce693e0fa00c7e45c160f7396b195",
            "dag.tsv": "6e268910ceb6fd72a6c038f2fca6a31d07fcb7880b39c83de84b3e425b5d769f",
            "tan.json": "da2ff2db3991dfcf25f1775a0f5fff53b39e25f670df37e58723a6f52b97c92e",
            "hie-tan.json": "d19a2e389d35bdd4d7f50c3dc9330ec22476763384f7a70e879b6e67edea51c2",
            "features.json": "51d88bfbf9049946e17741e0ec36052e2bd80f521dea41661da837a296b23765",
            "labels": "3e3a2d0d59568d20b9e4305ec193869e3c43d8aedca6fed9f3cd5ef4ce61aa97",
        }


class TestNonUtf8Input:
    @pytest.mark.parametrize("command, flag", [
        ("cv", "--data"), ("cv", "--dag"), ("validate", "--data"), ("validate", "--dag"),
        ("train", "--data"), ("train", "--dag"), ("predict", "--data"),
    ])
    def test_exits_1_with_error(self, synth_files, tmp_path, capsys, command, flag):
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--dag", str(dag),
                     "--method", "hie-tan", "--model", str(model)]) == 0
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00")
        files = {"--data": str(data), "--dag": str(dag), flag: str(bad)}
        argv = {
            "cv": ["cv", "--folds", "3", "--out", str(tmp_path / "r.json"),
                   "--dag", files["--dag"]],
            "validate": ["validate", "--dag", files["--dag"]],
            "train": ["train", "--method", "hie-tan", "--model", str(tmp_path / "m.json"),
                      "--dag", files["--dag"]],
            "predict": ["predict", "--model", str(model)],
        }[command] + ["--data", files["--data"]]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad}:1: not UTF-8 text" in err


class TestTrainPredict:
    @pytest.mark.parametrize("first_chunk", [None, 1])
    @pytest.mark.parametrize("method", ["tan", "hie-tan"])
    def test_train_model_matches_full_ranking(self, tmp_path, capsys, monkeypatch,
                                              method, first_chunk):
        # train reads the ranking chunk by chunk; its model must be the one
        # the full rank_edges list gives, byte for byte.
        data, dag_path = tmp_path / "d.csv", tmp_path / "h.tsv"
        assert main([
            "synth", "--random-features", "30", "--random-edges", "40",
            "--dag-out", str(dag_path), "--instances", "80", "--seed", "3",
            "--out", str(data),
        ]) == 0
        if first_chunk is not None:
            monkeypatch.setattr(mutual_info, "_first_chunk", lambda n: first_chunk)
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag_path), "--method", method,
            "--seed", "4", "--smoothing", "0.5", "--model", str(model),
        ]) == 0
        ds = load_dataset(data)
        dag = dag_from_file(dag_path, ds.feature_names)
        edges = rank_edges(ds, dag, 0.5)
        seed = derive_seed(4, 0)
        if method == "tan":
            tree = learn_tan_structure(edges, ds.n_features, seed)
        else:
            tree = hie_mst(edges, dag, ds.n_features, seed)
        want = tmp_path / "want.json"
        save_model(fit(ds, tree, None, 0.5), want)
        assert len(tree.edges()) > 1
        assert model.read_bytes() == want.read_bytes()

    def test_train_then_predict(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan", "--model", str(model),
        ]) == 0
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(model), "--data", str(data),
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        ds = load_dataset(data)
        assert len(lines) == ds.n_instances + 1
        assert lines[0].startswith("instance,label")

    def test_predict_reads_a_model_with_a_byte_order_mark(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        model, marked = tmp_path / "model.json", tmp_path / "marked.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan", "--model", str(model),
        ]) == 0
        marked.write_bytes(codecs.BOM_UTF8 + model.read_bytes())
        outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
        for path, out in zip((model, marked), outs):
            assert main(["predict", "--model", str(path), "--data", str(data),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_predict_out_matches_per_row_reference(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan", "--model", str(model),
        ]) == 0
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        clf = load_model(model)
        lines = ["instance,label,log_posterior_0,log_posterior_1"]
        for idx, row in enumerate(load_instances(data, clf.feature_names)):
            pred = predict_reference(clf, row)
            lines.append(
                f"{idx},{pred.label},{pred.log_posterior[0]!r},{pred.log_posterior[1]!r}"
            )
        assert len(lines) == 61
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_train_has_no_cv_flags(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        for flag in ("--folds", "--jobs"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "train", "--data", str(data), "--dag", str(dag),
                    "--method", "hie-tan", "--model", str(tmp_path / "m.json"),
                    flag, "1",
                ])
            assert exc.value.code == 1
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, row",
        [
            ("f0,f1,f2,f3,f4,f5,f6,f7", "0,1,2,0,1,0,1,0"),  # non-binary token
            ("f0,f1,f2,f3,f4,f5,f6,f7", "0,1,0,1"),  # short row
            ("f7,f1,f2,f3,f4,f5,f6,f0,class", "0,1,0,1,0,1,0,1,0"),  # other header
        ],
        ids=["bad-token", "short-row", "header-mismatch"],
    )
    def test_predict_rejects_bad_input(self, synth_files, tmp_path, capsys, header, row):
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan", "--model", str(model),
        ]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{row}\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_predict_unlabelled_matches_labelled(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan", "--model", str(model),
        ]) == 0
        lines = data.read_text().splitlines()
        unlabelled = tmp_path / "unlabelled.csv"
        unlabelled.write_text(
            "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
        )
        outs = []
        for path in (data, unlabelled):
            out = tmp_path / f"{path.stem}.preds.csv"
            assert main(["predict", "--model", str(model), "--data", str(path),
                         "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == len(lines)

    def test_train_lite_rejected(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        rc = main([
            "train", "--data", str(data), "--dag", str(dag),
            "--method", "hie-tan-lite", "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: hie-tan-lite is a lazy method: it learns one tree per test "
            "instance, so there is no single model to save (use cv/features)\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_train_all_rejected_before_reading(self, tmp_path, capsys):
        # Neither input exists: the refusal comes before any file is read.
        rc = main([
            "train", "--data", str(tmp_path / "no.csv"), "--dag", str(tmp_path / "no.tsv"),
            "--model", str(tmp_path / "m.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: train needs a single --method (tan or hie-tan)\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "x"}\n',
            "not a model\n",
            '{"format": "hietan-model", "feature_names": [], "tree": [],'
            ' "class_prior": [0.5, 0.5], "cpts": []}\n',
        ],
        ids=["foreign-format", "not-json", "cpts-list"],
    )
    def test_predict_rejects_malformed_model(self, synth_files, tmp_path, capsys, text):
        data, _ = synth_files
        model = tmp_path / "model.json"
        model.write_text(text)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_predict_reports_a_parent_out_of_range(self, synth_files, tmp_path, capsys):
        # Feature 0's parent is in range, and its own parent is not.
        data, dag = synth_files
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--dag", str(dag),
                     "--method", "hie-tan", "--model", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["tree"] = [1, 5, None]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: malformed hietan model: ValueError('parent index 5 outside [0, 3)')\n"
        )
        assert captured.out == ""

    def test_python_m_matches_main(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run_module(*args):
            return subprocess.run([sys.executable, "-m", "hietan", *args], env=env,
                                  capture_output=True, check=True, timeout=120).stdout

        models = []
        for name in ("main", "module"):
            model = tmp_path / f"{name}.json"
            train = ["train", "--data", str(data), "--dag", str(dag),
                     "--method", "hie-tan", "--model", str(model)]
            if name == "main":
                assert main(train) == 0
            else:
                run_module(*train)
            models.append(model.read_bytes())
        assert models[0] == models[1]
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "main.json"), "--data", str(data)]) == 0
        from_main = capsys.readouterr().out.encode()
        from_module = run_module("predict", "--model", str(tmp_path / "module.json"),
                                 "--data", str(data))
        assert from_module == from_main
        assert len(from_main.splitlines()) == 61  # header + 60 instances


class TestMethodFlag:
    def test_choices_are_the_methods_hyphenated_plus_all(self):
        want = sorted(m.replace("_", "-") for m in ALL_METHODS) + ["all"]
        commands = _build_parser()._subparsers._group_actions[0].choices
        seen = set()
        for name, sub in commands.items():
            for action in sub._actions:
                if action.dest == "method":
                    assert action.choices == want, name
                    seen.add(name)
        assert seen == {"cv", "train", "features"}


class TestTooFewFeatures:
    @pytest.mark.parametrize("header, row", [("class", "{y}"), ("A,class", "{x},{y}")],
                             ids=["no-feature", "one-feature"])
    @pytest.mark.parametrize("command", ["cv", "train", "features"])
    def test_fewer_than_two_features_is_an_error(self, tmp_path, capsys, command,
                                                 header, row):
        data, dag = tmp_path / "d.csv", tmp_path / "h.tsv"
        rows = [row.format(x=int(i % 3 == 0), y=i % 2) for i in range(6)]
        data.write_text("\n".join([header] + rows) + "\n")
        dag.write_text("")
        extra = {
            "cv": ["--folds", "2", "--out", str(tmp_path / "r.json")],
            "train": ["--method", "tan", "--model", str(tmp_path / "m.json")],
            "features": ["--folds", "2"],
        }[command]
        rc = main([command, "--data", str(data), "--dag", str(dag)] + extra)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need at least two features to rank edges\n"
        assert captured.out == ""


@pytest.mark.parametrize("command", ["cv", "features"])
def test_a_class_with_fewer_rows_than_folds_is_an_error(tmp_path, capsys, command):
    """Two rows of class 1 cannot reach three test folds: the run stops
    before it learns a fold, with one line that names the class."""
    data, dag, out = tmp_path / "d.csv", tmp_path / "h.tsv", tmp_path / "out.json"
    rows = [f"{i % 2},{i // 2 % 2},{int(i >= 58)}" for i in range(60)]
    data.write_text("\n".join(["A,B,class"] + rows) + "\n")
    dag.write_text("")
    rc = main([command, "--data", str(data), "--dag", str(dag), "--folds", "3",
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: class 1 has 2 instances, fewer than the 3 folds: "
        "some test fold would not hold it\n"
    )
    assert captured.out == ""
    assert not out.exists()


class TestFeatures:
    def test_report_lists_features(self, synth_files, tmp_path, capsys):
        data, dag = synth_files
        rc = main([
            "features", "--data", str(data), "--dag", str(dag),
            "--folds", "3", "--seed", "2", "--top", "3",
            "--out", str(tmp_path / "usage.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Freq. of Selection" in out and "Freq. in Edges" in out
        doc = json.loads((tmp_path / "usage.json").read_text())
        assert set(doc["usage"]) == {"freq_of_selection", "freq_in_edges"}

    def test_top_limits_rows(self, synth_files, capsys):
        data, dag = synth_files
        assert main([
            "features", "--data", str(data), "--dag", str(dag),
            "--folds", "3", "--top", "3",
        ]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("  ")]
        assert len(rows) == 6  # 3 per criterion

    def test_negative_top_is_usage_error(self, synth_files, capsys):
        data, dag = synth_files
        assert exit_code([
            "features", "--data", str(data), "--dag", str(dag),
            "--folds", "3", "--top", "-1",
        ]) == 1
        captured = capsys.readouterr()
        assert error_lines(captured.err) == [
            "hietan features: error: argument --top: must be an integer >= 0, got '-1'"
        ]
        assert "Freq." not in captured.out

    def test_wrong_method(self, synth_files):
        data, dag = synth_files
        assert main([
            "features", "--data", str(data), "--dag", str(dag),
            "--method", "tan",
        ]) == 1

    def test_empty_dataset_empty_report(self, tmp_path, capsys):
        # A header-only file has no instances to split into folds: features
        # fails as cv does and prints no report, not even an empty one.
        data = tmp_path / "empty.csv"
        dag = tmp_path / "dag.tsv"
        data.write_text("A,B,class\n")
        dag.write_text("A\tB\n")
        for command in ("cv", "features"):
            assert main([command, "--data", str(data), "--dag", str(dag)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: cannot split 0 instances into 10 folds\n"
            assert captured.out == ""

    def test_empty_dataset_report_is_written(self, tmp_path, capsys):
        # With --out, the failure on a header-only file writes no report file.
        data = tmp_path / "empty.csv"
        dag = tmp_path / "dag.tsv"
        data.write_text("a,b,class\n")
        dag.write_text("a\tb\n")
        out = tmp_path / "r.json"
        for command in ("cv", "features"):
            assert main([command, "--data", str(data), "--dag", str(dag),
                         "--folds", "3", "--seed", "5", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: cannot split 0 instances into 3 folds\n"
            assert captured.out == ""
            assert not out.exists()


class TestSynth:
    def test_output_is_hierarchy_consistent(self, synth_files):
        data, dag = synth_files
        ds = load_dataset(data)
        built = dag_from_file(dag, ds.feature_names)
        assert validate_propagation(ds, built) == []

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--instances", "-5"),
        ("--leaf-density", "2"),
        ("--class-noise", "1.5"),
        ("--class-noise", "nan"),
        ("--random-features", "0"),
        ("--random-features", "1"),
        ("--random-features", "-3"),
        ("--random-edges", "-2"),
        ("--random-edges", "11"),
    ])
    def test_bad_number_is_usage_error(self, tmp_path, capsys, flag, value):
        out, dag_out = tmp_path / "x.csv", tmp_path / "x.tsv"
        # A repeated flag takes its last value, so this also covers --random-features.
        assert exit_code([
            "synth", "--out", str(out), "--dag-out", str(dag_out),
            "--random-features", "5", flag, value,
        ]) == 1
        (line,) = error_lines(capsys.readouterr().err)
        assert line.startswith(("error:", "hietan synth: error:"))
        assert not out.exists() and not dag_out.exists()

    @pytest.mark.parametrize("extra", [["--dag-out", "copy.tsv"], ["--random-edges", "3"]])
    def test_dag_rejects_random_hierarchy_flags(self, tmp_path, capsys, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        Path("dag.tsv").write_text(CANONICAL_TSV)
        assert main(["synth", "--dag", "dag.tsv", *extra, "--out", "x.csv"]) == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: --dag-out and --random-edges go with --random-features, not --dag"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dag.tsv"]

    def test_random_features_write_dag_out(self, synth_files, tmp_path):
        _, dag = synth_files
        want = tmp_path / "want.tsv"
        built = build_dag(8, random_dag(8, 9, 5))
        write_dag_file(want, sorted(built.edges), [f"f{i}" for i in range(8)])
        assert dag.read_bytes() == want.read_bytes()
        assert dag.read_bytes().startswith(b"f")

    def test_dag_with_fewer_than_two_features_is_usage_error(self, tmp_path, capsys):
        dag = tmp_path / "empty.tsv"
        dag.write_text("")
        out = tmp_path / "x.csv"
        assert main(["synth", "--dag", str(dag), "--out", str(out)]) == 1
        assert error_lines(capsys.readouterr().err) == [
            "error: need at least two features to plant a label rule, got 0"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["a,b\tc\n", "a\tb,c\n", "# x\na\t,b\n"], ids=repr)
    def test_dag_names_the_dataset_cannot_hold_are_an_error(self, tmp_path, capsys, text):
        """A hierarchy token with a comma names a feature that no dataset
        header can hold, so ``synth`` refuses it and writes nothing."""
        dag = tmp_path / "h.tsv"
        dag.write_text(text)
        out = tmp_path / "d.csv"
        assert main(["synth", "--dag", str(dag), "--instances", "20", "--seed", "1",
                     "--out", str(out)]) == 1
        assert len(error_lines(capsys.readouterr().err)) == 1
        assert not out.exists()

    def test_dag_file_names_features_in_first_seen_order(self, tmp_path):
        dag = tmp_path / "dag.tsv"
        # Unsorted tokens, each repeated, plus a duplicate edge and a comment.
        dag.write_text("zeta\talpha\n# comment\nmu\talpha\nzeta\tmu\nbeta\tzeta\nzeta\tmu\n")
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([
                "synth", "--dag", str(dag), "--instances", "40",
                "--leaf-density", "0.5", "--seed", "4", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        ds = load_dataset(tmp_path / "a.csv")
        assert ds.feature_names == ("zeta", "alpha", "mu", "beta")
        built = dag_from_file(dag, ds.feature_names)
        assert built.edges == {(0, 1), (2, 1), (0, 2), (3, 0)}
        assert validate_propagation(ds, built) == []
        assert ds.values.any() and not ds.values.all()

    def test_deterministic(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([
                "synth", "--random-features", "5", "--random-edges", "4",
                "--instances", "20", "--seed", "3", "--out", str(out),
            ]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


def test_tiny_smoothing_runs(tmp_path):
    # A and B are 0 in every class-0 row. Smoothing 1e-200 used to underflow
    # the float probabilities of the ranking; the exact scores have no such
    # limit, so cv runs.
    data = tmp_path / "data.csv"
    dag = tmp_path / "dag.tsv"
    data.write_text("A,B,class\n" + "0,0,0\n" * 12 + "1,0,1\n1,1,1\n0,1,1\n" * 4)
    dag.write_text("")
    out = tmp_path / "out.json"
    assert main(["cv", "--data", str(data), "--dag", str(dag), "--folds", "3",
                 "--smoothing", "1e-200", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e400"])
def test_bad_smoothing_is_usage_error(synth_files, tmp_path, capsys, command, value):
    data, dag = synth_files
    out = tmp_path / "out.json"
    extra = {"cv": ["--folds", "3", "--out"], "train": ["--model"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(data), "--dag", str(dag),
              "--method", "hie-tan", "--smoothing", value, *extra, str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument --smoothing: must be a finite number >= 0, got {value!r}\n" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "train", "features", "synth"])
@pytest.mark.parametrize("value", ["-1", str(2**63)])
def test_seed_outside_range_is_usage_error(synth_files, tmp_path, capsys, command, value):
    data, dag = synth_files
    out = tmp_path / "out"
    argv = {
        "cv": ["--data", str(data), "--dag", str(dag), "--folds", "3", "--out", str(out)],
        "train": ["--data", str(data), "--dag", str(dag), "--method", "tan",
                  "--model", str(out)],
        "features": ["--data", str(data), "--dag", str(dag), "--folds", "3",
                     "--out", str(out)],
        "synth": ["--random-features", "5", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert exit_code([command, *argv, "--seed", value]) == 1
    captured = capsys.readouterr()
    assert error_lines(captured.err) == [
        f"hietan {command}: error: argument --seed: "
        f"must be an integer in [0, 2**63), got '{value}'"
    ]
    assert captured.out == ""
    assert not out.exists()
