import argparse
import json
import os

import numpy as np
import pytest

from ssnmf import cli, matrix
from ssnmf.rng import substream
from ssnmf.synth import gen_separable


def write_matrix(path, a):
    matrix.write_csv(path, np.asarray(a, dtype=float))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def tree_bytes(root):
    """Map of relative path to file bytes for a whole output directory."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


@pytest.fixture
def fit_inputs(tmp_path):
    gen = substream(3, "cli-fit")
    x = gen.random((6, 9))
    y = np.zeros((2, 9))
    y[0, :5] = 1.0
    y[1, 5:] = 1.0
    return {
        "x": write_matrix(tmp_path / "x.csv", x),
        "y": write_matrix(tmp_path / "y.csv", y),
        "dir": tmp_path,
    }


# ----------------------------------------------------------------- exit codes

def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_no_arguments_exits_two(capsys):
    assert cli.main([]) == 2


def test_missing_matrix_file_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = cli.main(["fit", "--x", missing, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert missing in capsys.readouterr().err


def test_fit_without_x_exits_two(tmp_path, capsys):
    assert cli.main(["fit", "--out-dir", str(tmp_path)]) == 2
    assert "--x" in capsys.readouterr().err


def test_invalid_experiment_exits_two(tmp_path, capsys):
    assert cli.main(["synth-bench", "--experiment", "9",
                     "--out-dir", str(tmp_path)]) == 2
    assert cli.main(["synth-bench", "--experiment", "abc",
                     "--out-dir", str(tmp_path)]) == 2


def test_negative_data_exits_two(tmp_path, capsys):
    bad = write_matrix(tmp_path / "bad.csv", [[1.0, -2.0]])
    assert cli.main(["fit", "--x", bad, "--out-dir", str(tmp_path / "o")]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_fractional_mask_exits_two(tmp_path, fit_inputs, capsys):
    w = np.ones((6, 9))
    w[0, 2] = 0.0
    mask = write_matrix(tmp_path / "w.csv", w)
    assert cli.main(["fit", "--x", fit_inputs["x"], "--w", mask, "--r", "2",
                     "--max-iters", "3", "--out-dir", str(tmp_path / "o")]) == 0
    w[1, 1] = 0.5
    mask = write_matrix(tmp_path / "w.csv", w)
    assert cli.main(["fit", "--x", fit_inputs["x"], "--w", mask, "--r", "2",
                     "--max-iters", "3", "--out-dir", str(tmp_path / "o")]) == 2
    assert "0/1 mask" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_data_exits_two(tmp_path, bad, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(f"1.0,2.0\n{bad},3.0\n")
    assert cli.main(["fit", "--x", str(path), "--r", "1",
                     "--out-dir", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


def test_overflowing_fit_exits_one(tmp_path, capsys):
    # squared residual of 1e200 entries overflows, which is a fit failure (1),
    # not a usage failure (2)
    huge = write_matrix(tmp_path / "huge.csv", np.full((4, 5), 1e200))
    code = cli.main(["fit", "--x", huge, "--r", "2", "--max-iters", "3",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 1


# --------------------------------------------------------------------- config

def test_unknown_config_key_exits_two(tmp_path, fit_inputs, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 2, "bogus_knob": 1}))
    code = cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path, fit_inputs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    assert cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2

    cfg.write_text("{not json")
    assert cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value,message", [(2.7, "r must be an integer"),
                                           (True, "r must be an integer"),
                                           ("2", "r must be an integer"),
                                           (None, "may not be null: r")])
def test_config_integer_option_must_be_integral(tmp_path, fit_inputs, value, message,
                                                capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": value}))
    assert cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    cfg.write_text(json.dumps({"r": 2.0, "max_iters": 2}))
    assert cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command,key,value,message", [
    ("fit", "x", 0, "x must be a string"),  # fd 0: the parent read stdin
    ("fit", "tol", [1], "tol must be a number"),
    ("fit", "out_dir", 7, "out_dir must be a string"),
    ("fit", "lam", True, "lam must be a number"),
    ("classify", "grid", "false", "grid must be true or false"),
    ("synth-bench", "experiment", 2, "experiment must be one of 1, 2, 3, 4, all"),
    ("cluster-score", "mode", "fuzzy", "mode must be one of hard, soft, both"),
])
def test_config_value_of_wrong_type_exits_two(tmp_path, command, key, value, message,
                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _subcommand_flags():
    """Subcommand name -> the option flags its parser accepts, apart from the
    ones that are not options of the run."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    skip = {"--config", "--no-timestamp", "--help", "-h"}
    return {name: {flag for action in sub._actions for flag in action.option_strings} - skip
            for name, sub in subs.choices.items()}


def test_flags_and_config_keys_agree(tmp_path, capsys):
    flags = _subcommand_flags()
    candidates = set().union(*flags.values())
    for command, accepted_flags in flags.items():
        accepted = set()
        for flag in sorted(candidates):
            cfg = tmp_path / "cfg.json"
            # an object is the wrong type for every option, so nothing runs
            cfg.write_text(json.dumps({flag[2:].replace("-", "_"): {}}))
            assert cli.main([command, "--config", str(cfg),
                             "--out-dir", str(tmp_path / "out")]) == 2
            if "unknown config fields" not in capsys.readouterr().err:
                accepted.add(flag)
        assert accepted == accepted_flags, command
    assert "--seed" not in flags["topics"] | flags["cluster-score"]


@pytest.mark.parametrize("argv,message", [
    (["fit", "--eps", "nan"], "eps must be finite"),
    (["fit", "--eps", "inf"], "eps must be finite"),
    (["fit", "--tol", "nan"], "tol must be finite"),
    (["fit", "--lam", "nan"], "lam must be finite"),
    (["synth-bench", "--eps", "-1"], "eps must be finite and positive"),
    (["synth-bench", "--n1", "0"], "n1 must be finite and >= 1"),
])
def test_non_finite_or_out_of_range_option_exits_two(tmp_path, fit_inputs, argv, message,
                                                     capsys):
    if argv[0] == "fit":
        argv = argv + ["--x", fit_inputs["x"], "--r", "2", "--max-iters", "3"]
    else:
        argv = argv + ["--experiment", "1", "--n2", "6", "--k", "4", "--r", "2",
                       "--max-iters", "3", "--trials", "1"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_supplies_values(tmp_path, fit_inputs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 3, "max_iters": 4}))
    out = tmp_path / "out"
    assert cli.main(["fit", "--x", fit_inputs["x"], "--y", fit_inputs["y"],
                     "--config", str(cfg), "--out-dir", str(out),
                     "--no-timestamp"]) == 0
    a = matrix.read_csv(out / "A.csv")
    assert a.shape == (6, 3)
    assert read_json(out / "result.json")["iterations_run"] == 4


def test_flag_overrides_config(tmp_path, fit_inputs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 3}))
    out = tmp_path / "out"
    assert cli.main(["fit", "--x", fit_inputs["x"], "--config", str(cfg),
                     "--r", "2", "--max-iters", "3",
                     "--out-dir", str(out)]) == 0
    assert matrix.read_csv(out / "A.csv").shape == (6, 2)


# ------------------------------------------------------------------------ fit

def test_fit_writes_factors_and_report(tmp_path, fit_inputs):
    out = tmp_path / "out"
    code = cli.main(["fit", "--x", fit_inputs["x"], "--y", fit_inputs["y"],
                     "--variant", "fro-div", "--r", "2", "--max-iters", "20",
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    assert matrix.read_csv(out / "A.csv").shape == (6, 2)
    assert matrix.read_csv(out / "B.csv").shape == (2, 2)
    assert matrix.read_csv(out / "S.csv").shape == (2, 9)
    report = read_json(out / "result.json")
    assert report["variant"] == "fro-div"
    assert report["iterations_run"] == 20
    assert report["relative_error"] <= 1.0
    assert "timestamp" not in report


def test_fit_without_labels_is_unsupervised(tmp_path, fit_inputs):
    out = tmp_path / "out"
    assert cli.main(["fit", "--x", fit_inputs["x"], "--r", "2",
                     "--max-iters", "10", "--out-dir", str(out),
                     "--no-timestamp"]) == 0
    # label block is an all-zero placeholder with an all-zero mask
    assert matrix.read_csv(out / "B.csv").shape == (1, 2)


def test_fit_tol_stops_early(tmp_path, fit_inputs):
    out = tmp_path / "out"
    assert cli.main(["fit", "--x", fit_inputs["x"], "--r", "4",
                     "--max-iters", "500", "--tol", "0.2",
                     "--out-dir", str(out), "--no-timestamp"]) == 0
    report = read_json(out / "result.json")
    assert report["iterations_run"] < 500
    assert report["relative_error"] < 0.2


def test_fit_rerun_is_byte_identical(tmp_path, fit_inputs):
    args = ["fit", "--x", fit_inputs["x"], "--y", fit_inputs["y"],
            "--r", "2", "--max-iters", "15", "--no-timestamp"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    first, second = tree_bytes(out1), tree_bytes(out2)
    assert set(first) == {"A.csv", "B.csv", "S.csv", "result.json"}
    assert first == second


def test_fit_timestamp_present_by_default(tmp_path, fit_inputs):
    out = tmp_path / "out"
    assert cli.main(["fit", "--x", fit_inputs["x"], "--r", "2",
                     "--max-iters", "3", "--out-dir", str(out)]) == 0
    assert "timestamp" in read_json(out / "result.json")


# ------------------------------------------------------------------- classify

@pytest.fixture
def classify_inputs(tmp_path):
    x, y, _ = gen_separable(3, 24, seed=7)
    n = x.shape[1]
    order = substream(1, "cli-split").permutation(n)
    test = order[: n // 4]
    val = order[n // 4 : n // 2]
    train = order[n // 2 :]
    paths = {}
    for name, idx in (("train", train), ("val", val), ("test", test)):
        paths[f"x_{name}"] = write_matrix(tmp_path / f"x_{name}.csv", x[:, idx])
        paths[f"y_{name}"] = write_matrix(tmp_path / f"y_{name}.csv", y[:, idx])
    return paths


def test_classify_end_to_end(tmp_path, classify_inputs, capsys):
    out = tmp_path / "out"
    code = cli.main([
        "classify",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-test", classify_inputs["x_test"],
        "--y-test", classify_inputs["y_test"],
        "--r", "3", "--lam", "5.0", "--max-iters", "80", "--tol", "0",
        "--transform-iters", "80", "--out-dir", str(out), "--no-timestamp",
    ])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["test_accuracy"] >= 0.9
    preds = matrix.read_csv(out / "predictions.csv")
    assert preds.shape == (3, 18)
    assert "test accuracy" in capsys.readouterr().out


def test_classify_requires_train_and_test(tmp_path, classify_inputs, capsys):
    assert cli.main(["classify", "--x-train", classify_inputs["x_train"],
                     "--out-dir", str(tmp_path)]) == 2
    assert "--y-train" in capsys.readouterr().err


def test_classify_grid_requires_validation_split(tmp_path, classify_inputs, capsys):
    code = cli.main([
        "classify", "--grid",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-test", classify_inputs["x_test"],
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "--x-val" in capsys.readouterr().err


def test_classify_grid_sweeps_and_picks(tmp_path, classify_inputs):
    out = tmp_path / "out"
    code = cli.main([
        "classify", "--grid",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-val", classify_inputs["x_val"],
        "--y-val", classify_inputs["y_val"],
        "--x-test", classify_inputs["x_test"],
        "--y-test", classify_inputs["y_test"],
        "--r", "3", "--max-iters", "15", "--transform-iters", "15",
        "--out-dir", str(out), "--no-timestamp",
    ])
    assert code == 0
    report = read_json(out / "report.json")
    assert len(report["grid"]) == len(cli.GRID_TOLS) * len(cli.GRID_LAMBDAS)
    assert report["tol"] in cli.GRID_TOLS
    assert report["lam"] in cli.GRID_LAMBDAS
    best = max(row["val_accuracy"] for row in report["grid"])
    chosen = [row for row in report["grid"]
              if row["tol"] == report["tol"] and row["lam"] == report["lam"]]
    assert chosen[0]["val_accuracy"] == best


def test_classify_saves_model(tmp_path, classify_inputs):
    out = tmp_path / "out"
    model_dir = tmp_path / "model"
    code = cli.main([
        "classify",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-test", classify_inputs["x_test"],
        "--r", "3", "--max-iters", "10", "--transform-iters", "10",
        "--save-model", str(model_dir),
        "--out-dir", str(out), "--no-timestamp",
    ])
    assert code == 0
    assert (model_dir / "A.csv").exists()
    assert (model_dir / "manifest.json").exists()
    # no y_test, so accuracy is absent rather than fabricated
    assert read_json(out / "report.json")["test_accuracy"] is None


# ---------------------------------------------------------------- synth-bench

def test_synth_bench_small_grid(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["synth-bench", "--experiment", "1",
                     "--n1", "10", "--n2", "12", "--k", "8", "--r", "2",
                     "--max-iters", "40", "--trials", "2",
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["experiments"] == [1]
    assert len(report["column_minima"]) == 1
    assert report["column_minima"][0] in report["variants"]
    with open(out / "errorgrid.csv", "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "variant,experiment_1"
    table = capsys.readouterr().out
    assert "*" in table
    assert "fro-fro" in table


def test_synth_bench_rerun_is_byte_identical(tmp_path):
    args = ["synth-bench", "--experiment", "2", "--n1", "8", "--n2", "10",
            "--k", "6", "--r", "2", "--max-iters", "25", "--trials", "2",
            "--no-timestamp"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


# ----------------------------------------------------------------------- prep

@pytest.fixture
def corpus_tree(tmp_path):
    root = tmp_path / "corpus"
    docs = {
        ("sport", "hockey"): ["puck ice goal stick", "ice rink puck skate",
                              "goal puck ice shot"],
        ("sport", "soccer"): ["ball goal net kick", "kick ball net pitch",
                              "ball net goal pass"],
        ("tech", "crypt"): ["cipher key code lock", "key code cipher hash",
                            "code lock cipher salt"],
    }
    for (cls, sub), texts in docs.items():
        d = root / cls / sub
        d.mkdir(parents=True)
        for i, text in enumerate(texts):
            (d / f"{i:04d}.txt").write_text(text)
    return str(root)


def test_prep_tree_writes_splits(tmp_path, corpus_tree):
    out = tmp_path / "out"
    code = cli.main(["prep", "--input", corpus_tree, "--min-df", "1",
                     "--train-ratio", "0.5", "--val-ratio", "0.25",
                     "--test-ratio", "0.25",
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["documents"] == 9
    assert report["classes"] == ["sport", "tech"]
    assert report["subgroups"] == ["crypt", "hockey", "soccer"]
    vocab_size = report["vocabulary_size"]
    x_train = matrix.read_csv(out / "train_x.csv")
    y_train = matrix.read_csv(out / "train_y.csv")
    m_train = matrix.read_csv(out / "test_m.csv")
    assert x_train.shape[0] == vocab_size
    assert y_train.shape[0] == 2
    assert m_train.shape[0] == 3
    total = (report["splits"]["train"]["documents"]
             + report["splits"]["val"]["documents"]
             + report["splits"]["test"]["documents"])
    assert total == 9
    with open(out / "vocabulary.txt", "r", encoding="utf-8") as fh:
        terms = fh.read().split()
    assert len(terms) == vocab_size


def test_prep_jsonl_autodetected(tmp_path):
    path = tmp_path / "docs.jsonl"
    rows = [
        {"text": "puck ice goal", "group": "sport", "subgroup": "hockey"},
        {"text": "ice goal skate", "group": "sport", "subgroup": "hockey"},
        {"text": "cipher key code", "group": "tech", "subgroup": "crypt"},
        {"text": "key code hash", "group": "tech", "subgroup": "crypt"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out"
    code = cli.main(["prep", "--input", str(path), "--min-df", "1",
                     "--train-ratio", "0.5", "--val-ratio", "0.25",
                     "--test-ratio", "0.25",
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    assert read_json(out / "report.json")["classes"] == ["sport", "tech"]


def test_prep_missing_input_exits_two(tmp_path, capsys):
    assert cli.main(["prep", "--input", str(tmp_path / "absent"),
                     "--out-dir", str(tmp_path / "out")]) == 2


def test_prep_rerun_is_byte_identical(tmp_path, corpus_tree):
    args = ["prep", "--input", corpus_tree, "--min-df", "1",
            "--train-ratio", "0.5", "--val-ratio", "0.25",
            "--test-ratio", "0.25", "--no-timestamp"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(out1)]) == 0
    assert cli.main(args + ["--out-dir", str(out2)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


# --------------------------------------------------------------------- topics

def test_topics_lists_keywords(tmp_path, capsys):
    a = write_matrix(tmp_path / "A.csv",
                     [[0.9, 0.0], [0.5, 0.1], [0.0, 0.8], [0.1, 0.6]])
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("alpha\nbeta\ngamma\ndelta\n")
    out = tmp_path / "out"
    code = cli.main(["topics", "--a", a, "--vocab", str(vocab),
                     "--count", "2", "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    report = read_json(out / "topics.json")
    assert report["topics"][0]["keywords"] == ["alpha", "beta"]
    assert report["topics"][1]["keywords"] == ["gamma", "delta"]
    assert "topic" in capsys.readouterr().out


def test_topics_requires_both_inputs(tmp_path):
    a = write_matrix(tmp_path / "A.csv", [[1.0]])
    assert cli.main(["topics", "--a", a, "--out-dir", str(tmp_path)]) == 2
    assert cli.main(["topics", "--a", a, "--vocab",
                     str(tmp_path / "absent.txt"),
                     "--out-dir", str(tmp_path)]) == 2


# --------------------------------------------------------------- cluster-score

def test_cluster_score_modes(tmp_path, capsys):
    s = write_matrix(tmp_path / "S.csv", [[1.0, 0.2, 0.0], [0.0, 0.8, 1.0]])
    m = write_matrix(tmp_path / "M.csv", [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    out = tmp_path / "out"
    code = cli.main(["cluster-score", "--s", s, "--m", m,
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 0
    scores = read_json(out / "scores.json")
    assert scores["hard_mean_score"] == 1.0
    assert 0.0 <= scores["soft_mean_score"] <= 1.0
    printed = capsys.readouterr().out
    assert "hard mean score" in printed
    assert "soft mean score" in printed

    only = tmp_path / "only"
    assert cli.main(["cluster-score", "--s", s, "--m", m, "--mode", "hard",
                     "--out-dir", str(only), "--no-timestamp"]) == 0
    assert list(read_json(only / "scores.json")) == ["hard_mean_score"]


def test_cluster_score_bad_mode_exits_two(tmp_path, capsys):
    s = write_matrix(tmp_path / "S.csv", [[1.0]])
    m = write_matrix(tmp_path / "M.csv", [[1.0]])
    assert cli.main(["cluster-score", "--s", s, "--m", m, "--mode", "fuzzy",
                     "--out-dir", str(tmp_path)]) == 2
