import argparse
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from ssnmf import classify, cli, matrix, solver, synth
from ssnmf.objectives import ModelVariant
from ssnmf.rng import substream
from ssnmf.solver import SsnmfConfig
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


@pytest.mark.filterwarnings("error")
def test_empty_matrix_file_is_one_error_line(tmp_path, capfd):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = cli.main(["fit", "--x", str(empty), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    captured = capfd.readouterr()
    assert captured.err == f"error: {empty}: no data rows\n"


def test_fit_without_x_exits_two(tmp_path, capsys):
    assert cli.main(["fit", "--out-dir", str(tmp_path)]) == 2
    assert "--x" in capsys.readouterr().err


def _refuse_to_allocate(*args, **kwargs):
    raise AssertionError("factors drawn for a rank the data cannot hold")


@pytest.mark.parametrize("r", ["7", "20", "100000000"])
def test_fit_rank_above_the_data_exits_two_before_allocating(tmp_path, fit_inputs, r,
                                                             capsys, monkeypatch):
    monkeypatch.setattr(solver, "initialize", _refuse_to_allocate)
    code = cli.main(["fit", "--x", fit_inputs["x"], "--y", fit_inputs["y"], "--r", r,
                     "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: r must be <= min(n1, n2) = 6 for 6 x 9 data, got {r}\n")


def test_fit_rank_at_the_bound_runs(tmp_path, fit_inputs):
    assert cli.main(["fit", "--x", fit_inputs["x"], "--r", "6", "--max-iters", "3",
                     "--out-dir", str(tmp_path / "o")]) == 0


def test_synth_bench_rank_above_the_data_exits_two_before_allocating(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setattr(synth, "gen_factors", _refuse_to_allocate)
    code = cli.main(["synth-bench", "--experiment", "1", "--n1", "10", "--n2", "12",
                     "--r", "100000000", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: r must be <= min(n1, n2) = 10 for 10 x 12 data, got 100000000\n")


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
    assert capsys.readouterr().err == "error: objective is inf at initialization\n"


@pytest.mark.parametrize("seed", ["-1", str(2**32)])
def test_fit_seed_outside_32_bits_exits_two(tmp_path, fit_inputs, seed, capsys):
    out = tmp_path / "o"
    code = cli.main(["fit", "--x", fit_inputs["x"], "--r", "2", "--max-iters", "3",
                     "--seed", seed, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**32), got {seed}\n"
    assert not (out / "result.json").exists()


def test_non_finite_value_mid_fit_exits_one(tmp_path, fit_inputs, capsys, monkeypatch):
    real = solver.mu_step
    scored = []

    def nan_at_sweep_2(*args, terms=None, **kwargs):
        out = real(*args, terms=terms, **kwargs)
        if terms is not None:
            scored.append(None)  # the n-th scored sweep scores state n
            if len(scored) == 2:
                out.objective = float("nan")
        return out

    monkeypatch.setattr(solver, "mu_step", nan_at_sweep_2)
    code = cli.main(["fit", "--x", fit_inputs["x"], "--r", "2", "--max-iters", "5",
                     "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: objective is nan at sweep 2\n"


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
    (["synth-bench", "--workers", "0"], "workers must be >= 1"),
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


def test_classify_with_overflowing_test_data_exits_one(tmp_path, classify_inputs, capsys):
    # finite test data whose products overflow: the codes go non-finite, which
    # is a fit failure (1) with one error line, not an accuracy on NaN codes
    rows = matrix.read_csv(classify_inputs["x_test"]).shape
    huge = write_matrix(tmp_path / "huge.csv", np.full(rows, 1e308))
    code = cli.main([
        "classify",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-test", huge,
        "--y-test", classify_inputs["y_test"],
        "--r", "3", "--max-iters", "20", "--transform-iters", "20",
        "--out-dir", str(tmp_path / "out"), "--no-timestamp",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: transform codes are not finite after 20 iterations\n"
    assert "test accuracy" not in captured.out


def test_classify_with_an_overflowing_sparse_test_column_exits_one(tmp_path, classify_inputs,
                                                                  capsys):
    # the default div-fro model forms its quotient at the nonzero entries of
    # this test data, zero but for one column of 1e308
    rows, cols = matrix.read_csv(classify_inputs["x_test"]).shape
    x = np.zeros((rows, cols))
    x[:, 4] = 1e308
    code = cli.main([
        "classify",
        "--x-train", classify_inputs["x_train"],
        "--y-train", classify_inputs["y_train"],
        "--x-test", write_matrix(tmp_path / "sparse.csv", x),
        "--y-test", classify_inputs["y_test"],
        "--r", "3", "--max-iters", "20", "--transform-iters", "20",
        "--out-dir", str(tmp_path / "out"), "--no-timestamp",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: transform codes are not finite after 20 iterations\n"
    assert "test accuracy" not in captured.out


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


def classify_grid_by_refitting(inputs, out_dir, model_dir, r, max_iters, transform_iters):
    """classify --grid as a fit per (tol, lam) pair plus a refit of the
    chosen pair, writing the files the command writes; the reference the
    one-fit-per-lam grid must match byte for byte."""
    data = {key: matrix.read_csv(path) for key, path in inputs.items()}
    variant = ModelVariant.parse("div-fro")
    base = SsnmfConfig(r=r, lam=100.0, max_iters=max_iters, tol=1e-3)

    def train_eval(config, x_eval, y_eval):
        model, result = classify.train(data["x_train"], data["y_train"], variant, config)
        s_eval = classify.transform(model, x_eval, iters=transform_iters)
        y_pred = classify.predict(model, s_eval)
        return model, result, y_pred, classify.accuracy(y_eval, y_pred)

    best_acc, grid = -1.0, []
    for tol in cli.GRID_TOLS:
        for lam in cli.GRID_LAMBDAS:
            acc = train_eval(replace(base, tol=tol, lam=lam), data["x_val"], data["y_val"])[3]
            grid.append({"tol": tol, "lam": lam, "val_accuracy": acc})
            if acc > best_acc:
                best_acc, chosen = acc, {"tol": tol, "lam": lam}
    config = replace(base, **chosen)
    model, result, y_pred, acc = train_eval(config, data["x_test"], data["y_test"])
    os.makedirs(out_dir)
    matrix.write_csv(os.path.join(out_dir, "predictions.csv"), y_pred)
    classify.save_model(model, model_dir)
    matrix.write_json(os.path.join(out_dir, "report.json"), {
        "variant": variant.key, "r": config.r, "lam": config.lam, "tol": config.tol,
        "max_iters": config.max_iters, "transform_iters": transform_iters,
        "seed": config.seed, "train_iterations": result.iterations_run,
        "train_relative_error": result.relative_error, "test_accuracy": acc,
        "grid": grid,
    })


def test_classify_grid_matches_a_fit_per_pair_byte_for_byte(tmp_path, classify_inputs,
                                                             monkeypatch):
    # tols chosen on the first lam's trajectory: two stop together at sweep
    # 12, one stops at sweep 4 and one never stops
    x_train, y_train = (matrix.read_csv(classify_inputs[key]) for key in ("x_train", "y_train"))
    config = SsnmfConfig(r=3, lam=cli.GRID_LAMBDAS[0], max_iters=20)
    trace = classify.train(x_train, y_train, ModelVariant.DIV_FRO, config)[1].objective_trace
    q = [v / trace[0] for v in trace]
    tols = (q[12] + (q[11] - q[12]) / 3, q[-1] / 2, (q[3] + q[4]) / 2,
            q[12] + 2 * (q[11] - q[12]) / 3)
    stops = [classify.train(x_train, y_train, ModelVariant.DIV_FRO, replace(config, tol=tol))[1]
             .iterations_run for tol in tols]
    assert stops == [12, 20, 4, 12]
    monkeypatch.setattr(cli, "GRID_TOLS", tols)

    classify_grid_by_refitting(classify_inputs, tmp_path / "ref", tmp_path / "ref_model",
                               r=3, max_iters=20, transform_iters=15)
    code = cli.main([
        "classify", "--grid",
        *(arg for key, path in classify_inputs.items()
          for arg in ("--" + key.replace("_", "-"), path)),
        "--r", "3", "--max-iters", "20", "--transform-iters", "15",
        "--save-model", str(tmp_path / "model"),
        "--out-dir", str(tmp_path / "out"), "--no-timestamp",
    ])
    assert code == 0
    assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "ref")
    assert tree_bytes(tmp_path / "model") == tree_bytes(tmp_path / "ref_model")


@pytest.mark.parametrize("grid", [True, False])
def test_classify_fits_once_per_lam(tmp_path, classify_inputs, monkeypatch, grid):
    calls = []
    real = classify.fit

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(classify, "fit", counted)
    code = cli.main([
        "classify", *(["--grid"] if grid else []),
        *(arg for key, path in classify_inputs.items()
          for arg in ("--" + key.replace("_", "-"), path)),
        "--r", "3", "--max-iters", "15", "--transform-iters", "15",
        "--out-dir", str(tmp_path / "out"), "--no-timestamp",
    ])
    assert code == 0
    assert len(calls) == (len(cli.GRID_LAMBDAS) if grid else 1)


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


def test_synth_bench_default_workers_write_what_one_worker_writes(tmp_path, monkeypatch,
                                                                  real_pool_sizes):
    # with OPENBLAS_NUM_THREADS=1 on 2 CPUs the default pools the 2 jobs. This
    # checks the pool size and the output bytes, not BLAS pinning: numpy read
    # its BLAS thread count when it was imported, before this setenv.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    args = ["synth-bench", "--experiment", "2", "--n1", "8", "--n2", "10",
            "--k", "6", "--r", "2", "--max-iters", "25", "--trials", "2",
            "--no-timestamp"]
    pooled, serial = tmp_path / "default", tmp_path / "one"
    assert cli.main(args + ["--out-dir", str(pooled)]) == 0
    assert cli.main(args + ["--workers", "1", "--out-dir", str(serial)]) == 0
    assert real_pool_sizes == [2]
    assert set(tree_bytes(pooled)) == {"errorgrid.csv", "report.json"}
    assert tree_bytes(pooled) == tree_bytes(serial)


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


@pytest.mark.parametrize("flag,value", [
    ("--max-size", "-1"), ("--max-size", "0"), ("--per-class-cap", "-1"), ("--per-class-cap", "0"),
])
def test_prep_size_below_one_exits_two(tmp_path, flag, value, capsys):
    path = tmp_path / "docs.jsonl"
    rows = [{"text": f"{topic} word{i} shared", "group": topic, "subgroup": topic}
            for topic in ("sport", "tech") for i in range(12)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out"
    code = cli.main(["prep", "--input", str(path), "--min-df", "1", flag, value,
                     "--out-dir", str(out), "--no-timestamp"])
    assert code == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_topics_count_below_one_exits_two(tmp_path, count, capsys):
    a = write_matrix(tmp_path / "A.csv", [[0.9], [0.5], [0.1], [0.0]])
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("alpha\nbeta\ngamma\ndelta\n")
    out = tmp_path / "out"
    code = cli.main(["topics", "--a", a, "--vocab", str(vocab),
                     "--count", count, "--out-dir", str(out)])
    assert code == 2
    assert "count must be >= 1" in capsys.readouterr().err


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
