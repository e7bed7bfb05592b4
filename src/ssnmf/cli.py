"""Command-line interface.

Subcommands: fit, classify, synth-bench, prep, topics, cluster-score. Each
command's options are declared once, in OPTIONS; that table builds the
parser, the defaults and the checks on --config values. Every command accepts
--config JSON; explicit flags override config values, and a config value must
have its option's JSON type. Commands that draw randomness take one --seed.
Reports are deterministic given config + seed; pass --no-timestamp to drop the
one volatile field.

Exit codes: 0 success, 1 computational failure, 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np

from . import classify as cls
from . import evalcluster, matrix, synth, textprep
from .exceptions import (
    ConfigError,
    EvaluationError,
    FitError,
    ParseError,
    ShapeError,
)
from .objectives import ModelVariant
from .solver import SsnmfConfig, fit

GRID_TOLS = (1e-4, 1e-3, 1e-2)
GRID_LAMBDAS = (10.0, 100.0, 1000.0)

# ---------------------------------------------------------------- options

# subcommand -> {name: (type, default, help)}. The name is the config key and,
# with "_" written as "-", the flag. The type is int, float, str, bool, or a
# tuple of the allowed strings. A command lists only the options it reads.
_OUT_DIR = {"out_dir": (str, ".", "output directory")}
_SEED = {"seed": (int, 0, "top-level random seed")}
_EPS = {"eps": (float, 1e-10, "guard added to divergence ratios")}
OPTIONS = {
    "fit": {
        "x": (str, None, "data matrix CSV"),
        "y": (str, None, "label matrix CSV"),
        "w": (str, None, "data mask CSV"),
        "l": (str, None, "label mask CSV"),
        "variant": (str, "fro-fro", "fro-fro, fro-div, div-fro, or div-div"),
        "r": (int, 5, "factorization rank"),
        "lam": (float, 1.0, "supervision weight"),
        "max_iters": (int, 100, None),
        "tol": (float, 0.0, "relative-error stopping threshold"),
        **_EPS, **_SEED, **_OUT_DIR,
    },
    "classify": {
        "x_train": (str, None, None),
        "y_train": (str, None, None),
        "x_test": (str, None, None),
        "y_test": (str, None, None),
        "w_train": (str, None, None),
        "w_test": (str, None, None),
        "x_val": (str, None, None),
        "y_val": (str, None, None),
        "variant": (str, "div-fro", None),
        "r": (int, 13, None),
        "lam": (float, 100.0, None),
        "max_iters": (int, 50, None),
        "tol": (float, 1e-3, None),
        "transform_iters": (int, cls.DEFAULT_TRANSFORM_ITERS, None),
        "grid": (bool, False, "sweep tol and lam on the validation split"),
        "save_model": (str, None, "model output directory"),
        **_EPS, **_SEED, **_OUT_DIR,
    },
    "synth-bench": {
        "experiment": (tuple(map(str, synth.EXPERIMENT_IDS)) + ("all",), "all", None),
        "n1": (int, 100, None),
        "n2": (int, 100, None),
        "k": (int, 100, None),
        "r": (int, 5, None),
        "density": (float, 0.5, None),
        "lam": (float, 1.0, None),
        "max_iters": (int, 20000, None),
        "trials": (int, 5, None),
        "workers": (int, None, "parallel trial workers; when unset, the SSNMF_THREADS "
                               "environment variable, else 1 (never more than trials)"),
        **_EPS, **_SEED, **_OUT_DIR,
    },
    "prep": {
        "input": (str, None, "corpus directory tree or JSONL file"),
        "format": (("auto", "tree", "jsonl"), "auto", None),
        "min_df": (int, 5, None),
        "max_df_ratio": (float, 0.7, None),
        "max_size": (int, 5000, None),
        "stopword_file": (str, None, None),
        "no_stopwords": (bool, False, None),
        "train_ratio": (float, 0.6, None),
        "val_ratio": (float, 0.2, None),
        "test_ratio": (float, 0.2, None),
        "per_class_cap": (int, None, None),
        "no_strip": (bool, False, None),
        **_SEED, **_OUT_DIR,
    },
    "topics": {
        "a": (str, None, "dictionary matrix CSV"),
        "vocab": (str, None, "vocabulary text file"),
        "count": (int, 10, None),
        **_OUT_DIR,
    },
    "cluster-score": {
        "s": (str, None, "representation matrix CSV"),
        "m": (str, None, "ground-truth membership CSV"),
        "mode": (("hard", "soft", "both"), "both", None),
        **_OUT_DIR,
    },
}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _config_value(key, kind, value):
    """A config file value as its option's type. 2.0 is an integer; 2.7, true
    and "2" are not, and no other JSON type stands in for a string or a bool."""
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif kind in (int, float):
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    else:
        ok = isinstance(value, kind)
    if not ok:
        want = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _KIND_NAMES[kind]
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _resolve(args) -> dict:
    """The command's options: table defaults, then config file values, then
    flags. Flags win."""
    table = OPTIONS[args.command]
    opts = {name: default for name, (_, default, _) in table.items()}
    if args.config:
        cfg = _load_config_file(args.config)
        unknown = sorted(set(cfg) - set(table))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        for key, value in cfg.items():
            kind, default, _ = table[key]
            if value is None and default is not None:
                raise ConfigError(f"config fields may not be null: {key}")
            opts[key] = None if value is None else _config_value(key, kind, value)
    for key in table:
        flag = getattr(args, key)
        if flag is not None:
            opts[key] = flag
    return opts


def _require(opts, who, *keys) -> None:
    missing = ["--" + key.replace("_", "-") for key in keys if opts[key] is None]
    if missing:
        raise ConfigError(f"{who} requires {' and '.join(missing)}")


def _build(config_cls, opts):
    """A config dataclass from the resolved options named like its fields."""
    return config_cls(**{f.name: opts[f.name] for f in fields(config_cls)})


def _write_report(path, payload: dict, no_timestamp: bool) -> None:
    payload = dict(payload)
    if not no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    matrix.write_json(path, payload)


def _read_matrix_arg(opts, key):
    path = opts[key]
    if path is None:
        return None
    if not os.path.exists(path):
        raise ParseError(f"{key} file not found: {path}")
    return matrix.read_csv(path)


def _out_dir(opts) -> str:
    os.makedirs(opts["out_dir"], exist_ok=True)
    return opts["out_dir"]


# ---------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    opts = _resolve(args)
    _require(opts, "fit", "x")
    x, y, w, l = (_read_matrix_arg(opts, key) for key in ("x", "y", "w", "l"))
    if y is None:
        # unsupervised: empty label block contributes nothing to the objective
        y = np.zeros((1, x.shape[1]))
        l = np.zeros_like(y)
    variant = ModelVariant.parse(opts["variant"])
    result = fit(variant, x, y, _build(SsnmfConfig, opts), w=w, l=l)
    out_dir = opts["out_dir"]
    result.save(out_dir)
    # save writes result.json without the volatile field; the report adds it
    _write_report(os.path.join(out_dir, "result.json"), result.to_dict(),
                  args.no_timestamp)
    print(f"fit {variant.key}: {result.iterations_run} iterations, "
          f"relative error {result.relative_error:.6g}")
    return 0


# ---------------------------------------------------------------- classify

def _train_eval(variant, x_train, y_train, w_train, x_eval, w_eval, y_eval,
                config, transform_iters):
    model, result = cls.train(x_train, y_train, variant, config, w_train=w_train)
    s_eval = cls.transform(model, x_eval, w_test=w_eval, iters=transform_iters)
    y_pred = cls.predict(model, s_eval)
    acc = cls.accuracy(y_eval, y_pred) if y_eval is not None else None
    return model, result, y_pred, acc


def cmd_classify(args) -> int:
    opts = _resolve(args)
    _require(opts, "classify", "x_train", "y_train", "x_test")
    x_train, y_train, x_test, y_test, w_train, w_test = (
        _read_matrix_arg(opts, key)
        for key in ("x_train", "y_train", "x_test", "y_test", "w_train", "w_test"))
    variant = ModelVariant.parse(opts["variant"])
    transform_iters = opts["transform_iters"]
    base = _build(SsnmfConfig, opts)
    chosen = {"tol": base.tol, "lam": base.lam}
    grid_results = None
    if opts["grid"]:
        _require(opts, "--grid", "x_val", "y_val")
        x_val = _read_matrix_arg(opts, "x_val")
        y_val = _read_matrix_arg(opts, "y_val")
        best_acc = -1.0
        grid_results = []
        for tol in GRID_TOLS:
            for lam in GRID_LAMBDAS:
                config = replace(base, tol=tol, lam=lam)
                _, _, _, acc = _train_eval(
                    variant, x_train, y_train, w_train,
                    x_val, None, y_val, config, transform_iters,
                )
                grid_results.append({"tol": tol, "lam": lam, "val_accuracy": acc})
                if acc > best_acc:
                    best_acc = acc
                    chosen = {"tol": tol, "lam": lam}
    config = replace(base, **chosen)
    model, result, y_pred, acc = _train_eval(
        variant, x_train, y_train, w_train,
        x_test, w_test, y_test, config, transform_iters,
    )
    out_dir = _out_dir(opts)
    matrix.write_csv(os.path.join(out_dir, "predictions.csv"), y_pred)
    if opts["save_model"]:
        cls.save_model(model, opts["save_model"])
    report = {
        "variant": variant.key,
        "r": config.r,
        "lam": config.lam,
        "tol": config.tol,
        "max_iters": config.max_iters,
        "transform_iters": transform_iters,
        "seed": config.seed,
        "train_iterations": result.iterations_run,
        "train_relative_error": result.relative_error,
        "test_accuracy": acc,
        "grid": grid_results,
    }
    _write_report(os.path.join(out_dir, "report.json"), report, args.no_timestamp)
    if acc is not None:
        print(f"test accuracy: {acc:.4f}")
    else:
        print("predictions written (no y_test given)")
    return 0


# ---------------------------------------------------------------- synth-bench

def cmd_synth_bench(args) -> int:
    opts = _resolve(args)
    if opts["experiment"] == "all":
        experiments = list(synth.EXPERIMENT_IDS)
    else:
        experiments = [int(opts["experiment"])]
    base = _build(synth.ExperimentSpec, {**opts, "experiment": experiments[0]})
    grid = synth.run_benchmark(base, experiments, workers=opts["workers"])
    out_dir = _out_dir(opts)
    grid.to_csv(os.path.join(out_dir, "errorgrid.csv"))
    payload = grid.to_dict()
    payload["column_minima"] = [grid.variants[i].key for i in grid.column_minima()]
    _write_report(os.path.join(out_dir, "report.json"), payload, args.no_timestamp)
    minima = grid.column_minima()
    header = "variant    " + "".join(f"  exp {e:<10}" for e in grid.experiments)
    print(header)
    for i, variant in enumerate(grid.variants):
        cells = []
        for j in range(len(grid.experiments)):
            mark = "*" if minima[j] == i else " "
            cells.append(f"  {grid.means[i, j]:<11.6g}{mark}")
        print(f"{variant.key:<10}" + "".join(cells))
    return 0


# ---------------------------------------------------------------- prep

def cmd_prep(args) -> int:
    opts = _resolve(args)
    _require(opts, "prep", "input")
    path = opts["input"]
    if not os.path.exists(path):
        raise ParseError(f"input not found: {path}")
    fmt = opts["format"]
    if fmt == "auto":
        fmt = "tree" if os.path.isdir(path) else "jsonl"
    load = textprep.load_corpus_tree if fmt == "tree" else textprep.load_corpus_jsonl
    corpus = load(path, strip=not opts["no_strip"])
    ratios = (opts["train_ratio"], opts["val_ratio"], opts["test_ratio"])
    train, val, test = textprep.split(
        corpus, ratios=ratios, per_class_cap=opts["per_class_cap"], seed=opts["seed"],
    )
    if opts["no_stopwords"]:
        stop = frozenset()
    elif opts["stopword_file"]:
        with open(opts["stopword_file"], "r", encoding="utf-8") as fh:
            stop = frozenset(w for w in fh.read().split() if w)
    else:
        stop = textprep.stopwords()
    vocab = textprep.build_vocabulary(
        train, stop_terms=stop, min_df=opts["min_df"],
        max_df_ratio=opts["max_df_ratio"], max_size=opts["max_size"],
    )
    out_dir = _out_dir(opts)
    vocab.save(os.path.join(out_dir, "vocabulary.txt"))
    k = len(corpus.class_names)
    n_sub = len(corpus.subgroup_names)
    report = {
        "documents": len(corpus),
        "classes": corpus.class_names,
        "subgroups": corpus.subgroup_names,
        "vocabulary_size": len(vocab),
        "splits": {},
    }
    for name, part in (("train", train), ("val", val), ("test", test)):
        mat = textprep.tfidf(part, vocab)
        matrix.write_csv(os.path.join(out_dir, f"{name}_x.csv"), mat)
        matrix.write_csv(os.path.join(out_dir, f"{name}_y.csv"),
                         textprep.one_hot(part.class_ids(), k))
        matrix.write_csv(os.path.join(out_dir, f"{name}_m.csv"),
                         textprep.one_hot(part.subgroup_ids(), n_sub))
        report["splits"][name] = {
            "documents": len(part),
            "empty_columns": textprep.empty_columns(mat),
        }
    _write_report(os.path.join(out_dir, "report.json"), report, args.no_timestamp)
    print(f"prepared {len(corpus)} documents, vocabulary {len(vocab)}, "
          f"splits {len(train)}/{len(val)}/{len(test)}")
    return 0


# ---------------------------------------------------------------- topics

def cmd_topics(args) -> int:
    opts = _resolve(args)
    _require(opts, "topics", "a", "vocab")
    a = _read_matrix_arg(opts, "a")
    if not os.path.exists(opts["vocab"]):
        raise ParseError(f"vocab file not found: {opts['vocab']}")
    vocab = textprep.load_vocabulary(opts["vocab"])
    count = opts["count"]
    keywords = evalcluster.top_keywords(a, vocab, count=count)
    payload = {
        "count": count,
        "topics": [{"topic": i, "keywords": words} for i, words in enumerate(keywords)],
    }
    _write_report(os.path.join(_out_dir(opts), "topics.json"), payload, args.no_timestamp)
    for i, words in enumerate(keywords):
        print(f"topic {i:>3}  " + " ".join(words))
    return 0


# ---------------------------------------------------------------- cluster-score

def cmd_cluster_score(args) -> int:
    opts = _resolve(args)
    _require(opts, "cluster-score", "s", "m")
    s = _read_matrix_arg(opts, "s")
    m = _read_matrix_arg(opts, "m")
    mode = opts["mode"]
    modes = ("hard", "soft") if mode == "both" else (mode,)
    payload = {}
    for item in modes:
        payload[f"{item}_mean_score"] = evalcluster.mean_score(s, m, mode=item)
    _write_report(os.path.join(_out_dir(opts), "scores.json"), payload, args.no_timestamp)
    for item in modes:
        print(f"{item} mean score P: {payload[f'{item}_mean_score']:.4f}")
    return 0


# ---------------------------------------------------------------- parser

COMMANDS = {
    "fit": (cmd_fit, "factorize a data (and optional label) matrix"),
    "classify": (cmd_classify, "train, project test data, report accuracy"),
    "synth-bench": (cmd_synth_bench, "noise-model benchmark over variants"),
    "prep": (cmd_prep, "corpus to TF-IDF matrices and splits"),
    "topics": (cmd_topics, "top keywords per topic column"),
    "cluster-score": (cmd_cluster_score, "mean topic score P against ground truth"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssnmf",
        description="semi-supervised NMF: training, classification, benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in COMMANDS.items():
        p = subs.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field from reports")
        for name, (kind, _, help_text) in OPTIONS[command].items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:  # None when absent, so a config value can stand
                p.add_argument(flag, action="store_true", default=None, help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=help_text)
            else:
                p.add_argument(flag, type=kind, help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ConfigError, ShapeError, EvaluationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
