"""Command-line interface.

Subcommands: fit, classify, synth-bench, prep, topics, cluster-score. Every
command accepts --config JSON; explicit flags override config values. All
randomness derives from the single --seed. Reports are deterministic given
config + seed; pass --no-timestamp to drop the one volatile field.

Exit codes: 0 success, 1 computational failure, 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
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


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _resolve(args, defaults: dict) -> dict:
    """Merge config file values and flags over defaults. Flags win."""
    resolved = dict(defaults)
    if getattr(args, "config", None):
        cfg = _load_config_file(args.config)
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        required = sorted(k for k, v in cfg.items() if v is None and defaults[k] is not None)
        if required:
            raise ConfigError(f"config fields may not be null: {', '.join(required)}")
        resolved.update(cfg)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _write_report(path, payload: dict, no_timestamp: bool) -> None:
    payload = dict(payload)
    if not no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_matrix_arg(path, name):
    if path is None:
        return None
    if not os.path.exists(path):
        raise ParseError(f"{name} file not found: {path}")
    return matrix.read_csv(path)


def _integer(opts, key):
    """An integer option, or None if unset; a config value of 2.7 or true is an
    error rather than 2 or 1."""
    value = opts[key]
    if value is None:
        return None
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _solver_config(opts) -> SsnmfConfig:
    return SsnmfConfig(
        r=_integer(opts, "r"),
        lam=float(opts["lam"]),
        max_iters=_integer(opts, "max_iters"),
        tol=float(opts["tol"]),
        eps=float(opts["eps"]),
        seed=_integer(opts, "seed"),
    )


# ---------------------------------------------------------------- fit

FIT_DEFAULTS = {
    "x": None,
    "y": None,
    "w": None,
    "l": None,
    "variant": "fro-fro",
    "r": 5,
    "lam": 1.0,
    "max_iters": 100,
    "tol": 0.0,
    "eps": 1e-10,
    "seed": 0,
    "out_dir": ".",
}


def cmd_fit(args) -> int:
    opts = _resolve(args, FIT_DEFAULTS)
    if opts["x"] is None:
        raise ConfigError("fit requires --x (data matrix CSV)")
    x = _read_matrix_arg(opts["x"], "x")
    y = _read_matrix_arg(opts["y"], "y")
    w = _read_matrix_arg(opts["w"], "w")
    l = _read_matrix_arg(opts["l"], "l")
    if y is None:
        # unsupervised: empty label block contributes nothing to the objective
        y = np.zeros((1, x.shape[1]))
        l = np.zeros_like(y)
    variant = ModelVariant.parse(opts["variant"])
    config = _solver_config(opts)
    result = fit(variant, x, y, config, w=w, l=l)
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    matrix.write_csv(os.path.join(out_dir, "A.csv"), result.state.a)
    matrix.write_csv(os.path.join(out_dir, "B.csv"), result.state.b)
    matrix.write_csv(os.path.join(out_dir, "S.csv"), result.state.s)
    _write_report(os.path.join(out_dir, "result.json"), result.to_dict(),
                  args.no_timestamp)
    print(f"fit {variant.key}: {result.iterations_run} iterations, "
          f"relative error {result.relative_error:.6g}")
    return 0


# ---------------------------------------------------------------- classify

CLASSIFY_DEFAULTS = {
    "x_train": None,
    "y_train": None,
    "x_test": None,
    "y_test": None,
    "w_train": None,
    "w_test": None,
    "x_val": None,
    "y_val": None,
    "variant": "div-fro",
    "r": 13,
    "lam": 100.0,
    "max_iters": 50,
    "tol": 1e-3,
    "eps": 1e-10,
    "seed": 0,
    "transform_iters": cls.DEFAULT_TRANSFORM_ITERS,
    "grid": False,
    "save_model": None,
    "out_dir": ".",
}


def _train_eval(variant, x_train, y_train, w_train, x_eval, w_eval, y_eval,
                config, transform_iters):
    model, result = cls.train(x_train, y_train, variant, config, w_train=w_train)
    s_eval = cls.transform(model, x_eval, w_test=w_eval, iters=transform_iters)
    y_pred = cls.predict(model, s_eval)
    acc = cls.accuracy(y_eval, y_pred) if y_eval is not None else None
    return model, result, y_pred, acc


def cmd_classify(args) -> int:
    opts = _resolve(args, CLASSIFY_DEFAULTS)
    for key in ("x_train", "y_train", "x_test"):
        if opts[key] is None:
            raise ConfigError(f"classify requires --{key.replace('_', '-')}")
    x_train = _read_matrix_arg(opts["x_train"], "x_train")
    y_train = _read_matrix_arg(opts["y_train"], "y_train")
    x_test = _read_matrix_arg(opts["x_test"], "x_test")
    y_test = _read_matrix_arg(opts["y_test"], "y_test")
    w_train = _read_matrix_arg(opts["w_train"], "w_train")
    w_test = _read_matrix_arg(opts["w_test"], "w_test")
    variant = ModelVariant.parse(opts["variant"])
    transform_iters = _integer(opts, "transform_iters")
    base = _solver_config(opts)
    chosen = {"tol": base.tol, "lam": base.lam}
    grid_results = None
    if opts["grid"]:
        if opts["x_val"] is None or opts["y_val"] is None:
            raise ConfigError("--grid requires --x-val and --y-val")
        x_val = _read_matrix_arg(opts["x_val"], "x_val")
        y_val = _read_matrix_arg(opts["y_val"], "y_val")
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
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
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

SYNTH_DEFAULTS = {
    "experiment": "all",
    "n1": 100,
    "n2": 100,
    "k": 100,
    "r": 5,
    "density": 0.5,
    "lam": 1.0,
    "max_iters": 20000,
    "trials": 5,
    "seed": 0,
    "eps": 1e-10,
    "workers": None,
    "out_dir": ".",
}


def cmd_synth_bench(args) -> int:
    opts = _resolve(args, SYNTH_DEFAULTS)
    raw = str(opts["experiment"])
    if raw == "all":
        experiments = list(synth.EXPERIMENT_IDS)
    else:
        try:
            experiments = [int(raw)]
        except ValueError:
            raise ConfigError(f"experiment must be 1..4 or 'all', got {raw!r}") from None
    base = synth.ExperimentSpec(
        experiment=experiments[0],
        n1=_integer(opts, "n1"), n2=_integer(opts, "n2"), k=_integer(opts, "k"),
        r=_integer(opts, "r"), density=float(opts["density"]), lam=float(opts["lam"]),
        max_iters=_integer(opts, "max_iters"), trials=_integer(opts, "trials"),
        seed=_integer(opts, "seed"), eps=float(opts["eps"]),
    )
    grid = synth.run_benchmark(base, experiments, workers=_integer(opts, "workers"))
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
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

PREP_DEFAULTS = {
    "input": None,
    "format": "auto",
    "min_df": 5,
    "max_df_ratio": 0.7,
    "max_size": 5000,
    "stopword_file": None,
    "no_stopwords": False,
    "train_ratio": 0.6,
    "val_ratio": 0.2,
    "test_ratio": 0.2,
    "per_class_cap": None,
    "seed": 0,
    "no_strip": False,
    "out_dir": ".",
}


def cmd_prep(args) -> int:
    opts = _resolve(args, PREP_DEFAULTS)
    if opts["input"] is None:
        raise ConfigError("prep requires --input (corpus directory or JSONL file)")
    path = opts["input"]
    if not os.path.exists(path):
        raise ParseError(f"input not found: {path}")
    fmt = opts["format"]
    if fmt == "auto":
        fmt = "tree" if os.path.isdir(path) else "jsonl"
    strip = not opts["no_strip"]
    if fmt == "tree":
        corpus = textprep.load_corpus_tree(path, strip=strip)
    elif fmt == "jsonl":
        corpus = textprep.load_corpus_jsonl(path, strip=strip)
    else:
        raise ConfigError(f"format must be tree, jsonl, or auto, got {fmt!r}")
    ratios = (float(opts["train_ratio"]), float(opts["val_ratio"]),
              float(opts["test_ratio"]))
    train, val, test = textprep.split(
        corpus, ratios=ratios,
        per_class_cap=_integer(opts, "per_class_cap"),
        seed=_integer(opts, "seed"),
    )
    if opts["no_stopwords"]:
        stop = frozenset()
    elif opts["stopword_file"]:
        with open(opts["stopword_file"], "r", encoding="utf-8") as fh:
            stop = frozenset(w for w in fh.read().split() if w)
    else:
        stop = textprep.stopwords()
    vocab = textprep.build_vocabulary(
        train, stop_terms=stop,
        min_df=_integer(opts, "min_df"),
        max_df_ratio=float(opts["max_df_ratio"]),
        max_size=_integer(opts, "max_size"),
    )
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
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

TOPICS_DEFAULTS = {
    "a": None,
    "vocab": None,
    "count": 10,
    "out_dir": ".",
}


def cmd_topics(args) -> int:
    opts = _resolve(args, TOPICS_DEFAULTS)
    if opts["a"] is None or opts["vocab"] is None:
        raise ConfigError("topics requires --a (dictionary CSV) and --vocab")
    a = _read_matrix_arg(opts["a"], "a")
    if not os.path.exists(opts["vocab"]):
        raise ParseError(f"vocab file not found: {opts['vocab']}")
    vocab = textprep.load_vocabulary(opts["vocab"])
    count = _integer(opts, "count")
    keywords = evalcluster.top_keywords(a, vocab, count=count)
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "count": count,
        "topics": [{"topic": i, "keywords": words} for i, words in enumerate(keywords)],
    }
    _write_report(os.path.join(out_dir, "topics.json"), payload, args.no_timestamp)
    for i, words in enumerate(keywords):
        print(f"topic {i:>3}  " + " ".join(words))
    return 0


# ---------------------------------------------------------------- cluster-score

CLUSTER_DEFAULTS = {
    "s": None,
    "m": None,
    "mode": "both",
    "out_dir": ".",
}


def cmd_cluster_score(args) -> int:
    opts = _resolve(args, CLUSTER_DEFAULTS)
    if opts["s"] is None or opts["m"] is None:
        raise ConfigError("cluster-score requires --s and --m")
    s = _read_matrix_arg(opts["s"], "s")
    m = _read_matrix_arg(opts["m"], "m")
    mode = opts["mode"]
    if mode not in ("hard", "soft", "both"):
        raise ConfigError(f"mode must be hard, soft, or both, got {mode!r}")
    modes = ("hard", "soft") if mode == "both" else (mode,)
    payload = {}
    for item in modes:
        payload[f"{item}_mean_score"] = evalcluster.mean_score(s, m, mode=item)
    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_report(os.path.join(out_dir, "scores.json"), payload, args.no_timestamp)
    for item in modes:
        print(f"{item} mean score P: {payload[f'{item}_mean_score']:.4f}")
    return 0


# ---------------------------------------------------------------- parser

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    sub.add_argument("--seed", type=int, help="top-level random seed")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp field from reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssnmf",
        description="semi-supervised NMF: training, classification, benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="factorize a data (and optional label) matrix")
    _add_common(p)
    p.add_argument("--x", help="data matrix CSV")
    p.add_argument("--y", help="label matrix CSV")
    p.add_argument("--w", help="data mask CSV")
    p.add_argument("--l", help="label mask CSV")
    p.add_argument("--variant", help="fro-fro, fro-div, div-fro, or div-div")
    p.add_argument("--r", type=int, help="factorization rank")
    p.add_argument("--lam", type=float, help="supervision weight")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float, help="relative-error stopping threshold")
    p.add_argument("--eps", type=float)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("classify", help="train, project test data, report accuracy")
    _add_common(p)
    p.add_argument("--x-train", dest="x_train")
    p.add_argument("--y-train", dest="y_train")
    p.add_argument("--x-test", dest="x_test")
    p.add_argument("--y-test", dest="y_test")
    p.add_argument("--w-train", dest="w_train")
    p.add_argument("--w-test", dest="w_test")
    p.add_argument("--x-val", dest="x_val")
    p.add_argument("--y-val", dest="y_val")
    p.add_argument("--variant")
    p.add_argument("--r", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--transform-iters", dest="transform_iters", type=int)
    p.add_argument("--grid", action="store_true", default=None,
                   help="sweep tol and lam on the validation split")
    p.add_argument("--save-model", dest="save_model", help="model output directory")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("synth-bench", help="noise-model benchmark over variants")
    _add_common(p)
    p.add_argument("--experiment", help="1..4 or all")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--workers", type=int,
                   help="parallel trial workers (SSNMF_THREADS also caps this)")
    p.set_defaults(func=cmd_synth_bench)

    p = subs.add_parser("prep", help="corpus to TF-IDF matrices and splits")
    _add_common(p)
    p.add_argument("--input", help="corpus directory tree or JSONL file")
    p.add_argument("--format", choices=("auto", "tree", "jsonl"))
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--max-df-ratio", dest="max_df_ratio", type=float)
    p.add_argument("--max-size", dest="max_size", type=int)
    p.add_argument("--stopword-file", dest="stopword_file")
    p.add_argument("--no-stopwords", dest="no_stopwords", action="store_true",
                   default=None)
    p.add_argument("--train-ratio", dest="train_ratio", type=float)
    p.add_argument("--val-ratio", dest="val_ratio", type=float)
    p.add_argument("--test-ratio", dest="test_ratio", type=float)
    p.add_argument("--per-class-cap", dest="per_class_cap", type=int)
    p.add_argument("--no-strip", dest="no_strip", action="store_true", default=None)
    p.set_defaults(func=cmd_prep)

    p = subs.add_parser("topics", help="top keywords per topic column")
    _add_common(p)
    p.add_argument("--a", help="dictionary matrix CSV")
    p.add_argument("--vocab", help="vocabulary text file")
    p.add_argument("--count", type=int)
    p.set_defaults(func=cmd_topics)

    p = subs.add_parser("cluster-score", help="mean topic score P against ground truth")
    _add_common(p)
    p.add_argument("--s", help="representation matrix CSV")
    p.add_argument("--m", help="ground-truth membership CSV")
    p.add_argument("--mode", choices=("hard", "soft", "both"))
    p.set_defaults(func=cmd_cluster_score)

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
