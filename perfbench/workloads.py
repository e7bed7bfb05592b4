"""Workloads of the benchmark: seeded inputs, the CLI commands of one round,
the checks on their outputs and the quality figure each workload guards.

Every input derives from the benchmark seed through ``ssnmf.rng.substream``;
the program only ever sees the generated files. A round is the list of
``ssnmf`` commands a user would type for the workload; the harness in
``run.py`` repeats rounds and times each command.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ssnmf.objectives import VARIANTS
from ssnmf.rng import substream

VARIANT_KEYS = tuple(v.key for v in VARIANTS)
# noise experiment id -> the variant that is its maximum-likelihood fit
MATCHED_VARIANT = {1: "fro-fro", 2: "fro-div", 3: "div-fro", 4: "div-div"}
# criterion 1: a sweep may raise the objective by this relative amount at most
TRACE_SLACK = 1e-9
CHANCE_ACCURACY = 1.0 / 6.0


@dataclass(frozen=True)
class Command:
    """One ``ssnmf`` invocation. ``kind`` names its subcommand layer."""

    kind: str  # synth_bench, fit, prep or classify
    argv: tuple
    out_dir: str


# commands timed into command_s; prep counts only towards wall_s
SOLVER_KINDS = ("synth_bench", "fit", "classify")


@dataclass
class Workload:
    """BENCHMARK.json records why each workload was chosen."""

    sizes: dict
    make_inputs: object  # (seed, work_dir, size) -> dict of input paths
    make_round: object  # (inputs, seed, work_dir, size) -> list of Command
    # (commands) -> {"fit_error": ..., and the workload's own quality name}
    quality: object


# ---------------------------------------------------------------- inputs

def _save_matrix(path, mat):
    np.savetxt(path, mat, fmt="%.17g", delimiter=",")


def write_fit_inputs(work_dir, seed, n, k, r, hidden=0.2):
    """Poisson X with a data mask hiding ``hidden`` of its entries, one-hot Y
    with a label mask that hides half of the columns.

    X = Poisson(2 A S) where each column of S loads on its class, so the
    labels are informative for the supervised variants.
    """
    gen = substream(seed, "perfbench", "fit-masked")
    labels = gen.integers(0, k, size=n)
    a = gen.random((n, r))
    s = 0.2 * gen.random((r, n))
    s[labels % r, np.arange(n)] += 1.0
    x = gen.poisson(2.0 * (a @ s)).astype(np.float64)
    w = (gen.random((n, n)) >= hidden).astype(np.float64)
    y = np.zeros((k, n))
    y[labels, np.arange(n)] = 1.0
    l = np.zeros((k, n))
    l[:, gen.permutation(n)[: n // 2]] = 1.0
    paths = {}
    for name, mat in (("x", x), ("w", w), ("y", y), ("l", l)):
        paths[name] = os.path.join(work_dir, f"{name}.csv")
        _save_matrix(paths[name], mat)
    return paths


def _pseudo_words(gen, count):
    """``count`` distinct lowercase words of 4 to 9 letters."""
    words, seen = [], set()
    while len(words) < count:
        lengths = gen.integers(4, 10, size=count)
        letters = (gen.integers(0, 26, size=(count, 9)) + ord("a")).astype(np.uint8)
        for length, row in zip(lengths, letters):
            word = bytes(row[:length]).decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def write_corpus(path, seed, docs, groups=6, subgroups=20, background=3000,
                 topic_words=30, topic_share=0.05):
    """A 20-Newsgroups-shaped JSONL corpus.

    Each document is Zipf-distributed background words with a small share of
    topical words: 40% from its group's list, 40% from its subgroup's list
    and 20% from a random group's list. The low topical share and the
    cross-group mixing keep test accuracy well below 1.0, so a drop shows.
    Each text has a header block and a quoted line, which ``prep`` strips.
    """
    gen = substream(seed, "perfbench", "corpus")
    vocab = np.array(_pseudo_words(gen, background + (groups + subgroups) * topic_words))
    back = vocab[:background]
    cdf = np.cumsum(1.0 / np.arange(1, background + 1) ** 1.07)
    cdf /= cdf[-1]
    group_words = vocab[background: background + groups * topic_words]
    group_words = group_words.reshape(groups, topic_words)
    sub_words = vocab[background + groups * topic_words:].reshape(subgroups, topic_words)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(docs):
            sub = int(gen.integers(subgroups))
            grp = sub % groups
            length = 30 + int(gen.poisson(70))
            tokens = back[np.searchsorted(cdf, gen.random(length))]
            count = int(gen.binomial(length, topic_share))
            pos = gen.choice(length, size=count, replace=False)
            kind = gen.random(count)
            pick = gen.integers(topic_words, size=count)
            other = gen.integers(groups, size=count)
            tokens[pos] = np.where(
                kind < 0.4, group_words[grp, pick],
                np.where(kind < 0.8, sub_words[sub, pick], group_words[other, pick]),
            )
            quoted = back[np.searchsorted(cdf, gen.random(5))]
            text = (f"From: user{int(gen.integers(500))}\n"
                    f"Subject: {tokens[0]} {tokens[1]}\n\n"
                    + " ".join(tokens) + "\n> " + " ".join(quoted) + "\n")
            record = {"text": text, "group": f"grp{grp}", "subgroup": f"grp{grp}.sub{sub}"}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"corpus": path}


# ---------------------------------------------------------------- checks

def _read_numbers(path, skip_header=False, skip_first_column=False):
    """A CSV matrix of numbers (``nan`` and ``inf`` included)."""
    first = 1 if skip_first_column else 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1 if skip_header else 0:]
    return np.array([[float(v) for v in line.split(",")[first:]] for line in lines if line],
                    dtype=np.float64, ndmin=2)


def _check_factor(path):
    if not os.path.exists(path):
        return [f"{path}: missing"]
    try:
        mat = _read_numbers(path)
    except ValueError as exc:
        return [f"{path}: unreadable: {exc}"]
    if not np.all(np.isfinite(mat)):
        return [f"{path}: non-finite entries"]
    if np.any(mat < 0):
        return [f"{path}: negative entries"]
    return []


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_fit(out_dir, max_iters):
    problems = []
    for name in ("A.csv", "B.csv", "S.csv"):
        problems += _check_factor(os.path.join(out_dir, name))
    report = _load_json(os.path.join(out_dir, "result.json"))
    trace = np.asarray(report["objective_trace"], dtype=np.float64)
    rises = (trace[1:] - trace[:-1]) / np.maximum(trace[:-1], 1e-30)
    if not np.all(np.isfinite(trace)):
        problems.append(f"{out_dir}: non-finite objective trace")
    elif rises.size and rises.max() > TRACE_SLACK:
        problems.append(f"{out_dir}: objective rose by {rises.max():.3g} relative")
    if report["iterations_run"] != max_iters:
        problems.append(f"{out_dir}: ran {report['iterations_run']} of {max_iters} sweeps")
    return problems


def check_synth_bench(out_dir):
    problems = _check_grid(os.path.join(out_dir, "errorgrid.csv"))
    means = _load_json(os.path.join(out_dir, "report.json"))["means"]
    values = [v for row in means.values() for v in row.values()]
    if len(values) != 16 or not all(math.isfinite(v) and v > 0 for v in values):
        problems.append(f"{out_dir}: report means are not 16 positive numbers")
    return problems


def _check_grid(path):
    try:
        mat = _read_numbers(path, skip_header=True, skip_first_column=True)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not np.all(np.isfinite(mat)) or np.any(mat < 0):
        return [f"{path}: errors must be finite and nonnegative"]
    return []


PREP_OUTPUTS = tuple(f"{split}_{part}.csv" for split in ("train", "val", "test")
                     for part in ("x", "y", "m"))


def check_prep(out_dir):
    problems = []
    for name in PREP_OUTPUTS:
        problems += _check_factor(os.path.join(out_dir, name))
    return problems


def check_classify(out_dir):
    path = os.path.join(out_dir, "predictions.csv")
    problems = _check_factor(path)
    if not problems:
        pred = _read_numbers(path)
        if not (np.all((pred == 0.0) | (pred == 1.0)) and np.all(pred.sum(axis=0) == 1.0)):
            problems.append(f"{path}: columns are not one-hot")
    acc = _load_json(os.path.join(out_dir, "report.json"))["test_accuracy"]
    if acc is None or not acc > CHANCE_ACCURACY:
        problems.append(f"{out_dir}: test accuracy {acc} is not above chance")
    return problems


def output_digest(out_dir):
    """sha256 over every file below out_dir, in sorted path order."""
    digest = hashlib.sha256()
    for base, dirs, names in os.walk(out_dir):
        dirs.sort()
        for name in sorted(names):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, out_dir).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------- workloads

def _common(seed, out_dir):
    return ("--seed", str(seed), "--out-dir", out_dir, "--no-timestamp")


def _synth_inputs(seed, work_dir, size):
    return {}


def _synth_round(inputs, seed, work_dir, size):
    out = os.path.join(work_dir, "synth")
    argv = ("synth-bench", "--experiment", "all",
            "--n1", str(size["n"]), "--n2", str(size["n"]), "--k", str(size["n"]),
            "--r", "5", "--density", "0.5", "--trials", str(size["trials"]),
            "--max-iters", str(size["sweeps"])) + _common(seed, out)
    return [Command("synth_bench", argv, out)]


def _synth_quality(commands):
    means = _load_json(os.path.join(commands[0].out_dir, "report.json"))["means"]
    error = float(np.mean([means[v][f"experiment_{e}"] for e, v in MATCHED_VARIANT.items()]))
    return {"matched_error": error, "fit_error": error}


def _fit_inputs(seed, work_dir, size):
    return write_fit_inputs(work_dir, seed, size["n"], k=10, r=10)


def _fit_round(inputs, seed, work_dir, size):
    commands = []
    runs = [(v, True) for v in VARIANT_KEYS] + [("fro-fro", False), ("div-div", False)]
    for variant, supervised in runs:
        out = os.path.join(work_dir, f"fit-{variant}" + ("" if supervised else "-unsup"))
        argv = ("fit", "--x", inputs["x"], "--w", inputs["w"])
        if supervised:
            argv += ("--y", inputs["y"], "--l", inputs["l"])
        argv += ("--variant", variant, "--r", "10", "--lam", "1",
                 "--max-iters", str(size["sweeps"]), "--tol", "0") + _common(seed, out)
        commands.append(Command("fit", argv, out))
    return commands


def _fit_quality(commands):
    error = float(np.mean([_load_json(os.path.join(c.out_dir, "result.json"))["relative_error"]
                           for c in commands]))
    return {"rel_error": error, "fit_error": error}


def _text_inputs(seed, work_dir, size):
    return write_corpus(os.path.join(work_dir, "corpus.jsonl"), seed, size["docs"],
                        topic_share=size["topic_share"])


def _text_round(inputs, seed, work_dir, size):
    prep = os.path.join(work_dir, "prep")
    out = os.path.join(work_dir, "classify")
    prep_argv = ("prep", "--input", inputs["corpus"], "--max-size", str(size["terms"]),
                 "--train-ratio", "0.3", "--val-ratio", "0.1",
                 "--test-ratio", "0.6") + _common(seed, prep)
    split = {f"{part}_{name}": os.path.join(prep, f"{name}_{part}.csv")
             for name in ("train", "val", "test") for part in ("x", "y")}
    classify_argv = ("classify", "--grid",
                     "--x-train", split["x_train"], "--y-train", split["y_train"],
                     "--x-val", split["x_val"], "--y-val", split["y_val"],
                     "--x-test", split["x_test"], "--y-test", split["y_test"],
                     "--variant", "div-fro", "--r", "13",
                     "--transform-iters", "200") + _common(seed, out)
    return [Command("prep", prep_argv, prep), Command("classify", classify_argv, out)]


def _text_quality(commands):
    accuracy = float(_load_json(os.path.join(commands[-1].out_dir, "report.json"))["test_accuracy"])
    return {"test_accuracy": accuracy, "fit_error": 1.0 - accuracy}


WORKLOADS = {
    "synth-noise": Workload(
        # 10 trials of 50 sweeps cut the seed-to-seed spread of the matched
        # error from 14% (one trial of 300 sweeps) to 5%
        sizes={"full": {"n": 100, "sweeps": 50, "trials": 10},
               "tiny": {"n": 20, "sweeps": 10, "trials": 1}},
        make_inputs=_synth_inputs,
        make_round=_synth_round,
        quality=_synth_quality,
    ),
    "fit-masked": Workload(
        sizes={"full": {"n": 500, "sweeps": 30}, "tiny": {"n": 40, "sweeps": 5}},
        make_inputs=_fit_inputs,
        make_round=_fit_round,
        quality=_fit_quality,
    ),
    "text-grid": Workload(
        sizes={"full": {"docs": 1200, "terms": 600, "topic_share": 0.05},
               "tiny": {"docs": 300, "terms": 200, "topic_share": 0.2}},
        make_inputs=_text_inputs,
        make_round=_text_round,
        quality=_text_quality,
    ),
}


def reported_sweeps(command):
    """MU sweeps a command reports, or None where its report does not say."""
    if command.kind == "fit":
        return _load_json(os.path.join(command.out_dir, "result.json"))["iterations_run"]
    if command.kind == "synth_bench":
        argv = list(command.argv)
        sweeps = int(argv[argv.index("--max-iters") + 1])
        report = _load_json(os.path.join(command.out_dir, "report.json"))
        fits = len(report["per_trial"]) * len(report["variants"]) * len(report["experiments"])
        return fits * sweeps
    return None


def check_command(command, size):
    """Problems with one command's outputs (empty when they pass)."""
    if command.kind == "fit":
        return check_fit(command.out_dir, size["sweeps"])
    if command.kind == "synth_bench":
        return check_synth_bench(command.out_dir)
    if command.kind == "prep":
        return check_prep(command.out_dir)
    return check_classify(command.out_dir)
