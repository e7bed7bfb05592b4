"""Byte-identity check of two source trees over a fixed catalogue of ssnmf commands.

    python3 tools/bytecheck.py OLD_TREE NEW_TREE [--seeds 1 3 5] [--work DIR]

Each tree's src/ is copied to a path of the same length, since the path of
the sources can move what a run does. The seeded inputs are written once,
with perfbench's workload writers, and both trees read the same files. The
catalogue holds every subcommand plus two failing invocations, each with
--no-timestamp; every command runs in its own process, one at a time. The
catalogue runs twice per seed and tree: with the BLAS thread count left to
the library's default, and with OPENBLAS_NUM_THREADS=1.

Within each BLAS setting, the two trees must agree on every command's exit
code, stdout and stderr (the copy's own path masked), and on the sha256 of
every file it writes. Each difference prints one line; the last line is a
summary. The exit status is 0 when everything agrees and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402  (perfbench's seeded input writers)

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETTINGS = {"unpinned": {}, "pinned": {"OPENBLAS_NUM_THREADS": "1"}}


def write_inputs(inputs, seed):
    """The files every command of one seed reads, written once for both trees."""
    inputs.mkdir(parents=True)
    paths = workloads.write_fit_inputs(str(inputs), seed, 60, k=6, r=6)
    paths.update(workloads.write_corpus(str(inputs / "corpus.jsonl"), seed, 300,
                                        topic_share=0.2))
    # every entry near the float64 maximum: the divergence's sum of X overflows
    paths["huge"] = str(inputs / "huge.csv")
    np.savetxt(paths["huge"], np.loadtxt(paths["x"], delimiter=",") * 1e305,
               fmt="%.17g", delimiter=",")
    return paths


def catalogue(paths, out, seed):
    """(name, argv) of every command in run order; out(name) is its output
    directory, and later commands read what earlier ones wrote."""
    seeded = ("--seed", str(seed))
    fit_xy = ("fit", "--x", paths["x"], "--y", paths["y"])
    prep = out("prep")
    split = [(f"--{part}-{name}", os.path.join(prep, f"{name}_{part}.csv"))
             for name in ("train", "val", "test") for part in ("x", "y")]
    split = tuple(arg for pair in split for arg in pair)
    commands = []
    for v in workloads.VARIANT_KEYS:
        commands.append((f"fit-{v}-masked", fit_xy + (
            "--w", paths["w"], "--l", paths["l"], "--variant", v, "--r", "6",
            "--max-iters", "30", "--tol", "0") + seeded))
        commands.append((f"fit-{v}-tol", fit_xy + (
            "--variant", v, "--r", "6", "--max-iters", "300", "--tol", "0.5") + seeded))
    commands += [
        ("fit-unsupervised", ("fit", "--x", paths["x"], "--variant", "div-div", "--r", "6",
                              "--max-iters", "30") + seeded),
        ("synth-bench", ("synth-bench", "--n1", "20", "--n2", "20", "--k", "20", "--r", "3",
                         "--trials", "2", "--max-iters", "20") + seeded),
        ("prep", ("prep", "--input", paths["corpus"], "--max-size", "200") + seeded),
        ("classify-grid", ("classify", "--grid", *split, "--variant", "div-fro", "--r", "6",
                           "--transform-iters", "50",
                           "--save-model", os.path.join(out("classify-grid"), "model"))
         + seeded),
        ("classify", ("classify", *split, "--variant", "fro-div", "--r", "6", "--max-iters", "30",
                      "--transform-iters", "50",
                      "--save-model", os.path.join(out("classify"), "model")) + seeded),
        ("topics", ("topics", "--a", os.path.join(out("classify-grid"), "model", "A.csv"),
                    "--vocab", os.path.join(prep, "vocabulary.txt"), "--count", "5")),
        ("fit-text", ("fit", "--x", os.path.join(prep, "train_x.csv"),
                      "--y", os.path.join(prep, "train_y.csv"), "--variant", "div-fro",
                      "--r", "6", "--max-iters", "30") + seeded),
        ("cluster-score", ("cluster-score", "--s", os.path.join(out("fit-text"), "S.csv"),
                           "--m", os.path.join(prep, "train_m.csv"))),
        # exit 2: a rank above the data's; exit 1: a non-finite objective
        ("fail-rank", ("fit", "--x", paths["x"], "--r", "1000") + seeded),
        ("fail-overflow", ("fit", "--x", paths["huge"], "--variant", "div-fro", "--r", "2",
                           "--max-iters", "3") + seeded),
    ]
    return [(name, argv + ("--out-dir", out(name), "--no-timestamp"))
            for name, argv in commands]


def run_catalogue(copy, paths, seed, setting, outputs):
    """Run the catalogue from one tree's copy; return {(name, item): digest or
    text} for every exit code, stream and written file."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(SETTINGS[setting], PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, argv in catalogue(paths, lambda n: str(outputs / n), seed):
        done = subprocess.run([sys.executable, "-m", "ssnmf.cli", *argv], env=env,
                              cwd=copy, capture_output=True, text=True, timeout=600)
        results[name, "exit"] = str(done.returncode)
        for stream in ("stdout", "stderr"):
            results[name, stream] = getattr(done, stream).replace(str(copy), "<tree>")
        target = outputs / name
        for path in sorted(target.rglob("*") if target.is_dir() else ()):
            if path.is_file():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                results[name, str(path.relative_to(target))] = digest
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="tree whose outputs are the reference")
    parser.add_argument("new", type=Path, help="tree that must reproduce them")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3, 5])
    parser.add_argument("--work", type=Path, help="keep the copies and outputs here "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "ssnmf" / "cli.py").is_file():
            parser.error(f"no ssnmf sources under {tree}")
    start = time.perf_counter()
    work = args.work or Path(tempfile.mkdtemp(prefix="bytecheck-"))
    try:
        # "a" and "b": copies at paths of one length
        copies = {}
        for tag, tree in (("a", args.old), ("b", args.new)):
            copies[tag] = work / tag
            shutil.copytree(tree / "src", copies[tag] / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compared = differ = 0
        for seed in args.seeds:
            paths = write_inputs(work / "inputs" / f"s{seed}", seed)
            for setting in SETTINGS:
                side = {tag: run_catalogue(copy, paths, seed, setting,
                                           copy / "out" / setting / f"s{seed}")
                        for tag, copy in copies.items()}
                commands = len({name for name, _ in side["a"]})
                for key in sorted(side["a"].keys() | side["b"].keys()):
                    compared += 1
                    old, new = side["a"].get(key), side["b"].get(key)
                    if old != new:
                        differ += 1
                        print(f"differs: seed {seed}, {setting}, {key[0]}: {key[1]}"
                              f" ({old!r:.60} vs {new!r:.60})")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"bytecheck: {differ} of {compared} items differ ({commands} commands per tree, "
          f"seeds {' '.join(map(str, args.seeds))}, BLAS {' and '.join(SETTINGS)}), "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
