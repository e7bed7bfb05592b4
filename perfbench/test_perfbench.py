"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from ssnmf import matrix, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_prints_every_declared_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_spans_are_written_with_parents_and_roots(tmp_path):
    path = tmp_path / "spans.jsonl"
    proc = bench(ROOT, "text-grid", 1, "--spans", str(path))
    assert proc.returncode == 0, proc.stderr
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    names = {s["name"] for s in spans}
    assert {"cli.prep", "cli.classify", "solver.fit", "solver.mu_step",
            "objectives.objective", "classify.transform", "textprep.tfidf"} <= names
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] < 0:
            assert s["root"] == s["id"] and s["name"].startswith("cli.")


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "synth-noise", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_names_are_valid_and_unique():
    declared = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    workload_names = [w["name"] for w in SPEC["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    every_layer_figure = list(tracing.layer_metrics([], 1.0))
    for name in declared + workload_names + every_layer_figure:
        assert NAME.fullmatch(name), name
    assert len(set(declared)) == len(declared)
    # these three come from the untraced rounds and the reference kernel
    run_level = {"trace.untraced_wall_s", "trace.overhead", "reference.kernel_ms"}
    assert {m["name"] for m in SPEC["per_layer"]} - run_level <= set(every_layer_figure)


def _inputs(tmp_path, seed, sub):
    out = tmp_path / sub
    out.mkdir()
    paths = workloads.write_fit_inputs(str(out), seed, n=40, k=10, r=10)
    paths.update(workloads.write_corpus(str(out / "corpus.jsonl"), seed, docs=60))
    return {name: Path(path).read_bytes() for name, path in paths.items()}


def test_inputs_depend_only_on_the_seed(tmp_path):
    first, again, other = (_inputs(tmp_path, 7, "a"), _inputs(tmp_path, 7, "b"),
                           _inputs(tmp_path, 8, "c"))
    assert first == again
    assert all(first[name] != other[name] for name in first)


def _fit_harness(tmp_path):
    size = workloads.WORKLOADS["fit-masked"].sizes["tiny"]
    inputs = workloads.write_fit_inputs(str(tmp_path), 5, size["n"], k=10, r=10)
    commands = workloads.WORKLOADS["fit-masked"].make_round(inputs, 5, str(tmp_path), size)
    return run.Harness(commands[:1], size, run.Reference())


def test_clean_rounds_count_no_failure(tmp_path):
    harness = _fit_harness(tmp_path)
    harness.run_round()
    harness.run_round()
    assert (harness.attempted, harness.failed) == (2, 0)


def test_negative_factor_entry_is_a_failure(tmp_path, monkeypatch):
    write = matrix.write_csv

    def corrupt(path, a):
        if str(path).endswith("S.csv"):
            a = a.copy()
            a[0, 0] = -1.0
        write(path, a)

    monkeypatch.setattr(matrix, "write_csv", corrupt)
    harness = _fit_harness(tmp_path)
    harness.run_round()
    assert harness.failed == 1


def test_rising_objective_trace_is_a_failure(tmp_path, monkeypatch):
    calls = []

    def rising(*args, **kwargs):
        calls.append(None)
        return float(len(calls))

    monkeypatch.setattr(solver, "objective", rising)
    harness = _fit_harness(tmp_path)
    harness.run_round()
    assert harness.failed == 1


def test_output_that_changes_between_rounds_is_a_failure(tmp_path, monkeypatch):
    write = matrix.write_csv
    rounds = []

    def drifting(path, a):
        if str(path).endswith("A.csv"):
            rounds.append(None)
            a = a * (1.0 + 1e-6 * len(rounds))
        write(path, a)

    monkeypatch.setattr(matrix, "write_csv", drifting)
    harness = _fit_harness(tmp_path)
    harness.run_round()
    harness.run_round()
    assert (harness.attempted, harness.failed) == (2, 1)
