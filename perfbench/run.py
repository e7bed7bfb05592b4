"""Benchmark of the ssnmf command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The run generates the workload's inputs from the seed, repeats the
workload's round of ``ssnmf`` commands (called in-process through
``ssnmf.cli.main``) for S seconds, checks every output and prints one JSON
object as its last line. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics, from rounds with timing
wrappers installed around each layer's public functions. The line before it
carries the environment, the sample counts and every figure by name.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# pin BLAS before numpy loads; the program's own default decides its workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SSNMF_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_CODE = "import ssnmf.cli; ssnmf.cli.build_parser()"
SETUP_REPEATS = 11
KIND_METRIC = {"fit": "fit_s", "synth_bench": "synth_bench_s",
               "prep": "prep_s", "classify": "classify_grid_s"}


def _load_program():
    if not (SRC / "ssnmf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ssnmf sources under {SRC}")
    sys.path.insert(0, str(SRC))


_load_program()

import numpy as np  # noqa: E402
from ssnmf import cli  # noqa: E402

import tracing  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import (  # noqa: E402
    SOLVER_KINDS, WORKLOADS, check_command, output_digest, reported_sweeps,
)


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


class Times(NamedTuple):
    """Seconds of each command of one round: as measured, and scaled to the
    reference kernel's nominal speed."""

    raw: list
    scaled: list


class Harness:
    """Runs rounds of one workload's commands and checks what they write.

    The first round's outputs are checked in full; every later round must
    reproduce them byte for byte (reports are written with --no-timestamp).
    """

    def __init__(self, commands, size, reference):
        self.commands = commands
        self.size = size
        self.reference = reference
        self.first = {}  # out_dir -> (digest, problems) of the first round
        self.attempted = 0
        self.failed = 0

    def run_round(self, tracer=None):
        """Run and check one round; returns its Times."""
        seconds, results = [], []
        marks = [self.reference.sample()]
        for command in self.commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                span = (tracer.span(f"cli.{command.kind}") if tracer
                        else contextlib.nullcontext())
                start = time.perf_counter()
                try:
                    with span:
                        code = cli.main(list(command.argv))
                except Exception:  # a crash is a failed command, not a dead benchmark
                    code = "crash"
                    traceback.print_exc()
                seconds.append(time.perf_counter() - start)
            marks.append(self.reference.sample())
            results.append((code, sink.getvalue()))
        for command, (code, output) in zip(self.commands, results):
            self._check(command, code, output)
        scaled = [self.reference.scaled(t, marks[i], marks[i + 1]) for i, t in enumerate(seconds)]
        return Times(seconds, scaled)

    def _check(self, command, code, output):
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {output.strip()[-500:]}"]
            print(f"perfbench: {command.kind}: {problems[0]}", file=sys.stderr)
        else:
            digest = output_digest(command.out_dir)
            if command.out_dir not in self.first:
                try:
                    found = check_command(command, self.size)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    found = [f"{command.out_dir}: {exc!r}"]
                self.first[command.out_dir] = (digest, found)
                for problem in found:
                    print(f"perfbench: {command.kind}: {problem}", file=sys.stderr)
            first_digest, problems = self.first[command.out_dir]
            if digest != first_digest:
                problems = problems + [f"{command.out_dir}: outputs differ from the first round"]
                print(f"perfbench: {command.kind}: {problems[-1]}", file=sys.stderr)
        if problems:
            self.failed += 1


def setup_seconds(reference):
    """Median time of a fresh interpreter importing ssnmf.cli and building
    its parser, as measured and speed-scaled. One untimed start first writes
    the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    raw, scaled = [], []
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
        raw.append(time.perf_counter() - start)
        after = reference.sample()
        scaled.append(reference.scaled(raw[-1], before, after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # the checkout is not a repository, so the sources stand for the commit
        "source_sha256": source.hexdigest(),
    }


def _summary(values, unit):
    return {"median": statistics.median(values), "samples": len(values), "unit": unit}


def timed_run(workload, harness, seconds, setup):
    """End-to-end metrics from speed-scaled medians over the rounds, and
    every figure as measured under the name it has per command. ``setup``
    is the (measured, scaled) pair from setup_seconds."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(harness.run_round())
    commands = harness.commands
    solver = [i for i, c in enumerate(commands) if c.kind in SOLVER_KINDS]

    def solver_seconds(times):
        return sum(times[i] for i in solver)

    named = {"wall_s": _summary([sum(r.raw) for r in rounds], "s"), "setup_s": setup[0]}
    for kind, name in KIND_METRIC.items():
        times = [r.raw[i] for r in rounds for i, c in enumerate(commands) if c.kind == kind]
        if times:
            named[name] = _summary(times, "s")
    try:
        sweeps = [reported_sweeps(c) for c in commands]
    except (OSError, KeyError, ValueError):
        sweeps = [None]
    if all(s is not None for s in sweeps):
        named["sweeps_per_s"] = _summary([sum(sweeps) / solver_seconds(r.raw) for r in rounds],
                                         "1/s")
    metrics = {
        "setup_s": setup[1],
        "wall_s": statistics.median(sum(r.scaled) for r in rounds),
        "command_s": statistics.median(solver_seconds(r.scaled) / len(solver) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - harness.failed / harness.attempted,
    }
    try:
        quality = workload.quality(commands)
    except (OSError, KeyError, ValueError, TypeError):
        quality = {"fit_error": 0.0}
    metrics["fit_error"] = quality.pop("fit_error")
    named.update(quality)
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["failed_frac"] = harness.failed / harness.attempted
    named["reference_ms"] = statistics.median(harness.reference.samples) * 1e3
    return metrics, named


def traced_run(harness, seconds, spans_path=None):
    """Alternate untraced and traced rounds. Per-layer figures are medians
    over the traced rounds, as measured; the overhead compares the
    speed-scaled times of the two kinds of round."""
    untraced, traced, per_round, tracers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() < deadline:
        untraced.append(harness.run_round())
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced.append(harness.run_round(tracer))
        per_round.append(tracing.layer_metrics(tracer.spans, sum(traced[-1].raw)))
        tracers.append(tracer)
    metrics = {k: statistics.median_low(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(sum(r.raw) for r in untraced)
    metrics["trace.overhead"] = (statistics.median(sum(r.scaled) for r in traced)
                                 / statistics.median(sum(r.scaled) for r in untraced) - 1.0)
    metrics["reference.kernel_ms"] = statistics.median(harness.reference.samples) * 1e3
    if spans_path:
        with open(ROOT / spans_path, "w", encoding="utf-8") as fh:
            for index, tracer in enumerate(tracers):
                tracer.write(fh, index)
    return metrics, {"traced_rounds": len(per_round), "untraced_rounds": len(untraced)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the workload at smoke-test scale")
    parser.add_argument("--spans", help="write every traced span as JSON lines "
                        "to this path, relative to the checkout")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    end_to_end, per_layer = declared_metrics()
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = Reference()
        setup = None if args.trace else setup_seconds(reference)
        inputs = workload.make_inputs(args.seed, str(work), size)
        commands = workload.make_round(inputs, args.seed, str(work), size)
        harness = Harness(commands, size, reference)
        if args.trace:
            metrics, named = traced_run(harness, args.seconds, args.spans)
            declared = per_layer
        else:
            metrics, named = timed_run(workload, harness, args.seconds, setup)
            declared = end_to_end
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    detail = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "environment": environment(args.seed), "figures": named,
              "all_metrics": metrics}
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
