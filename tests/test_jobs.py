"""jobs.map_jobs: how many processes a map runs, and BLAS on one thread in each."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from ssnmf import jobs

SRC = Path(__file__).resolve().parents[1] / "src"

needs_blas_setter = pytest.mark.skipif(jobs._blas_threads() is None,
                                       reason="numpy's OpenBLAS thread count setter is not found")


@pytest.mark.parametrize("cpus, workers, count, expected", [
    (4, 4, 5, [4]),  # C < J < 2C: one process per job
    (4, 4, 7, [6]),
    (4, 4, 8, [3]),  # J >= 2C: one process per CPU
    (4, 4, 10000, [3]),
    (4, 4, 4, [3]),
    (4, 4, 2, [1]),
    (8, 3, 5, [4]),  # C is the smaller of workers and the usable CPUs
    (8, 3, 6, [2]),
    (2, 8, 3, [2]),
    (2, 8, 4, [1]),
    (4, 4, 1, []),
    (4, 4, 0, []),
    (1, 4, 3, []),  # C = 1: no pool
    (4, 1, 3, []),
])
def test_pool_size_follows_the_jobs_per_cpu(pool_sizes, monkeypatch, cpus, workers, count,
                                             expected):
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: cpus)
    assert jobs.map_jobs(abs, [(-i,) for i in range(count)], workers) == list(range(count))
    assert pool_sizes == expected
    assert all(size < jobs.JOBS_PER_CPU * min(cpus, workers) for size in pool_sizes)


def record_call(calls, i):
    calls.append(i)
    return i * i


@pytest.mark.parametrize("count", [3, 5, 9])
def test_every_job_runs_once_and_returns_in_job_order(pool_sizes, count):
    calls = []
    assert jobs.map_jobs(record_call, [(i,) for i in range(count)], shared=(calls,)) == [
        i * i for i in range(count)]
    assert sorted(calls) == list(range(count))


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_the_first_failure_in_job_order_raises(pool_sizes, monkeypatch, cpus):
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: cpus)
    with pytest.raises(ValueError, match="'x'"):
        jobs.map_jobs(int, [("1",), ("2",), ("x",), ("3",), ("y",)])


def test_a_real_three_job_map_on_two_cpus_leaves_no_process_running(real_pool_sizes):
    assert jobs.map_jobs(abs, [(-1,), (-2,), (-3,)]) == [1, 2, 3]
    assert real_pool_sizes == [2]
    # active_children joins the finished ones, so only running processes remain
    assert multiprocessing.active_children() == []


def blas_thread_count(_):
    return jobs._blas_threads()[1]()


@needs_blas_setter
@pytest.mark.parametrize("workers", [1, 2])
def test_every_job_runs_blas_on_one_thread_and_this_process_gets_its_count_back(
        real_pool_sizes, workers):
    set_threads, get_threads = jobs._blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        counts = jobs.map_jobs(blas_thread_count, [(i,) for i in range(3)], workers)
        after = get_threads()
    finally:
        set_threads(before)
    assert counts == [1, 1, 1]
    assert after == 2
    assert real_pool_sizes == ([2] if workers == 2 else [])


@needs_blas_setter
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_a_pool_worker_runs_blas_on_one_thread(monkeypatch, method):
    # a spawned worker reads its thread count from the environment, a forked
    # one inherits this process's
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    set_threads, get_threads = jobs._blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method),
                                 initializer=jobs._exit_with_parent) as pool:
            assert pool.submit(blas_thread_count, 0).result() == 1
    finally:
        set_threads(before)


SYNTH_BENCH = """
import json, sys
from ssnmf import cli, jobs
sizes = []
class RecordingPool(jobs.ProcessPoolExecutor):
    def __init__(self, max_workers, **kwargs):
        sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)
jobs.ProcessPoolExecutor = RecordingPool
jobs._usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
print(json.dumps([code, sizes]))
"""


@needs_blas_setter
def test_synth_bench_writes_the_same_bytes_at_any_blas_setting(tmp_path):
    # at 110 x 110 a one-process run writes other bytes with BLAS on 1 and on
    # 2 threads, unless the map runs it on one; 3 jobs on 2 CPUs are 3 processes
    args = ["synth-bench", "--experiment", "2", "--n1", "110", "--n2", "110", "--k", "6",
            "--r", "4", "--max-iters", "30", "--trials", "3", "--no-timestamp"]
    outputs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        for workers in ([], ["--workers", "1"]):
            out = tmp_path / f"{threads}-{len(workers)}"
            run = subprocess.run([sys.executable, "-c", SYNTH_BENCH, *args, *workers,
                                  "--out-dir", str(out)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert json.loads(run.stdout.splitlines()[-1]) == [0, [] if workers else [2]]
            outputs[threads, bool(workers)] = tuple(
                (out / name).read_bytes() for name in ("errorgrid.csv", "report.json"))
    assert len(set(outputs.values())) == 1
