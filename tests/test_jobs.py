"""jobs.map_jobs: how many processes a map runs, which failure it raises,
BLAS on one thread in each, and pool processes that end with their parent."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from ssnmf import jobs

SRC = Path(__file__).resolve().parents[1] / "src"

needs_blas_setter = pytest.mark.skipif(jobs._blas_threads() is None,
                                       reason="numpy's OpenBLAS thread count setter is not found")


@pytest.mark.parametrize("cpus, count, expected", [
    (4, 5, [4]),  # C < J < 2C: one process per job, job 0's here
    (4, 7, [6]),
    (4, 8, [4]),  # J >= 2C: one pool process per CPU beside job 0 here
    (4, 10000, [4]),
    (4, 4, [3]),
    (4, 2, [1]),
    (3, 5, [4]),
    (3, 6, [3]),
    (2, 3, [2]),
    (2, 4, [2]),
    (4, 1, []),
    (4, 0, []),
    (1, 3, []),  # C = 1: no pool
])
def test_pool_size_follows_the_jobs_per_cpu(pool_sizes, monkeypatch, cpus, count, expected):
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: cpus)
    assert jobs.map_jobs(abs, [(-i,) for i in range(count)]) == list(range(count))
    assert pool_sizes == expected
    assert all(size < jobs.JOBS_PER_CPU * cpus for size in pool_sizes)


def record_call(calls, i):
    calls.append(i)
    return i * i


@pytest.mark.parametrize("count", [3, 5, 9])
def test_every_job_runs_once_and_returns_in_job_order(pool_sizes, count):
    calls = []
    assert jobs.map_jobs(record_call, [(calls, i) for i in range(count)]) == [
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


@pytest.mark.parametrize("threads", [None, "1", "2"])
def test_a_map_pools_every_cpu_whatever_the_blas_threads(pool_sizes, monkeypatch, threads):
    # every process of a map runs BLAS on one thread, so the environment's
    # thread count does not divide the CPUs
    if jobs._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread count setter is not found")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if threads:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    jobs.map_jobs(abs, [(-i,) for i in range(4)])
    assert pool_sizes == [3]


def test_unpinned_blas_runs_the_jobs_in_process_without_the_blas_setter(pool_sizes,
                                                                         monkeypatch):
    monkeypatch.setattr(jobs, "_blas_threads", lambda: None)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    jobs.map_jobs(abs, [(-i,) for i in range(4)])
    assert pool_sizes == []
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    jobs.map_jobs(abs, [(-i,) for i in range(4)])
    assert pool_sizes == [3]


def fail_after_job_2(path, late, i):
    """Job i of a 3-job map: job 2 fails at once, job late once job 2 has
    failed, which job 2 tells it through the file at path."""
    if i == 2:
        Path(path).touch()
    elif i == late:
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "job 2 never failed"
            time.sleep(0.01)
    if i in (2, late):
        raise ValueError(f"job {i} failed")
    return i


@pytest.mark.parametrize("late", [0, 1])
def test_map_jobs_raises_a_later_failure_when_job_2_failed_first(tmp_path, real_pool_sizes,
                                                                   late):
    # job 0 runs here, jobs 1 and 2 in the pool's two processes
    failed = tmp_path / "job-2-failed"
    with pytest.raises(ValueError, match=f"^job {late} failed$"):
        jobs.map_jobs(fail_after_job_2, [(str(failed), late, i) for i in range(3)])
    assert failed.exists()
    assert real_pool_sizes == [2]


def test_map_jobs_raises_the_first_failing_job_in_job_order(real_pool_sizes):
    # 3 jobs on 2 CPUs run on 3 processes, so job 1 or 2 may fail first
    with pytest.raises(ValueError, match="'x'"):
        jobs.map_jobs(int, [("1",), ("x",), ("y",)])
    assert real_pool_sizes == [2]


ENVIRONMENTS = [
    ({}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 8, 1),
    ({"OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 8, 8),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 2),
]


def set_environment(monkeypatch, env, cpus):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("env, cpus, expected", ENVIRONMENTS)
def test_cpus_without_the_blas_setter_are_usable_cpus_over_blas_threads(monkeypatch, env, cpus,
                                                                        expected):
    monkeypatch.setattr(jobs, "_blas_threads", lambda: None)
    set_environment(monkeypatch, env, cpus)
    assert jobs._cpus() == expected


@pytest.mark.parametrize("env, cpus, _", ENVIRONMENTS)
def test_cpus_with_the_blas_setter_are_the_usable_cpus(monkeypatch, env, cpus, _):
    monkeypatch.setattr(jobs, "_blas_threads", lambda: ("set", "get"))
    set_environment(monkeypatch, env, cpus)
    assert jobs._cpus() == cpus


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert jobs._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert jobs._usable_cpus() == 3


def blas_thread_count(_):
    return jobs._blas_threads()[1]()


@needs_blas_setter
@pytest.mark.parametrize("cpus", [1, 2])
def test_every_job_runs_blas_on_one_thread_and_this_process_gets_its_count_back(
        monkeypatch, real_pool_sizes, cpus):
    monkeypatch.setattr(jobs, "_usable_cpus", lambda: cpus)
    set_threads, get_threads = jobs._blas_threads()
    before = get_threads()
    set_threads(2)
    try:
        counts = jobs.map_jobs(blas_thread_count, [(i,) for i in range(3)])
        after = get_threads()
    finally:
        set_threads(before)
    assert counts == [1, 1, 1]
    assert after == 2
    assert real_pool_sizes == ([2] if cpus == 2 else [])


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


WORKER_OF_A_PARENT = """
import os, time
from concurrent.futures import ProcessPoolExecutor
from ssnmf import jobs
pool = ProcessPoolExecutor(1, initializer=jobs._exit_with_parent)
print(pool.submit(os.getpid).result(), flush=True)
pool.submit(time.sleep, 600)
time.sleep(600)
"""


def test_pool_worker_exits_when_its_parent_is_killed():
    parent = subprocess.Popen([sys.executable, "-c", WORKER_OF_A_PARENT],
                              stdout=subprocess.PIPE, text=True)
    worker = int(parent.stdout.readline())
    parent.kill()
    try:
        # the worker holds its parent's stdout open until it exits
        parent.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        os.kill(worker, signal.SIGKILL)
        parent.communicate()
        pytest.fail(f"pool worker {worker} outlived its killed parent")


SYNTH_BENCH = """
import json, sys
from ssnmf import cli, jobs
sizes = []
class RecordingPool(jobs.ProcessPoolExecutor):
    def __init__(self, max_workers, **kwargs):
        sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)
jobs.ProcessPoolExecutor = RecordingPool
jobs._usable_cpus = lambda: int(sys.argv[1])
code = cli.main(sys.argv[2:])
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
        for cpus in (2, 1):
            out = tmp_path / f"{threads}-{cpus}"
            run = subprocess.run([sys.executable, "-c", SYNTH_BENCH, str(cpus), *args,
                                  "--out-dir", str(out)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert json.loads(run.stdout.splitlines()[-1]) == [0, [2] if cpus == 2 else []]
            outputs[threads, cpus] = tuple(
                (out / name).read_bytes() for name in ("errorgrid.csv", "report.json"))
    assert len(set(outputs.values())) == 1
