"""Running independent jobs on the usable CPUs, this process among them."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from .exceptions import ConfigError

# map_jobs' (counter, func, jobs, shared) while this process works on its jobs
_running = []


def _usable_cpus() -> int:
    has_affinity = hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if has_affinity else os.cpu_count() or 1


def default_workers() -> int:
    """Usable CPUs // BLAS threads per process, at least 1: numpy's OpenBLAS
    takes OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else every usable CPU.
    OpenBLAS reads them once, when numpy is imported, so they must be set
    before that; an MKL-built numpy ignores OPENBLAS_NUM_THREADS."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        threads = os.environ.get(var, "").strip()
        if threads.isdecimal() and int(threads) > 0:
            return max(1, _usable_cpus() // int(threads))
    return 1


def _exit_with_parent(*running) -> None:
    """Pool initializer: keeps map_jobs' state and ends this worker once its
    parent is gone, which the pool's own queues never notice when it is killed."""
    _running[:] = running
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _take_jobs() -> list:
    """(index, ok, result or exception) of each next job, until none is left."""
    counter, func, jobs, shared = _running
    done = []
    while True:
        with counter.get_lock():
            i, counter.value = counter.value, counter.value + 1
        if i >= len(jobs):
            return done
        try:
            done.append((i, True, func(*shared, *jobs[i])))
        except Exception as exc:  # raised by map_jobs, in job order
            done.append((i, False, exc))


def map_jobs(func, jobs: list, workers: int | None = None, shared: tuple = ()) -> list:
    """[func(*shared, *job) for job in jobs] on min(workers, len(jobs), usable
    CPUs) processes, this one among them; workers defaults to default_workers().

    The pool of the other processes gets the jobs and shared operands through
    its initializer, and each process, this one too, takes the next job from
    one shared counter until none is left. A map inside a job runs in place.
    func must be importable by name and a job's result must depend on its
    arguments alone. When jobs fail, the first failing job in job order
    raises, as when they all run here.
    """
    workers = default_workers() if workers is None else workers
    if not workers >= 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    processes = min(workers, len(jobs), _usable_cpus())
    if processes <= 1 or _running:
        return [func(*shared, *job) for job in jobs]
    _running[:] = (multiprocessing.Value("q", 0), func, jobs, shared)
    try:
        with ProcessPoolExecutor(processes - 1, initializer=_exit_with_parent,
                                 initargs=tuple(_running)) as pool:
            theirs = [pool.submit(_take_jobs) for _ in range(processes - 1)]
            done = sorted(_take_jobs() + [job for future in theirs for job in future.result()])
    finally:
        _running.clear()
    for exc in (value for _, ok, value in done if not ok):
        raise exc  # the first failure in job order
    return [value for _, _, value in done]
